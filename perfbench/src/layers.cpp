//===- perfbench/src/layers.cpp - Per-layer traced run --------------------===//
///
/// \file
/// The traced run: times calls into each layer's public functions from
/// the benchmark's own code, on the same seeded inputs the served
/// workloads send, and prints the per-layer metrics. Set-up layers are
/// timed cold in fresh child processes (`perfbench cold-setup`). A short
/// served phase of the run's workload gives the client-observed
/// req_p50_ms the layer figures are attributed against; its tail
/// percentiles are printed with their sample counts.
///
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "analysis/CfgLint.h"
#include "analysis/Dataflow.h"
#include "core/Policy.h"
#include "core/TableRegistry.h"
#include "core/Verifier.h"
#include "incr/ChunkCache.h"
#include "incr/IncrementalVerifier.h"
#include "mips/MipsPolicy.h"
#include "regex/TableIO.h"
#include "svc/Service.h"
#include "svc/VerifierPool.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace rocksalt;
using svc::proto::MsgKind;

namespace perfbench {

namespace {

/// Fresh-process set-up samples per traced run.
constexpr unsigned ColdChildren = 9;
/// Served phase of the traced run, and of its verify_small probe.
constexpr double TraceServeSeconds = 3;
constexpr double TransportProbeSeconds = 1;

volatile uint64_t Sink; ///< keeps timed results observable (this thread)
std::atomic<uint64_t> PoolRuns{0}; ///< written by pool tasks

double msSince(int64_t T0) { return double(nowNs() - T0) / 1e6; }

/// Median over \p Reps calls of \p Fn, in nanoseconds.
template <class Fn> double medianNs(unsigned Reps, Fn &&F) {
  std::vector<double> V;
  V.reserve(Reps);
  for (unsigned I = 0; I < Reps; ++I) {
    int64_t T0 = nowNs();
    F(I);
    V.push_back(double(nowNs() - T0));
  }
  return median(V);
}

/// One `cold-setup` child: its JSON-less "key value" line, parsed.
std::map<std::string, double> runColdChild(const RunArgs &A) {
  int Pipe[2];
  if (::pipe(Pipe) != 0)
    throw std::runtime_error("pipe failed");
  pid_t Pid = ::fork();
  if (Pid < 0)
    throw std::runtime_error("fork failed");
  if (Pid == 0) {
    ::dup2(Pipe[1], 1);
    ::close(Pipe[0]);
    const char *Argv[] = {A.SelfBin.c_str(), "cold-setup", nullptr};
    ::execv(A.SelfBin.c_str(), const_cast<char *const *>(Argv));
    ::_exit(127);
  }
  ::close(Pipe[1]);
  std::string Out;
  char Buf[1024];
  for (;;) {
    ssize_t N = ::read(Pipe[0], Buf, sizeof(Buf));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    Out.append(Buf, size_t(N));
  }
  ::close(Pipe[0]);
  int St = 0;
  while (::waitpid(Pid, &St, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(St) || WEXITSTATUS(St) != 0)
    throw std::runtime_error("cold-setup child failed");
  std::map<std::string, double> Vals;
  size_t P = 0;
  while (P < Out.size()) {
    size_t Sp = Out.find(' ', P);
    size_t End = Out.find_first_of(" \n", Sp + 1);
    if (Sp == std::string::npos)
      break;
    Vals[Out.substr(P, Sp - P)] = std::strtod(Out.c_str() + Sp + 1, nullptr);
    P = End == std::string::npos ? Out.size() : End + 1;
  }
  return Vals;
}

struct Layers {
  std::map<std::string, Metric> M;
  void set(const std::string &Name, double V, const char *Unit) {
    M[Name] = {V, Unit};
  }
  double get(const std::string &Name) const { return M.at(Name).Value; }
};

void coldSetupLayers(const RunArgs &A, Layers &L) {
  std::map<std::string, std::vector<double>> S;
  for (unsigned I = 0; I < ColdChildren; ++I)
    for (const auto &[K, V] : runColdChild(A))
      S[K].push_back(V);
  L.set("core.build_tables_ms", median(S["build_tables_ms"]), "ms");
  L.set("core.fuse_ms", median(S["fuse_ms"]), "ms");
  L.set("mips.register_ms", median(S["mips_register_ms"]), "ms");
  L.set("regex.serialize_hash_ms", median(S["serialize_hash_ms"]), "ms");
  L.set("svc.service_start_ms", median(S["service_start_ms"]), "ms");
}

/// Frame codec of one verify request/response pair over \p Img:
/// {encode, decode} medians in microseconds.
std::pair<double, double> codecUs(const std::vector<Image> &Imgs,
                                  unsigned Reps) {
  std::vector<uint8_t> Req, Resp;
  double Enc = medianNs(Reps, [&](unsigned I) {
    const Image &Img = Imgs[I % Imgs.size()];
    Req.clear();
    svc::proto::appendFrame(Req, MsgKind::VerifyRequest,
                            svc::proto::encodeImageBatch({Img.Bytes}));
    Resp.clear();
    svc::proto::appendFrame(
        Resp, MsgKind::VerifyResponse,
        svc::proto::encodeVerifyResponse({{Img.Expect, {}}}));
  });
  std::vector<std::vector<uint8_t>> Reqs, Resps;
  for (const Image &Img : Imgs) {
    Reqs.push_back(frame(MsgKind::VerifyRequest,
                         svc::proto::encodeImageBatch({Img.Bytes})));
    Resps.push_back(
        frame(MsgKind::VerifyResponse,
              svc::proto::encodeVerifyResponse({{Img.Expect, {}}})));
  }
  double Dec = medianNs(Reps, [&](unsigned I) {
    size_t K = I % Imgs.size();
    svc::proto::Frame F;
    size_t Pos = 0;
    svc::proto::parseFrame(Reqs[K].data(), Reqs[K].size(), &Pos, &F);
    Sink = svc::proto::decodeImageBatch(F.Body).size();
    Pos = 0;
    svc::proto::parseFrame(Resps[K].data(), Resps[K].size(), &Pos, &F);
    Sink = svc::proto::decodeVerifyResponse(F.Body).size();
  });
  return {Enc / 1e3, Dec / 1e3};
}

void svcLayers(const Pools &P, Layers &L) {
  auto [Enc, Dec] = codecUs(P.Small, 4000);
  L.set("svc.frame_encode_us", Enc, "us");
  L.set("svc.frame_decode_us", Dec, "us");
  L.set("svc.frame_codec_1m_us", [&] {
    auto [E, D] = codecUs(P.Large, 48);
    return E + D;
  }(), "us");

  svc::Service S(svc::ServiceOptions{ServerJobs});
  std::vector<svc::proto::Frame> Frames;
  for (const Image &Img : P.Small) {
    svc::proto::Frame F;
    F.Kind = MsgKind::VerifyRequest;
    F.Body = svc::proto::encodeImageBatch({Img.Bytes});
    Frames.push_back(std::move(F));
  }
  bool Shutdown = false;
  L.set("svc.handle_frame_us", medianNs(4000, [&](unsigned I) {
          Sink = S.handleFrame(Frames[I % Frames.size()], &Shutdown).size();
        }) / 1e3,
        "us");

  svc::VerifierPool Pool(svc::VerifierPool::Options{ServerJobs});
  L.set("svc.pool_hop_us", medianNs(4000, [&](unsigned) {
          svc::VerifierPool::TaskGroup G;
          Pool.run(G, [] { PoolRuns.fetch_add(1, std::memory_order_relaxed); });
          Pool.wait(G);
        }) / 1e3,
        "us");
}

void coreLayers(const Pools &P, Layers &L) {
  const core::RockSalt R;
  L.set("core.check_4k_us", medianNs(4000, [&](unsigned I) {
          Sink = R.check(P.Small[I % P.Small.size()].Bytes).Ok;
        }) / 1e3,
        "us");
  std::vector<const Image *> Good;
  for (const Image &Img : P.Large)
    if (Img.Expect)
      Good.push_back(&Img);
  double Ns = medianNs(3 * unsigned(Good.size()), [&](unsigned I) {
    Sink = R.check(Good[I % Good.size()]->Bytes).Ok;
  });
  L.set("core.check_1m_ms", Ns / 1e6, "ms");
  L.set("core.check_mib_per_s",
        double(Good[0]->Bytes.size()) / double(1 << 20) / (Ns / 1e9), "MiB/s");
}

void incrLayers(const Pools &P, uint64_t Seed, Layers &L, Tally &T) {
  incr::IncrementalVerifier IV;
  std::vector<double> OpenMs, PatchUs, RejectMs;
  double Rescanned = 0, Hits = 0;
  unsigned Spliced = 0, Total = 0;
  uint64_t Module = 0;
  for (const Image &Img : P.Open) {
    int64_t T0 = nowNs();
    incr::ImageId Id = IV.open(Img.Bytes);
    OpenMs.push_back(msSince(T0));
    for (const PatchOp &Op : modulePlan(Seed, Module++, Img.Bytes)) {
      ++T.Attempted;
      T0 = nowNs();
      incr::IncrResult R = IV.patch(Id, Op.Offset, Op.Bytes);
      double Ms = msSince(T0);
      T.check(R.Ok != Op.Attack, "in-process patch verdict is wrong");
      ++Total;
      Spliced += R.Spliced;
      Rescanned += R.ChunksRescanned;
      Hits += R.ChunkCacheHits;
      if (Op.Attack)
        RejectMs.push_back(Ms);
      else if (!Op.Revert)
        PatchUs.push_back(Ms * 1e3);
    }
    IV.close(Id);
  }
  L.set("incr.open_ms", median(OpenMs), "ms");
  L.set("incr.patch_us", median(PatchUs), "us");
  L.set("incr.reject_patch_ms", median(RejectMs), "ms");
  // Counts over every patch of the modules: sleds, attacks and reverts
  // (a revert is the cache's hit case).
  L.set("incr.chunks_rescanned_per_patch", Rescanned / Total, "count");
  L.set("incr.cache_hits_per_patch", Hits / Total, "count");
  L.set("incr.splice_share", double(Spliced) / Total, "ratio");

  const std::vector<uint8_t> &Code = P.Open[0].Bytes;
  const uint32_t Size = uint32_t(Code.size());
  const uint32_t Chunk = incr::IncrementalOptions{}.ChunkBytes;
  const uint32_t MaxRead = IV.maxReadBytes();
  double Ns = medianNs(8, [&](unsigned) {
    for (uint32_t B = 0; B < Size; B += Chunk)
      Sink = incr::chunkKey(Code.data(), Size, B, std::min(Size, B + Chunk),
                            MaxRead)[0];
  });
  L.set("incr.chunk_key_us", Ns / 1e3 / double((Size + Chunk - 1) / Chunk),
        "us");
}

void analysisLayers(const Pools &P, Layers &L, Tally &T) {
  const core::PolicyTables &Tables = core::policyTables();
  const core::RockSalt R;
  std::map<std::string, std::vector<double>> S;
  double Nodes = 0, LintNs = 0;
  unsigned Images = 0;
  for (unsigned Round = 0; Round < 2; ++Round)
    for (const Image &Img : P.Lint) {
      if (!Img.Expect)
        continue;
      const uint8_t *Code = Img.Bytes.data();
      const uint32_t Size = uint32_t(Img.Bytes.size());
      ++T.Attempted;
      int64_t T0 = nowNs();
      analysis::RecoveredCfg Cfg = analysis::recoverCfg(Tables, Code, Size);
      S["recover"].push_back(msSince(T0));
      double Lint = double(nowNs() - T0);

      core::CheckResult C = R.check(Code, Size);
      T0 = nowNs();
      Sink = analysis::cfgFromCheck(Code, Size, C).Nodes.size();
      S["from_check"].push_back(msSince(T0));

      T0 = nowNs();
      analysis::CfgGraph G(Cfg.Nodes, Size);
      S["graph"].push_back(msSince(T0));
      T0 = nowNs();
      analysis::ReachInfo Reach = analysis::reachability(G);
      S["reach"].push_back(msSince(T0));
      T0 = nowNs();
      Sink = analysis::reachingMasks(G, Reach).size();
      S["masks"].push_back(msSince(T0));
      T0 = nowNs();
      Sink = analysis::recoverCallGraph(G, Reach).ReachableProcs;
      S["calls"].push_back(msSince(T0));

      const size_t N = Cfg.Nodes.size();
      T0 = nowNs();
      analysis::CfgLintResult Res =
          analysis::lintCfg(std::move(Cfg), Size, nullptr);
      S["lint"].push_back(msSince(T0));
      Lint += double(nowNs() - T0);
      T0 = nowNs();
      Sink = Res.render().size();
      S["render"].push_back(msSince(T0));
      Lint += double(nowNs() - T0);
      T.check(Res.ParseComplete && Res.Errors == 0,
              "in-process lint reported errors on an accepted image");
      Nodes += double(N);
      LintNs += Lint;
      ++Images;
    }
  L.set("analysis.recover_cfg_ms", median(S["recover"]), "ms");
  L.set("analysis.cfg_from_check_ms", median(S["from_check"]), "ms");
  L.set("analysis.cfg_graph_ms", median(S["graph"]), "ms");
  L.set("analysis.reachability_ms", median(S["reach"]), "ms");
  L.set("analysis.reaching_masks_ms", median(S["masks"]), "ms");
  L.set("analysis.call_graph_ms", median(S["calls"]), "ms");
  L.set("analysis.lint_cfg_ms", median(S["lint"]), "ms");
  L.set("analysis.render_ms", median(S["render"]), "ms");
  L.set("analysis.nodes", Nodes / Images, "count");
  L.set("analysis.ns_per_node", LintNs / Nodes, "ns");
}

/// Voluntary context switches per second of an idle server's threads.
double idleWakeups(const RunArgs &A, const Image &Probe,
                   const std::string &Log) {
  Server S(A.ServerBin, A.RunDir + "/idle.sock", Log);
  {
    Client C(S.connectRetry());
    C.roundTrip(frame(MsgKind::VerifyRequest,
                      svc::proto::encodeImageBatch({Probe.Bytes})),
                MsgKind::VerifyResponse);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  int64_t T0 = nowNs();
  int64_t W0 = processVoluntarySwitches(S.pid());
  std::this_thread::sleep_for(std::chrono::seconds(1));
  int64_t W1 = processVoluntarySwitches(S.pid());
  double Rate = double(W1 - W0) * 1e9 / double(nowNs() - T0);
  S.shutdown();
  return Rate;
}

void printTail(const char *What, const std::vector<double> &V) {
  std::string Label;
  double Tail = tailPercentile(V, &Label);
  if (Label == "none")
    std::printf("tail: %s p50 %.6f ms (n=%zu, too few for a tail)\n", What,
                median(V), V.size());
  else
    std::printf("tail: %s p50 %.6f ms, %s %.6f ms (n=%zu)\n", What,
                median(V), Label.c_str(), Tail, V.size());
}

} // namespace

int runColdSetup() {
  int64_t T0 = nowNs();
  core::PolicyTables T = core::buildPolicyTables();
  int64_t T1 = nowNs();
  core::FusedPolicy F = core::buildFusedPolicy(T);
  Sink = F.SafeCount;
  int64_t T2 = nowNs();
  mips::mipsTableEntry();
  int64_t T3 = nowNs();
  std::vector<uint8_t> Blob = core::serializePolicyTables(T);
  Sink = re::verifyBlobHashHex(Blob).size();
  int64_t T4 = nowNs();
  // The registry's own build of the default entry (what the served
  // process pays inside Service construction); timed apart so that
  // service_start measures the pool and the service's own blob.
  core::defaultTableEntry();
  int64_t T5 = nowNs();
  double ServiceMs;
  {
    svc::Service S(svc::ServiceOptions{ServerJobs});
    ServiceMs = msSince(T5);
  }
  std::printf("build_tables_ms %.6f fuse_ms %.6f mips_register_ms %.6f "
              "serialize_hash_ms %.6f registry_ms %.6f service_start_ms "
              "%.6f\n",
              double(T1 - T0) / 1e6, double(T2 - T1) / 1e6,
              double(T3 - T2) / 1e6, double(T4 - T3) / 1e6,
              double(T5 - T4) / 1e6, ServiceMs);
  return 0;
}

int runTrace(const RunArgs &A) {
  const std::string Log = A.RunDir + "/server-trace-" + workloadName(A.W) +
                          "-" + std::to_string(A.Seed) + ".log";
  const Pools P = makePools(A.Seed, true, A.W);
  Layers L;
  Tally T;
  try {
    coldSetupLayers(A, L);
    std::vector<double> Setup =
        coldStarts(A, P.Small[0], ColdChildren, Log, T);

    // Client-observed figures the layers are attributed against.
    ServedResult Served =
        serveWorkload(A, A.W, TraceServeSeconds, P, Log, T);
    std::vector<double> SmallLat = Served.LatMs;
    if (A.W != Workload::VerifySmall)
      SmallLat = serveWorkload(A, Workload::VerifySmall,
                               TransportProbeSeconds, P, Log, T)
                     .LatMs;
    L.set("svc.idle_wakeups_per_s", idleWakeups(A, P.Small[0], Log), "1/s");

    svcLayers(P, L);
    coreLayers(P, L);
    incrLayers(P, A.Seed, L, T);
    analysisLayers(P, L, T);
    L.set("svc.transport_us",
          median(SmallLat) * 1e3 - L.get("svc.handle_frame_us"), "us");

    // Attribution of the workload's client-observed median.
    double Sum = 0; // ms
    const double Hop = L.get("svc.pool_hop_us") / 1e3;
    switch (A.W) {
    case Workload::VerifySmall:
      Sum = (L.get("svc.frame_encode_us") + L.get("svc.frame_decode_us")) /
                1e3 +
            Hop + L.get("core.check_4k_us") / 1e3;
      break;
    case Workload::VerifyLarge:
      Sum = L.get("svc.frame_codec_1m_us") / 1e3 + Hop +
            L.get("core.check_1m_ms");
      break;
    case Workload::JitPatch:
      Sum = Hop + L.get("incr.patch_us") / 1e3;
      break;
    case Workload::LintLarge:
      Sum = Hop + L.get("analysis.recover_cfg_ms") +
            L.get("analysis.lint_cfg_ms") + L.get("analysis.render_ms");
      break;
    }
    const double P50 = median(Served.LatMs);
    L.set("attr.req_p50_ms", P50, "ms");
    L.set("attr.layer_sum_ms", Sum, "ms");
    L.set("attr.unattributed_ms", P50 - Sum, "ms");
    const double SetupSum =
        L.get("core.build_tables_ms") + L.get("core.fuse_ms") +
        L.get("mips.register_ms") + L.get("regex.serialize_hash_ms") +
        L.get("svc.service_start_ms");
    L.set("attr.setup_ms", median(Setup) * 1e3, "ms");
    L.set("attr.setup_layer_sum_ms", SetupSum, "ms");

    printTail(workloadName(A.W), Served.LatMs);
    if (!Served.OpenMs.empty())
      printTail("image-open", Served.OpenMs);
    std::printf("attribution: %s req_p50 %.6f ms = layers %.6f ms + "
                "unattributed %.6f ms; setup %.3f ms vs set-up layers "
                "%.3f ms\n",
                workloadName(A.W), P50, Sum, P50 - Sum, median(Setup) * 1e3,
                SetupSum);
  } catch (const CheckFailure &F) {
    std::fprintf(stderr, "run ended: %s\n", F.What.c_str());
    ++T.Failed;
  }
  printResult(T.Failed == 0, T.Attempted, T.Failed, L.M);
  return T.Failed == 0 ? 0 : 1;
}

} // namespace perfbench
