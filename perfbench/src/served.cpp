//===- perfbench/src/served.cpp - End-to-end served workloads -------------===//
///
/// \file
/// One workload through `validator_cli --serve --socket` with a
/// single-threaded closed-loop client: half the cold starts (setup_s),
/// the first half of the main phase, the other cold starts, the second
/// half, then the image-open probe. Every verdict is checked against the
/// baseline checker's verdict made at input generation; jit_patch
/// checkpoints also re-check the bytes the client tracks with both the
/// baseline checker and a fresh full check. A failed check is counted and
/// the run goes on.
///
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "core/BaselineChecker.h"
#include "core/Verifier.h"
#include "support/Oracle.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <numeric>
#include <optional>

using namespace rocksalt;
using svc::proto::MsgKind;

namespace perfbench {

namespace {

/// Cold starts per run; setup_s is their median.
constexpr unsigned ColdStarts = 20;
/// Verify/lint windows close at the first round boundary after this
/// long; rates and CPU per request are medians over windows, so a burst
/// of host steal moves a few windows, not the run's figure.
constexpr int64_t WindowNs = 200'000'000;
/// Image-open probe of the workloads that open no images themselves:
/// this many sessions, each opening every open-pool image once.
constexpr unsigned ProbeSessions = 4;

/// Per-window throughput and server CPU per request.
class Windows {
public:
  explicit Windows(pid_t Server) : Server(Server) {}

  void begin() {
    N = 0;
    T0 = nowNs();
    Cpu0 = processCpuNs(Server);
  }
  void count() { ++N; }
  int64_t elapsed() const { return nowNs() - T0; }
  void close() {
    int64_t T1 = nowNs();
    int64_t Cpu1 = processCpuNs(Server);
    if (N == 0)
      return;
    Rate.push_back(double(N) * 1e9 / double(T1 - T0));
    CpuMs.push_back(double(Cpu1 - Cpu0) / 1e6 / double(N));
  }

  std::vector<double> Rate, CpuMs;

private:
  pid_t Server;
  uint64_t N = 0;
  int64_t T0 = 0, Cpu0 = 0;
};

struct Outcome {
  std::vector<double> LatMs;  ///< main requests
  std::vector<double> OpenMs; ///< image-open requests
};

std::vector<size_t> seededOrder(uint64_t Seed, size_t N) {
  std::vector<size_t> Order(N);
  std::iota(Order.begin(), Order.end(), 0);
  Rng R(mixSeed(Seed, 0x0D3E));
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[R.below(I)]);
  return Order;
}

/// verify_small / verify_large / lint_large: whole rounds over the pool
/// until the deadline.
void runBatchPhase(Workload W, const std::vector<Image> &Pool, Client &C,
                   int64_t Deadline, uint64_t Seed, Windows &Win,
                   Outcome &O, Tally &T) {
  const bool Lint = W == Workload::LintLarge;
  const MsgKind Req = Lint ? MsgKind::LintRequest : MsgKind::VerifyRequest;
  const MsgKind Resp = Lint ? MsgKind::LintResponse : MsgKind::VerifyResponse;
  std::vector<std::vector<uint8_t>> Frames;
  for (const Image &Img : Pool)
    Frames.push_back(frame(Req, svc::proto::encodeImageBatch({Img.Bytes})));
  const std::vector<size_t> Order = seededOrder(Seed, Pool.size());

  Win.begin();
  while (nowNs() < Deadline) {
    for (size_t I : Order) {
      ++T.Attempted;
      int64_t T0 = nowNs();
      svc::proto::Frame F = C.roundTrip(Frames[I], Resp);
      O.LatMs.push_back(double(nowNs() - T0) / 1e6);
      Win.count();
      const Image &Img = Pool[I];
      if (Lint) {
        auto Reps = svc::proto::decodeLintResponse(F.Body);
        if (Reps.size() != 1)
          throw CheckFailure{"lint response count"};
        const auto &L = Reps[0];
        if (Img.Expect)
          T.check(L.ParseComplete && L.Errors == 0,
                  "lint reported errors on an accepted image");
        else
          T.check(L.Errors >= 1, "lint reported no error on a rejected image");
      } else {
        auto Vs = svc::proto::decodeVerifyResponse(F.Body);
        if (Vs.size() != 1)
          throw CheckFailure{"verify response count"};
        T.check(Vs[0].Ok == Img.Expect,
                "verify verdict disagrees with the baseline checker");
      }
    }
    // Windows hold whole rounds, so each one sends the same image mix.
    if (Win.elapsed() >= WindowNs) {
      Win.close();
      Win.begin();
    }
  }
  Win.close();
}

/// Opens \p Img on \p C, timing the request; returns the handle.
uint32_t openImage(Client &C, const Image &Img, Outcome &O, Tally &T) {
  std::vector<uint8_t> Req =
      frame(MsgKind::ImageOpenRequest,
            svc::proto::encodeImageOpenRequest(Img.Bytes));
  ++T.Attempted;
  int64_t T0 = nowNs();
  svc::proto::Frame F = C.roundTrip(Req, MsgKind::ImageOpenResponse);
  O.OpenMs.push_back(double(nowNs() - T0) / 1e6);
  auto R = svc::proto::decodeImageOpenResponse(F.Body);
  T.check(R.V.Ok == Img.Expect,
          "image-open verdict disagrees with the baseline checker");
  return R.Image;
}

void closeImage(Client &C, uint32_t Handle, Tally &T) {
  ++T.Attempted;
  C.roundTrip(frame(MsgKind::ImageCloseRequest,
                    svc::proto::encodeImageCloseRequest(Handle)),
              MsgKind::ImageCloseResponse);
}

/// jit_patch: modules of open → patches → checkpoint → close; a fresh
/// session per round of the open pool, so every open meets a cold chunk
/// cache.
void runJitPhase(const std::vector<Image> &Pool, Server &S, int64_t Deadline,
                 uint64_t Seed, uint64_t &Module, Windows &Win, Outcome &O,
                 Tally &T) {
  const core::RockSalt Checker;
  while (nowNs() < Deadline) {
    Client C(S.connectRetry());
    for (const Image &Img : Pool) {
      uint32_t Handle = openImage(C, Img, O, T);
      std::vector<PatchOp> Plan = modulePlan(Seed, Module++, Img.Bytes);
      std::vector<std::vector<uint8_t>> Frames;
      for (const PatchOp &Op : Plan) {
        svc::proto::PatchRequestBody B;
        B.Image = Handle;
        B.Offset = Op.Offset;
        B.Bytes = Op.Bytes;
        Frames.push_back(
            frame(MsgKind::PatchRequest, svc::proto::encodePatchRequest(B)));
      }
      Win.begin();
      for (size_t I = 0; I < Plan.size(); ++I) {
        ++T.Attempted;
        int64_t T0 = nowNs();
        svc::proto::Frame F = C.roundTrip(Frames[I], MsgKind::PatchResponse);
        O.LatMs.push_back(double(nowNs() - T0) / 1e6);
        Win.count();
        auto R = svc::proto::decodePatchResponse(F.Body);
        T.check(R.V.Ok == !Plan[I].Attack,
                Plan[I].Attack ? "attack patch accepted"
                               : "compliant patch rejected");
      }
      Win.close();

      // Checkpoint, outside the window: the tracked bytes at the first
      // attack (server said reject) and at the module's end (server said
      // accept) against the baseline checker and a fresh full check.
      std::vector<uint8_t> Tracked = Img.Bytes;
      std::optional<std::vector<uint8_t>> AtAttack;
      for (const PatchOp &Op : Plan) {
        std::copy(Op.Bytes.begin(), Op.Bytes.end(),
                  Tracked.begin() + Op.Offset);
        if (Op.Attack && !AtAttack)
          AtAttack = Tracked;
      }
      T.Attempted += 2;
      T.check(AtAttack && !core::baselineVerify(*AtAttack) &&
                  !Checker.check(*AtAttack).Ok,
              "attacked state not rejected by the independent checks");
      T.check(core::baselineVerify(Tracked) && Checker.check(Tracked).Ok,
              "module end state not accepted by the independent checks");
      closeImage(C, Handle, T);
    }
  }
}

/// The image-open probe of the non-jit workloads.
void runOpenProbe(const std::vector<Image> &Pool, Server &S, Outcome &O,
                  Tally &T) {
  for (unsigned Sess = 0; Sess < ProbeSessions; ++Sess) {
    Client C(S.connectRetry());
    for (const Image &Img : Pool)
      closeImage(C, openImage(C, Img, O, T), T);
  }
}

} // namespace

ServedResult serveWorkload(const RunArgs &A, Workload W, double Seconds,
                           const Pools &P, const std::string &Log, Tally &T,
                           const std::function<void()> &Midpoint) {
  ServedResult Res;
  Outcome O;
  const std::vector<Image> &Main = W == Workload::VerifySmall   ? P.Small
                                   : W == Workload::VerifyLarge ? P.Large
                                                                : P.Lint;
  Server S(A.ServerBin, A.RunDir + "/main.sock", Log);
  Windows Win(S.pid());
  {
    Client C(S.connectRetry());
    if (W != Workload::JitPatch) {
      // Warm-up over the first images, unmeasured.
      Outcome Warm;
      Windows WarmWin(S.pid());
      runBatchPhase(W, Main, C, nowNs() + 300'000'000, A.Seed, WarmWin, Warm,
                    T);
    }
    uint64_t Module = 0;
    for (int Half = 0; Half < 2; ++Half) {
      if (Half == 1 && Midpoint)
        Midpoint();
      const int64_t Deadline = nowNs() + int64_t(Seconds / 2 * 1e9);
      if (W == Workload::JitPatch)
        runJitPhase(P.Open, S, Deadline, A.Seed, Module, Win, O, T);
      else
        runBatchPhase(W, Main, C, Deadline, A.Seed, Win, O, T);
    }
    Res.HwmMiB = double(processHwmKiB(S.pid())) / 1024.0;
    Res.ServerThreads = processThreads(S.pid());
  }
  // After the peak-RSS reading: the probe's 1 MiB images are not part of
  // the workload's own footprint.
  if (W != Workload::JitPatch)
    runOpenProbe(P.Open, S, O, T);
  S.shutdown();
  Res.LatMs = std::move(O.LatMs);
  Res.OpenMs = std::move(O.OpenMs);
  Res.Rate = std::move(Win.Rate);
  Res.CpuMs = std::move(Win.CpuMs);
  return Res;
}

std::vector<double> coldStarts(const RunArgs &A, const Image &Probe,
                               unsigned Count, const std::string &Log,
                               Tally &T) {
  std::vector<double> SetupS;
  const std::vector<uint8_t> Req = frame(
      MsgKind::VerifyRequest, svc::proto::encodeImageBatch({Probe.Bytes}));
  for (unsigned I = 0; I < Count; ++I) {
    Server S(A.ServerBin, A.RunDir + "/cold.sock", Log);
    {
      Client C(S.connectRetry());
      ++T.Attempted;
      auto F = C.roundTrip(Req, MsgKind::VerifyResponse);
      SetupS.push_back(double(nowNs() - S.startNs()) / 1e9);
      auto Vs = svc::proto::decodeVerifyResponse(F.Body);
      T.check(Vs.size() == 1 && Vs[0].Ok == Probe.Expect,
              "cold-start verdict disagrees with the baseline checker");
    }
    S.shutdown();
  }
  return SetupS;
}

Pools makePools(uint64_t Seed, bool All, Workload W) {
  Pools P;
  P.Small = smallPool(Seed);
  if (All || W == Workload::VerifyLarge)
    P.Large = largePool(Seed);
  if (All || W == Workload::LintLarge)
    P.Lint = lintPool(Seed);
  P.Open = openPool(Seed);
  return P;
}

int runServed(const RunArgs &A) {
  const std::string Log = A.RunDir + "/server-" + workloadName(A.W) + "-" +
                          std::to_string(A.Seed) + ".log";
  // Inputs first: the server only ever receives these generated bytes.
  const int64_t Gen0 = nowNs();
  const Pools P = makePools(A.Seed, false, A.W);
  std::printf("info: inputs generated in %.3f s\n",
              double(nowNs() - Gen0) / 1e9);
  std::map<std::string, Metric> M;
  Tally T;
  try {
    // Cold starts and the served phase alternate in halves, so a drift of
    // host speed over the run weighs on every metric alike.
    std::vector<double> SetupS =
        coldStarts(A, P.Small[0], ColdStarts / 2, Log, T);
    ServedResult R = serveWorkload(A, A.W, A.Seconds, P, Log, T, [&] {
      std::vector<double> More =
          coldStarts(A, P.Small[0], ColdStarts - ColdStarts / 2, Log, T);
      SetupS.insert(SetupS.end(), More.begin(), More.end());
    });
    std::printf("info: %s main requests %zu, windows %zu, opens %zu, "
                "cold starts %zu; threads client 1 + server %u (jobs %u)\n",
                workloadName(A.W), R.LatMs.size(), R.Rate.size(),
                R.OpenMs.size(), SetupS.size(), R.ServerThreads, ServerJobs);
    M["setup_s"] = {median(SetupS), "s"};
    M["req_p50_ms"] = {median(R.LatMs), "ms"};
    M["req_per_s"] = {median(R.Rate), "1/s"};
    M["server_cpu_ms_per_req"] = {median(R.CpuMs), "ms"};
    M["server_peak_rss_mib"] = {R.HwmMiB, "MiB"};
    M["open_p50_ms"] = {median(R.OpenMs), "ms"};
  } catch (const CheckFailure &F) {
    std::fprintf(stderr, "run ended: %s\n", F.What.c_str());
    ++T.Failed;
  }
  printResult(T.Failed == 0, T.Attempted, T.Failed, M);
  return T.Failed == 0 ? 0 : 1;
}

} // namespace perfbench
