//===- perfbench/src/bench.h - RSVC benchmark shared pieces ----*- C++ -*-===//
///
/// \file
/// Shared declarations of the RSVC benchmark: seeded input pools (with
/// their expected verdicts computed by the independent hand checker,
/// core::baselineVerify), the single-threaded RSVC client, the served
/// child process, /proc readers, and robust statistics.
///
/// Three entry points use them (main.cpp dispatches):
///  * `e2e`   — served.cpp: one workload over the socket, end-to-end
///              metrics;
///  * `trace` — layers.cpp: calls into each layer's public functions on
///              the same inputs, per-layer metrics;
///  * `cold-setup` — layers.cpp: one fresh-process set-up sample.
///
/// Every operation a run attempts is counted in a Tally; an output check
/// that fails is counted there and the run goes on, so `failed` is the
/// number of wrong outputs. A protocol failure (an ErrorResponse, a reply
/// of the wrong kind) throws CheckFailure and ends the run.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "svc/Protocol.h"

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <sys/types.h>
#include <vector>

namespace perfbench {

namespace svc = rocksalt::svc;

// --- Workloads ------------------------------------------------------------

enum class Workload { VerifySmall, VerifyLarge, JitPatch, LintLarge };

bool parseWorkload(const std::string &Name, Workload *Out);
const char *workloadName(Workload W);

/// Verify-pool worker count passed to the server as --jobs, on every
/// workload. One connection with one image per request keeps at most one
/// task in flight, so one worker serves it; client + event loop + worker
/// stay at three threads, within any host of three or more CPUs.
constexpr unsigned ServerJobs = 1;

/// Image sizes of the pools.
constexpr uint32_t SmallBytes = 4096;
constexpr uint32_t LargeBytes = 1u << 20;
constexpr uint32_t LintBytes = 256u * 1024;

/// jit_patch module shape: PatchesPerModule patches per opened image,
/// of which AttacksPerModule are attack patches, each followed at once
/// by its revert; the rest are nop / `inc eax` sleds in alternation.
constexpr uint32_t PatchBytes = 64;
constexpr uint32_t PatchesPerModule = 64;
constexpr uint32_t AttacksPerModule = 2;

// --- Inputs -----------------------------------------------------------------

/// One image plus the verdict of core::baselineVerify on it (computed at
/// generation, outside every timed loop).
struct Image {
  std::vector<uint8_t> Bytes;
  bool Expect = false;
};

/// The pools each workload draws from, for \p Seed.
std::vector<Image> smallPool(uint64_t Seed);
std::vector<Image> largePool(uint64_t Seed);
std::vector<Image> lintPool(uint64_t Seed);
/// Fresh compliant 1 MiB images for image-open (jit_patch modules).
std::vector<Image> openPool(uint64_t Seed);

/// One patch of a jit_patch module.
struct PatchOp {
  uint32_t Offset = 0;
  std::vector<uint8_t> Bytes;
  bool Attack = false; ///< must reject
  bool Revert = false; ///< restores the bytes the previous attack replaced
};

/// The patch sequence of module \p Module over \p Image (whose bytes are
/// the module's starting state). Reverts carry the original bytes, so a
/// client applying the ops in order tracks the server's image exactly.
std::vector<PatchOp> modulePlan(uint64_t Seed, uint64_t Module,
                                const std::vector<uint8_t> &Image);

uint64_t mixSeed(uint64_t A, uint64_t B);

// --- Statistics -------------------------------------------------------------

/// Linear-interpolated quantile \p Q in [0, 1] of \p V (sorted copy).
double quantile(std::vector<double> V, double Q);
inline double median(const std::vector<double> &V) { return quantile(V, 0.5); }

/// Highest of p90/p99/p999 with at least ten samples beyond it; 0 when
/// there are fewer than forty samples (returns the chosen label too).
double tailPercentile(const std::vector<double> &V, std::string *Label);

// --- Clock, /proc -----------------------------------------------------------

int64_t nowNs();

/// Sum over the threads of \p Pid of on-CPU nanoseconds
/// (/proc/<pid>/task/*/schedstat).
int64_t processCpuNs(pid_t Pid);
/// Sum over the threads of \p Pid of voluntary context switches.
int64_t processVoluntarySwitches(pid_t Pid);
/// Threads of \p Pid.
unsigned processThreads(pid_t Pid);
/// VmHWM of \p Pid in KiB.
int64_t processHwmKiB(pid_t Pid);

// --- Served process and client ---------------------------------------------

/// A `validator_cli --serve --socket` child. Its stdout and stderr go to
/// \p LogPath. The destructor kills and reaps it if still running, so
/// every exit path (a protocol failure throws) leaves no child behind.
class Server {
public:
  Server(const std::string &Bin, const std::string &Socket,
         const std::string &LogPath);
  ~Server();
  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  pid_t pid() const { return Pid; }
  int64_t startNs() const { return StartNs; }

  /// Connects, retrying until the socket is up (throws after a timeout
  /// or when the child died).
  int connectRetry();
  /// Sends Shutdown over a fresh connection and reaps the child.
  void shutdown();

private:
  void reap(bool Kill);

  std::string Socket;
  pid_t Pid = -1;
  int64_t StartNs = 0;
};

/// A blocking single-connection RSVC client.
class Client {
public:
  explicit Client(int Fd) : Fd(Fd) {}
  ~Client();
  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;

  /// Writes a pre-encoded request frame and reads one response frame;
  /// throws on an ErrorResponse or a response of another kind.
  svc::proto::Frame roundTrip(const std::vector<uint8_t> &Request,
                              svc::proto::MsgKind Want);

private:
  void readSome();

  int Fd;
  std::vector<uint8_t> Buf;
  size_t Pos = 0;
};

std::vector<uint8_t> frame(svc::proto::MsgKind Kind,
                           const std::vector<uint8_t> &Body);

// --- Result line ------------------------------------------------------------

struct Metric {
  double Value = 0;
  std::string Unit;
};

/// Prints the run's result object as one JSON line on stdout.
void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::map<std::string, Metric> &Metrics);

/// Thrown on a protocol failure, which ends the run: it counts as one
/// failed operation and the run reports correct=false.
struct CheckFailure {
  std::string What;
};

/// Operations attempted by a run, and those whose output check failed.
struct Tally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Counts a failed check when \p Ok is false (printing the first few
  /// to stderr); the run goes on.
  void check(bool Ok, const char *What);
};

// --- Entry points -----------------------------------------------------------

struct RunArgs {
  Workload W = Workload::VerifySmall;
  uint64_t Seed = 1;
  double Seconds = 10;
  std::string ServerBin; ///< validator_cli
  std::string SelfBin;   ///< this binary (for cold-setup children)
  std::string RunDir;    ///< sockets and logs
};

/// The generated inputs of one run.
struct Pools {
  std::vector<Image> Small, Large, Lint, Open;
};

/// Generates the pools \p W needs (every pool when \p All).
Pools makePools(uint64_t Seed, bool All, Workload W);

/// What one served phase measured.
struct ServedResult {
  std::vector<double> LatMs;  ///< main-request latencies
  std::vector<double> OpenMs; ///< image-open latencies
  std::vector<double> Rate;   ///< per-window main requests per second
  std::vector<double> CpuMs;  ///< per-window server CPU ms per request
  double HwmMiB = 0;          ///< server VmHWM after the main phase
  unsigned ServerThreads = 0;
};

/// Serves \p W for \p Seconds on a fresh server, in two halves with
/// \p Midpoint (when set) run between them, then (for the workloads that
/// open no images) the image-open probe. Counts its operations and
/// failed checks in \p T.
ServedResult serveWorkload(const RunArgs &A, Workload W, double Seconds,
                           const Pools &P, const std::string &Log, Tally &T,
                           const std::function<void()> &Midpoint = {});

/// \p Count cold starts: seconds from fork/exec of the server to the
/// verdict on \p Probe.
std::vector<double> coldStarts(const RunArgs &A, const Image &Probe,
                               unsigned Count, const std::string &Log,
                               Tally &T);

int runServed(const RunArgs &A);
int runTrace(const RunArgs &A);
int runColdSetup();

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
