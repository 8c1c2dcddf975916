//===- perfbench/src/main.cpp - RSVC benchmark entry point ----------------===//
///
/// \file
/// Usage:
///   perfbench e2e   --workload W --seed N --seconds S --server BIN --rundir D
///   perfbench trace --workload W --seed N --seconds S --server BIN --rundir D
///   perfbench cold-setup
///
/// perfbench/run.py builds this binary and calls it; the last stdout line
/// of e2e and trace is the run's result object.
///
//===----------------------------------------------------------------------===//

#include "bench.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <sched.h>
#include <string>

using namespace perfbench;

/// Pins this process, and so every server and child it starts, to the
/// highest-numbered CPU it may run on. A closed loop with one request in
/// flight has nothing to run in parallel, and on one CPU its hand-offs
/// (client -> event loop -> pool worker -> client) are local context
/// switches instead of cross-CPU wake-ups of idle virtual CPUs, whose
/// latency follows the host's steal. Returns the CPU.
static int pinToOneCpu() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) != 0)
    return -1;
  int Cpu = -1;
  for (int C = 0; C < CPU_SETSIZE; ++C)
    if (CPU_ISSET(C, &Set))
      Cpu = C;
  cpu_set_t One;
  CPU_ZERO(&One);
  CPU_SET(Cpu, &One);
  return sched_setaffinity(0, sizeof(One), &One) == 0 ? Cpu : -1;
}

static int usage() {
  std::fprintf(stderr,
               "usage: perfbench e2e|trace --workload W --seed N --seconds S "
               "--server BIN --rundir DIR\n"
               "       perfbench cold-setup\n");
  return 2;
}

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  const std::string Mode = Argv[1];
  RunArgs A;
  A.SelfBin = Argv[0];
  bool HaveWorkload = false;
  for (int I = 2; I + 1 < Argc; I += 2) {
    const std::string Flag = Argv[I];
    const char *Val = Argv[I + 1];
    if (Flag == "--workload") {
      if (!parseWorkload(Val, &A.W))
        return usage();
      HaveWorkload = true;
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(Val, nullptr, 10);
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(Val, nullptr);
    } else if (Flag == "--server") {
      A.ServerBin = Val;
    } else if (Flag == "--rundir") {
      A.RunDir = Val;
    } else {
      return usage();
    }
  }
  try {
    if (Mode == "cold-setup")
      return runColdSetup();
    if (!HaveWorkload || A.ServerBin.empty() || A.RunDir.empty() ||
        !(A.Seconds > 0))
      return usage();
    std::printf("info: pinned to cpu %d\n", pinToOneCpu());
    if (Mode == "e2e")
      return runServed(A);
    if (Mode == "trace")
      return runTrace(A);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    return 2;
  }
  return usage();
}
