#!/usr/bin/env python3
"""RSVC benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. The first run configures and builds
perfbench/CMakeLists.txt (the library, `validator_cli` and the benchmark
client) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when
the variable is unset. With --trace 0 the run serves the workload over a
Unix socket and prints the end-to-end metrics; with --trace 1 it times
each layer's public functions on the same inputs and prints the
per-layer metrics. Lines before the last describe the host and the run;
the last line is the result object. See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("verify_small", "verify_large", "jit_patch", "lint_large")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir(root):
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(root, base, "perfbench")


def build(root):
    """Configures (once) and builds; returns the build directory."""
    bdir = build_dir(root)
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                          "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1),
                      "--target", "perfbench", "validator_cli"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (full log: %s)" % log_path, 3)
    return bdir


def cpu_times():
    """(steal, total) jiffies over all CPUs, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice]:
    # guest time is already counted in user/nice.
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def build_type(bdir):
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for need in ("src/CMakeLists.txt", "examples/validator_cli.cpp",
                 "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, need)):
            fail(f"{need} not found: run from the root of a source tree")

    bdir = build(root)
    rundir = os.path.join(bdir, "run")
    os.makedirs(rundir, exist_ok=True)
    # Sockets are named relative to the root: a deep checkout path would
    # not fit in sun_path.
    rel_rundir = os.path.relpath(rundir, root)
    cmd = [os.path.join(bdir, "perfbench"), "trace" if args.trace else "e2e",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--server", os.path.join(bdir, "validator_cli"),
           "--rundir", rel_rundir]

    load = open("/proc/loadavg").read().split()[0]
    steal0, total0 = cpu_times()
    t0 = time.monotonic()
    # A session of its own, so a timeout can stop the client and every
    # server it started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("run timed out", 4)
    wall = time.monotonic() - t0
    steal1, total1 = cpu_times()

    lines = out.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    for line in lines[:-1] if result is not None else lines:
        print(line)
    steal = (steal1 - steal0) / max(1, total1 - total0)
    print(f"host: nproc {os.cpu_count()}, cpu {cpu_model()}, "
          f"build {build_type(bdir)}, load {load}, "
          f"steal {steal:.4f} of all CPU time during the run, "
          f"wall {wall:.1f} s")
    if result is None:
        fail(f"no result (exit code {proc.returncode})", proc.returncode or 5)
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
