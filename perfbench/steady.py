#!/usr/bin/env python3
"""Steadiness check of the RSVC benchmark.

    python3 perfbench/steady.py [--runs 10] [--seconds 10]
                                [--workloads verify_small,jit_patch]

Runs two interleaved sets, A and B, of `--runs` end-to-end runs of one
build (A uses seeds 1, 2, ..., B seeds 1001, 1002, ...; the order of the
sets alternates from one round to the next). For each workload and
end-to-end metric it prints each set's median and quartiles, the spread
(interquartile distance over the median), and whether the sets agree
within the metric's bound from BENCHMARK.json: each set's spread within
the bound, and the two medians within the bound of each other, measured
either way round. It also checks that every run's output was correct and
that the share of failed operations is identical in every run. Raw
values go to <build dir>/steady-<unix time>.json. Exits 1 when a check
fails. Run it from the root of a source tree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    # Exit code 1 is a run whose outputs were wrong: it still has a result.
    if p.returncode not in (0, 1) or not lines:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"run failed: {' '.join(cmd)}")
    if p.returncode:
        sys.stderr.write(p.stderr)
    host = next((l for l in lines if l.startswith("host:")), "")
    return json.loads(lines[-1]), host


SETS = ("A", "B")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--workloads", default=None)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    metrics = spec["end_to_end"]

    # values[w][set][metric] -> list over the set's runs
    values = {w: {s: {m["name"]: [] for m in metrics} for s in SETS}
              for w in workloads}
    shares = {w: set() for w in workloads}  # failed / attempted, every run
    incorrect = []
    hosts = []
    for i in range(args.runs):
        for s in (SETS if i % 2 == 0 else SETS[::-1]):
            for w in workloads:
                seed = 1000 * SETS.index(s) + i + 1
                res, host = run_once(w, seed, seconds)
                hosts.append(f"{w} set {s} seed {seed}: {host}")
                if not res["correct"]:
                    incorrect.append(f"{w} seed {seed}")
                shares[w].add(res["failed"] / res["attempted"])
                for m in metrics:
                    got = res["metrics"].get(m["name"])
                    if got is not None:
                        values[w][s][m["name"]].append(got["value"])
                print(f"run {i + 1}/{args.runs} set {s} {w} seed {seed} done",
                      file=sys.stderr, flush=True)

    ok = not incorrect
    print(f"{'workload':13} {'metric':22} {'set':>3} {'q1':>12} {'median':>12}"
          f" {'q3':>12} {'spread':>7} {'bound':>6}  verdict")
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            med = {}
            for s in SETS:
                vals = values[w][s][name]
                if not vals:
                    ok = False
                    print(f"{w:13} {name:22} {s:>3}  FAIL no values")
                    continue
                q1, med[s], q3 = quartiles(vals)
                spread = (q3 - q1) / med[s] if med[s] else float("inf")
                bad = spread > bound
                ok &= not bad
                print(f"{w:13} {name:22} {s:>3} {q1:12.6g} {med[s]:12.6g}"
                      f" {q3:12.6g} {spread:7.3f} {bound:6.2f}  "
                      f"{'FAIL spread over bound' if bad else 'ok'}")
            if len(med) == 2 and med["A"] and med["B"]:
                # Identical code: a large shift either way is disagreement.
                shift = max(abs(med["B"] / med["A"] - 1),
                            abs(med["A"] / med["B"] - 1))
                bad = shift > bound
                ok &= not bad
                print(f"{w:13} {name:22} A/B medians differ by {shift:.3f}  "
                      f"{'FAIL' if bad else 'ok'}")
        if len(shares[w]) != 1:
            ok = False
            print(f"{w}: failed share differs between runs: {sorted(shares[w])}")
        else:
            print(f"{w}: failed share {next(iter(shares[w]))} in every run")
    for r in incorrect:
        print(f"incorrect output: {r}")

    out_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                           "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, f"steady-{int(time.time())}.json")
    with open(out, "w") as f:
        json.dump({"values": values, "hosts": hosts}, f, indent=1)
    print(f"raw values: {out}")
    print("steady" if ok else "NOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
