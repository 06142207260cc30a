#!/usr/bin/env python3
"""Steadiness evidence: two alternating sets of runs of every workload.

Runs the benchmark command from BENCHMARK.json RUNS times per set for every
workload it lists, alternating which set goes first. Set A uses seeds 1, 3, 5, ...
and set B seeds 2, 4, 6, ..., so together they cover 2 x RUNS distinct seeds.
For each end-to-end metric and workload it prints each set's median and
quartiles, the spread of all runs (interquartile distance / median) and
whether the sets agree: the medians differ by at most the metric's bound and
(except for setup_s) the spread stays within the bound. It also checks that
the effort counters repeat exactly across all runs of a workload, and that
paper-quick's counters equal the warm blocks of BENCH_0007.json when that
file exists. For the durations the benchmark scales to the reference host
speed it also prints the spread of the values as measured, before scaling.
With --trace it then runs every workload once traced and prints the tracing
overhead. Exits 1 when anything disagrees.

usage: python3 perfbench/steady.py [--trace]
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
RUNS = 5


def run(workload, seed, trace=0):
    cmd = BENCH["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(BENCH["run_seconds"]),
        "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({out.returncode}):\n{out.stdout}{out.stderr}")
    counters, raw = {}, {}
    for line in lines:
        if line.startswith("counters "):
            counters = json.loads(line[len("counters "):])
        if line.startswith("as measured: "):
            words = line[len("as measured: "):].split(";")[0].split()
            raw = {k: float(v) for k, v in zip(words[::2], words[1::2])}
    result = json.loads(lines[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}, counters, raw


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2 if q2 else 0.0


def check_bench_0007(counters):
    path = ROOT / "BENCH_0007.json"
    if not path.exists():
        return True
    keys = ["points", "skipped", "barrier_iterations", "factorizations",
            "simplex_pivots", "bb_nodes"]
    diffs = [
        f"{fig['name']}.{k}: BENCH_0007 {fig[k]}, measured {counters.get(fig['name'] + '.' + k)}"
        for fig in json.loads(path.read_text())["figures"]
        for k in keys
        if counters.get(f"{fig['name']}.{k}") != fig[k]
    ]
    print("paper-quick counters vs BENCH_0007.json warm blocks:",
          "equal" if not diffs else "DIFFER")
    for d in diffs:
        print("  " + d)
    return not diffs


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", action="store_true", help="also run each workload traced")
    args = parser.parse_args()
    workloads = [w["name"] for w in BENCH["workloads"]]

    # Build once through the benchmark's own command; it then refuses the
    # unknown workload.
    subprocess.run(BENCH["command"] + ["--workload", "build-only"], cwd=ROOT,
                   capture_output=True)

    runs = {w: {"A": [], "B": []} for w in workloads}
    counters = {w: [] for w in workloads}
    raws = {w: [] for w in workloads}
    for i in range(RUNS):
        for w in workloads:
            for s in ("AB" if i % 2 == 0 else "BA"):
                seed = 2 * i + (1 if s == "A" else 2)
                metrics, c, raw = run(w, seed)
                runs[w][s].append(metrics)
                counters[w].append(c)
                raws[w].append(raw)
                print(f"run {i + 1}/{RUNS} {w} set {s} seed {seed}: "
                      + ", ".join(f"{k}={v:.6g}" for k, v in metrics.items()), flush=True)

    ok = True
    print()
    print(f"{'workload':<13} {'metric':<17} {'set A median [q1, q3]':<32} "
          f"{'set B median [q1, q3]':<32} {'spread':>7} {'bound':>6}  agree  raw spread")
    for w in workloads:
        for m in BENCH["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = [r[name] for r in runs[w]["A"]]
            b = [r[name] for r in runs[w]["B"]]
            (ma, a1, a3, _), (mb, b1, b3, _) = summary(a), summary(b)
            _, _, _, spread = summary(a + b)
            shift = abs(mb - ma) / ma if ma else 0.0
            agree = shift <= bound and (name == "setup_s" or spread <= bound)
            ok &= agree
            raw = ""
            if all(name in r for r in raws[w]):
                raw = f"{summary([r[name] for r in raws[w]])[3]:.3f}"
            print(f"{w:<13} {name:<17} {ma:>10.5g} [{a1:.5g}, {a3:.5g}]".ljust(64)
                  + f"{mb:>10.5g} [{b1:.5g}, {b3:.5g}]".ljust(33)
                  + f"{spread:>7.3f} {bound:>6}  {'yes' if agree else 'NO ':<5}  {raw}")
        same = all(c == counters[w][0] for c in counters[w])
        ok &= same
        print(f"{w:<13} effort counters identical across {len(counters[w])} runs: "
              f"{'yes' if same else 'NO'}")
    ok &= check_bench_0007(counters["paper-quick"][0])

    if args.trace:
        print()
        for w in workloads:
            layers, _, _ = run(w, 1, trace=1)
            print(f"{w:<13} trace.overhead {layers['trace.overhead']:.4f}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
