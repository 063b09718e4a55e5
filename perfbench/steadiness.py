#!/usr/bin/env python3
"""Steadiness self-check for the repository benchmark.

Runs the command in BENCHMARK.json in two sets (by default) of ten
runs per workload. Each run is a fresh process. Run i of every set uses
the same seed, so the sets differ only in timing noise. For every
end-to-end metric it prints, per set, the median and the spread (the
quartile distance as a share of the median, as
`statistics.quantiles(values, n=4)` gives them), then the gap between
the two medians as a share of the first, next to the metric's bound.

A metric passes when every set's spread is within its bound (`setup_s`
is exempt from the spread test) and the two medians differ by no more
than the bound. The gap is signed (positive means the second set was
worse), but either set could have come first, so both ways count.
`margin` is the largest of those figures over the bound; under 0.33 is
the target. Metrics that must
repeat bit for bit (`peak_heap_mb`, `paper_err_pct`) are also checked
seed by seed across the sets. The header names the machine: `nproc`
and CPU model.

    python3 perfbench/steadiness.py                      # every workload, 2 x 10 runs
    python3 perfbench/steadiness.py --sets 1 --runs 5 --workload fleet_1m
    python3 perfbench/steadiness.py --seconds 10 --seed 100

Run it from the repository root. Per-run results go to standard error.
Runs that report `"correct": false` still count towards the figures
and are listed. Exit status: 0 when every run was correct and every
metric passed, 1 otherwise.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

EXACT = ("peak_heap_mb", "paper_err_pct")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_once(bench, workload, seed, seconds):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def spread(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--seed", type=int, default=1, help="seed of each set's first run")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    seeds = [args.seed + i for i in range(args.runs)]
    print(f"machine: nproc={os.cpu_count()} cpu={cpu_model()!r}")
    print(f"sets={args.sets} runs={args.runs} seconds={seconds} seeds={seeds[0]}..{seeds[-1]}")

    # values[workload][set][metric] -> {seed: value}
    values = {w: [] for w in workloads}
    all_ok = True
    for s in range(args.sets):
        for workload in workloads:
            got = {m["name"]: {} for m in bench["end_to_end"]}
            for seed in seeds:
                result = run_once(bench, workload, seed, seconds)
                if result is None:
                    all_ok = False
                    print(f"{workload} set {s + 1} seed {seed}: run failed")
                    continue
                if not result["correct"]:
                    all_ok = False
                    print(f"{workload} set {s + 1} seed {seed}: incorrect, "
                          f"{result['failed']} of {result['attempted']} operations failed")
                for name in got:
                    got[name][seed] = result["metrics"][name]["value"]
                sys.stderr.write(f"{workload} set {s + 1} seed {seed}: {json.dumps(result['metrics'])}\n")
            values[workload].append(got)

    for workload in workloads:
        sets = values[workload]
        print(f"\n{workload}")
        head = "".join(f"{'median' + str(i + 1):>14}{'spread' + str(i + 1):>9}" for i in range(len(sets)))
        print(f"  {'metric':<16}{head}{'gap':>9}{'bound':>7}{'margin':>8}")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cols, ratios, ok = "", [], True
            medians = []
            for got in sets:
                xs = list(got[name].values())
                if len(xs) < 2:
                    cols += f"{'-':>14}{'-':>9}"
                    ok = False
                    continue
                med, spr = spread(xs)
                medians.append(med)
                cols += f"{med:>14.6g}{spr:>9.4f}"
                if name != "setup_s":
                    ratios.append(spr / bound)
            gap = float("nan")
            if len(medians) >= 2 and medians[0]:
                worse = 1 if m["better"] == "lower" else -1
                gap = worse * (medians[-1] - medians[0]) / medians[0]
                ratios.append(abs(gap) / bound)
            if name in EXACT and len(sets) >= 2:
                for seed in seeds:
                    vs = {got[name].get(seed) for got in sets}
                    if len(vs) != 1:
                        ok = False
                        print(f"  {name}: seed {seed} not repeated bit for bit: {sorted(map(str, vs))}")
            margin = max(ratios, default=0.0)
            ok = ok and margin <= 1.0
            all_ok = all_ok and ok
            print(
                f"  {name:<16}{cols}{gap:>9.4f}{bound:>7.2f}{margin:>8.2f}  "
                f"{'ok' if ok else 'FAIL'}"
            )
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
