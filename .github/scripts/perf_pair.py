#!/usr/bin/env python3
"""Same-machine perfbench gate: a change's head commit against its base.

Runs two perfbench binaries, one built from each commit, on one
workload in alternating pairs: both runs of a pair use the same seed,
and the side that runs first alternates from pair to pair. Every run's
result line (the last line perfbench prints on stdout) is appended to a
ledger together with its commit, side, workload and seed.

Exits 1 when any run reports `"correct": false` or a failed operation,
on either side, or when the head's median of an end-to-end metric in
BENCHMARK.json is worse than the base's median by more than that
metric's bound. Without `--base` the head runs alone and only
correctness is checked. Run length is BENCHMARK.json's `run_seconds`.

    perf_pair.py --self-test
    perf_pair.py --workload cc_mix_256 --pairs 5 --ledger BENCH_LEDGER.delta.jsonl \\
        --head HEAD_SHA HEAD_BIN [--base BASE_SHA BASE_BIN]
"""

import argparse
import json
import math
import pathlib
import statistics
import subprocess
import sys

BENCHMARK = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def run_once(binary, workload, seed, seconds):
    """One untraced perfbench run; returns its result object."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def judge(lines, bench):
    """Everything wrong with one workload's ledger lines; empty means pass."""
    problems = [
        f"{l['side']} seed {l['seed']}: correct={l['correct']} failed={l['failed']}"
        for l in lines if l["correct"] is not True or l["failed"] > 0
    ]
    by_side = {s: [l for l in lines if l["side"] == s] for s in ("base", "head")}
    if not by_side["head"]:
        problems.append("no head runs")
    if not by_side["base"] or not by_side["head"]:
        return problems
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        try:
            base, head = (statistics.median(l["metrics"][name]["value"] for l in by_side[s])
                          for s in ("base", "head"))
        except KeyError:
            problems.append(f"{name}: missing from a result line")
            continue
        delta = head - base if metric["better"] == "lower" else base - head
        worse = delta / abs(base) if base else (math.inf if delta > 0 else 0.0)
        print(f"perf_pair: {name}: base median {base:.6g}, head median {head:.6g}, "
              f"{worse:+.1%} worse (bound {bound:.0%})")
        if worse > bound:
            problems.append(f"{name}: head median {head:.6g} is {worse:+.1%} worse than "
                            f"base median {base:.6g} (bound {bound:.0%})")
    return problems


def self_test(bench):
    """Show on synthetic lines that the gate passes and fails as it should."""
    def line(side, wall_rel=1.0, correct=True, failed=0):
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in bench["end_to_end"]}
        metrics["wall_rel"]["value"] = wall_rel
        return {"commit": side, "side": side, "workload": "synthetic", "seed": 1,
                "correct": correct, "attempted": 10, "failed": failed, "metrics": metrics}

    good = [line(side) for _ in range(5) for side in ("base", "head")]
    cases = [
        ("equal medians", good, 0),
        ("head wall_rel 1.3x base", [line("base")] * 5 + [line("head", 1.3)] * 5, 1),
        ("head correct false", good[:-1] + [line("head", correct=False)], 1),
        ("base correct false", [line("base", correct=False)] + good[1:], 1),
        ("head failed > 0", good[:-1] + [line("head", failed=1)], 1),
        ("base failed > 0", [line("base", failed=1)] + good[1:], 1),
        ("head alone, correct", [line("head")], 0),
        ("head alone, failed > 0", [line("head", failed=1)], 1),
    ]
    wrong = 0
    for name, lines, want in cases:
        got = 1 if judge(lines, bench) else 0
        print(f"perf_pair self-test: {name}: exit {got} (want {want})")
        wrong += got != want
    return 1 if wrong else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int, default=1)
    parser.add_argument("--ledger")
    parser.add_argument("--head", nargs=2, metavar=("SHA", "BIN"))
    parser.add_argument("--base", nargs=2, metavar=("SHA", "BIN"))
    args = parser.parse_args()
    bench = json.loads(BENCHMARK.read_text())
    if args.self_test:
        return self_test(bench)
    if not (args.workload and args.ledger and args.head) or args.pairs < 1:
        parser.error("--workload, --ledger and --head are required, and --pairs must be >= 1")

    sides = [("head", *args.head)]
    if args.base:
        sides.insert(0, ("base", *args.base))
    lines = []
    with open(args.ledger, "a") as ledger:
        for i in range(args.pairs):
            seed = i + 1
            for side, commit, binary in sides if i % 2 == 0 else sides[::-1]:
                result = run_once(binary, args.workload, seed, bench["run_seconds"])
                line = {"commit": commit, "side": side, "workload": args.workload,
                        "seed": seed, **result}
                ledger.write(json.dumps(line) + "\n")
                ledger.flush()
                lines.append(line)
    problems = judge(lines, bench)
    for p in problems:
        print(f"perf_pair: FAIL {args.workload}: {p}")
    if not problems:
        print(f"perf_pair: ok {args.workload}: {len(lines)} runs")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
