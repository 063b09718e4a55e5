#!/usr/bin/env python3
"""Same-machine perfbench gate: a change's head commit against its base.

Runs two perfbench binaries, one built from each commit, on one
workload in alternating pairs: both runs of a pair use the same seed,
and the side that runs first alternates from pair to pair. Every run's
result line (the last line perfbench prints on stdout) is appended to a
ledger together with its commit, side, workload and seed.

Each ledger line also carries the run's output digest, which perfbench
prints on stderr. Exits 1 when any run reports `"correct": false` or a
failed operation, on either side, when the head's and the base's
digests differ for the same seed (the change altered simulated
results), or when the head's median of an end-to-end metric in
BENCHMARK.json is worse than the base's median by more than that
metric's bound. Without `--base` the head runs alone and only
correctness is checked. Run length is BENCHMARK.json's `run_seconds`.
For each end-to-end metric it also prints both sides' quartiles
[q1, q3] and how many same-seed pairs the head won.

    perf_pair.py --self-test
    perf_pair.py --workload cc_mix_256 --pairs 5 --ledger BENCH_LEDGER.delta.jsonl \\
        --head HEAD_SHA HEAD_BIN [--base BASE_SHA BASE_BIN]
"""

import argparse
import json
import math
import pathlib
import re
import statistics
import subprocess
import sys

BENCHMARK = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"
DIGEST = re.compile(r"^perfbench: digest (\S+) seed (\d+): ([0-9a-f]+)$", re.M)


def run_once(binary, workload, seed, seconds):
    """One untraced perfbench run; returns its result object, with the
    output digest from its stderr (None if it printed none)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, check=True)
    sys.stderr.write(proc.stderr)
    result = json.loads(proc.stdout.splitlines()[-1])
    digest = next((m.group(3) for m in DIGEST.finditer(proc.stderr)
                   if (m.group(1), m.group(2)) == (workload, str(seed))), None)
    return {**result, "digest": digest}


def quartiles(values):
    """(q1, median, q3) of values, by linear interpolation between runs."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(lines, metric):
    """Quartiles of one metric on each side, and the same-seed pairs
    the head won (strictly better) out of all pairs."""
    name, lower = metric["name"], metric["better"] == "lower"
    sides = {side: [l for l in lines if l["side"] == side] for side in ("base", "head")}
    value = {(l["side"], l["seed"]): l["metrics"][name]["value"] for l in lines}
    pairs = {l["seed"] for l in sides["base"]} & {l["seed"] for l in sides["head"]}
    won = sum((value["head", s] < value["base", s]) if lower else
              (value["head", s] > value["base", s]) for s in pairs)
    return {**{side: quartiles([l["metrics"][name]["value"] for l in side_lines])
               for side, side_lines in sides.items()},
            "won": won, "pairs": len(pairs)}


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
    for seed in sorted({l["seed"] for l in lines}):
        digests = {(l["side"], l.get("digest")) for l in lines if l["seed"] == seed}
        if any(d is None for _, d in digests):
            problems.append(f"seed {seed}: a run printed no output digest")
        elif len({d for _, d in digests}) > 1:
            problems.append(f"seed {seed}: output digests differ: "
                            + ", ".join(f"{s} {d}" for s, d in sorted(digests)))
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        try:
            summary = summarize(lines, metric)
        except KeyError:
            problems.append(f"{name}: missing from a result line")
            continue
        (b1, base, b3), (h1, head, h3) = summary["base"], summary["head"]
        delta = head - base if metric["better"] == "lower" else base - head
        worse = delta / abs(base) if base else (math.inf if delta > 0 else 0.0)
        print(f"perf_pair: {name}: base median {base:.6g} [{b1:.6g}, {b3:.6g}], "
              f"head median {head:.6g} [{h1:.6g}, {h3:.6g}], {worse:+.1%} worse "
              f"(bound {bound:.0%}); head won {summary['won']}/{summary['pairs']} pairs")
        if worse > bound:
            problems.append(f"{name}: head median {head:.6g} is {worse:+.1%} worse than "
                            f"base median {base:.6g} (bound {bound:.0%})")
    return problems


def self_test(bench):
    """Show on synthetic lines that the gate passes and fails as it should."""
    def line(side, wall_rel=1.0, correct=True, failed=0, digest="00c0ffee", seed=1):
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in bench["end_to_end"]}
        metrics["wall_rel"]["value"] = wall_rel
        return {"commit": side, "side": side, "workload": "synthetic", "seed": seed,
                "correct": correct, "attempted": 10, "failed": failed, "metrics": metrics,
                "digest": digest}

    good = [line(side) for _ in range(5) for side in ("base", "head")]
    cases = [
        ("equal medians", good, 0),
        ("head wall_rel 1.3x base", [line("base")] * 5 + [line("head", 1.3)] * 5, 1),
        ("head correct false", good[:-1] + [line("head", correct=False)], 1),
        ("base correct false", [line("base", correct=False)] + good[1:], 1),
        ("head failed > 0", good[:-1] + [line("head", failed=1)], 1),
        ("base failed > 0", [line("base", failed=1)] + good[1:], 1),
        ("digest differs", good[:-1] + [line("head", digest="0badf00d")], 1),
        ("digest missing", good[:-1] + [line("head", digest=None)], 1),
        ("head alone, correct", [line("head")], 0),
        ("head alone, failed > 0", [line("head", failed=1)], 1),
    ]
    wrong = 0
    for name, lines, want in cases:
        got = 1 if judge(lines, bench) else 0
        print(f"perf_pair self-test: {name}: exit {got} (want {want})")
        wrong += got != want

    # Five seeds: the head wins on seeds 1-3, ties on 4 and loses on 5.
    base = [10.0, 20.0, 30.0, 40.0, 50.0]
    head = [5.0, 15.0, 25.0, 40.0, 60.0]
    paired = [line(side, v, seed=seed) for seed, b, h in zip(range(1, 6), base, head)
              for side, v in (("base", b), ("head", h))]
    wall_rel = next(m for m in bench["end_to_end"] if m["name"] == "wall_rel")
    got = summarize(paired, wall_rel)
    want = {"base": (20.0, 30.0, 40.0), "head": (15.0, 25.0, 40.0), "won": 3, "pairs": 5}
    print(f"perf_pair self-test: summary: {got} (want {want})")
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
