#!/usr/bin/env python3
"""Run the benchmark of two checkouts in alternated pairs and compare them.

Usage:
    python3 scripts/ab_bench.py PARENT_ROOT CHANGE_ROOT --workload W
                                [--pairs 10] [--seconds 8] [--seed 1]

PARENT_ROOT and CHANGE_ROOT are checkouts, each with its own
`perfbench/run.py` and `src`, for example a `git archive` of the parent
commit and this checkout.  A pair runs each checkout's benchmark once,
untraced (`perfbench/run.py --workload W --seed N --seconds S --trace 0`),
one process at a time; the parent goes first in odd pairs and the change
in even ones, so that a drift of the host's speed falls on both sides
alike.  Each run's result is the JSON object on the last line of its
standard output.

Refuses, with exit 2, a checkout whose `src/momentct` holds a
`__pycache__`: its imports would skip compiling the package, which makes
that side's `setup_s` read lower with no set-up code changed.

Prints every pair's end-to-end metrics (named, with their direction, by
this checkout's `BENCHMARK.json`), then per metric the pairs each side won
(a tie wins neither) and each side's median and quartiles over the pairs.
Exits 1 if a run fails or reports a failed pipeline call, 2 on a refused
checkout, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def end_to_end() -> list:
    """(name, better) of each end-to-end metric, in `BENCHMARK.json`'s order."""
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    return [(m["name"], m["better"]) for m in spec["end_to_end"]]


def bench(root: Path, args) -> dict:
    """One untraced benchmark run of the checkout at root: its last JSON line."""
    command = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True,
                          timeout=10 * args.seconds + 600)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{root}: perfbench exited {done.returncode}\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: list) -> tuple:
    """q1, median, q3 of values, inclusive of the ends."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summary(pairs: list, metrics: list) -> list:
    """The summary lines of pairs, each a {side: {metric: value}} dict."""
    lines = []
    for name, better in metrics:
        sign = 1 if better == "lower" else -1
        diffs = [sign * (pair["change"][name] - pair["parent"][name]) for pair in pairs]
        lines.append(f"{name} ({better} is better): change won {sum(d < 0 for d in diffs)}, "
                     f"parent won {sum(d > 0 for d in diffs)} of {len(pairs)} pairs")
        for side in SIDES:
            q1, median, q3 = quartiles([pair[side][name] for pair in pairs])
            lines.append(f"  {side}: median {median:.6g}, q1 {q1:.6g}, q3 {q3:.6g}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_root", type=Path)
    parser.add_argument("change_root", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0:
        parser.error("--pairs must be at least 1 and --seconds positive")
    roots = {"parent": args.parent_root.resolve(), "change": args.change_root.resolve()}
    for root in roots.values():
        cache = root / "src" / "momentct" / "__pycache__"
        if cache.exists():
            print(f"error: {cache} exists; remove it, or the checkout's set-up is timed "
                  "without compiling the package", file=sys.stderr)
            return 2

    metrics = end_to_end()
    names = [name for name, _ in metrics]
    print(f"{args.workload} seed {args.seed}: {args.pairs} pairs of {args.seconds:g} s runs")
    print("pair side   " + " ".join(f"{name:>12}" for name in names) + "  failed")
    pairs, failed = [], 0
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {}
        for side in order:
            record = bench(roots[side], args)
            failed += record["failed"]
            pair[side] = {name: record["metrics"][name]["value"] for name in names}
            print(f"{i + 1:>4} {side} " + " ".join(f"{pair[side][name]:>12.6g}" for name in names)
                  + f"  {record['failed']}/{record['attempted']}", flush=True)
        pairs.append(pair)
    print("\n".join(summary(pairs, metrics)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
