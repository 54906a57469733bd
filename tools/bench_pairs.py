"""Run the benchmark on two checkouts in alternating pairs and compare them.

Pair i runs ``perfbench/run.py --workload W --seed S+i --seconds T
--trace 0`` in both checkouts, one after the other, each from its own
directory; even pairs run the parent first and odd pairs the change
first.  The script prints one row per pair, then, for every end-to-end
metric of BENCHMARK.json (name, direction and bound read from there), each
side's median and quartiles and whether the change stays within the
metric's bound.  Last comes the verdict for one named metric: a gain is
shown when the change wins at least nine tenths of the pairs run (a
pair with a run that printed no result counts as no win), ties counting
for neither, and the medians differ, in the metric's better
direction, by more than the distance between the parent's quartiles.
Before the verdict, the named metric's median change-minus-parent delta
is printed twice: over the pairs that ran the parent first and over those
that ran the change first.  The run that goes second can be the slower
one whichever side it is, and alternation cancels that only when both
orders count the same number of pairs; the verdict line says when they
do not.

Usage:
    python tools/bench_pairs.py --parent DIR --change DIR --workload W
        [--pairs N] [--seed S] [--seconds T] [--metric NAME]

The exit code is 1 when any run printed no result line (a crash, such as
the speed sampler's) or reported an incorrect output or a failed
operation, else 0; the verdict does not change it.  Nothing under
perfbench/ is changed, and BENCHMARK.json is only read.

setup_s includes a fresh interpreter's import of the package, which a
bytecode cache shortens.  So every run has PYTHONDONTWRITEBYTECODE=1, and
the script exits 2 before the first pair when either checkout already
holds a __pycache__ under src/: Python reads a cache that exists whatever
that variable says.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def result_of(stdout: str) -> dict | None:
    """The result record a run printed as its last line, or None when
    the run printed none."""
    lines = stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None
    return record if isinstance(record, dict) and "metrics" in record else None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _better(metric: dict, change: float, parent: float) -> bool:
    return change < parent if metric["better"] == "lower" else change > parent


def _relative(change: float, parent: float) -> float:
    if parent:
        return (change - parent) / abs(parent)
    return 0.0 if change == parent else math.copysign(math.inf, change - parent)


def _fmt(value: float) -> str:
    return f"{value:.0f}" if float(value).is_integer() else f"{value:.6g}"


def summarize(
    pairs: list[tuple[dict, dict]],
    end_to_end: list[dict],
    claim: str,
    runs: int | None = None,
    parent_first: list[bool] | None = None,
) -> tuple[list[str], bool]:
    """The summary lines for pairs of (parent, change) result records, and
    whether they show a gain on the metric named claim.

    runs is the number of pairs run, pairs only those with a result on
    both sides; a gain needs wins in nine tenths of runs, so a pair that
    lost a result counts against it.  It defaults to len(pairs).
    parent_first says, pair by pair, whether the parent ran first; it
    defaults to alternating from the parent, as main runs them.

    end_to_end is BENCHMARK.json's list of metrics, each with a name, a
    unit, the direction that is better ("lower" or "higher") and the
    relative bound by which the change's median may be worse than the
    parent's.  A metric whose runs spread wider than its bound is
    unresolved unless every change run reads better than every parent
    run."""
    runs = len(pairs) if runs is None else runs
    if parent_first is None:
        parent_first = [i % 2 == 0 for i in range(len(pairs))]
    lines, order, gain = [], [], False
    verdict = f"verdict on {claim}: not an end-to-end metric"
    for metric in end_to_end:
        name, bound = metric["name"], metric["bound"]
        parent, change = ([pair[i]["metrics"][name]["value"] for pair in pairs] for i in (0, 1))
        (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(parent), quartiles(change)
        rel = _relative(cmed, pmed)
        worse = rel if metric["better"] == "lower" else -rel
        # The wider of the two sides' IQRs, relative to the parent's median.
        spread = _relative(pmed + max(pq3 - pq1, cq3 - cq1), pmed)
        if worse > bound:
            status = "WORSE beyond its bound"
        elif spread > bound and not all(_better(metric, c, p) for c in change for p in parent):
            status = f"unresolved: the runs spread {spread:.0%}, wider than its bound"
        else:
            status = "within its bound"
        lines.append(
            f"  {name} ({metric['unit']}, {metric['better']} is better, bound {bound:.0%}):"
            f" parent {_fmt(pmed)} [{_fmt(pq1)}, {_fmt(pq3)}],"
            f" change {_fmt(cmed)} [{_fmt(cq1)}, {_fmt(cq3)}], {rel:+.1%}: {status}"
        )
        if name == claim:
            wins = sum(_better(metric, c, p) for p, c in zip(parent, change))
            gap = pmed - cmed if metric["better"] == "lower" else cmed - pmed
            gain = 10 * wins >= 9 * runs and gap > pq3 - pq1
            verdict = (
                f"verdict on {name}: the change is better in {wins} of {runs} pairs run"
                f" (needs 9 in 10), and its median is better by {_fmt(gap)} {metric['unit']}"
                f" against the parent's IQR of {_fmt(pq3 - pq1)}: gain {'shown' if gain else 'NOT shown'}"
            )
            by_order = {
                first: [c - p for p, c, f in zip(parent, change, parent_first) if f == first]
                for first in (True, False)
            }
            medians = [
                f"{_fmt(statistics.median(deltas))} {metric['unit']}" if deltas else "none"
                for deltas in by_order.values()
            ]
            order.append(
                f"  {name} change - parent by run order: median {medians[0]} over"
                f" {len(by_order[True])} parent-first pairs, {medians[1]} over"
                f" {len(by_order[False])} change-first pairs"
            )
            if len(by_order[True]) != len(by_order[False]):
                verdict += (
                    f"; {len(by_order[True])} parent-first against {len(by_order[False])}"
                    " change-first pairs, so the run-order effect is not cancelled"
                )
    return lines + order + [verdict], gain


def _run(checkout: Path, workload: str, seed: int, seconds: int) -> tuple[dict | None, str]:
    try:
        child = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=checkout, capture_output=True, text=True, timeout=900,
            env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        )
    except subprocess.TimeoutExpired:
        return None, "timed out after 900 s"
    return result_of(child.stdout), child.stderr


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair; pair i runs seed+i")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--metric", default="wall_s", help="the metric whose gain is judged")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    end_to_end = benchmark["end_to_end"]
    if args.metric not in {m["name"] for m in end_to_end}:
        parser.error(f"--metric must name an end-to-end metric of BENCHMARK.json, got {args.metric!r}")
    checkouts = dict(zip(SIDES, (args.parent.resolve(), args.change.resolve())))
    for side, checkout in checkouts.items():
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"--{side} {checkout} holds no perfbench/run.py")
        cache = next((checkout / "src").rglob("__pycache__"), None)
        if cache is not None:
            parser.error(f"--{side} {checkout} holds a bytecode cache, {cache}; delete it first")

    pairs, parent_first, broken = [], [], False
    print(f"{args.workload}: {args.pairs} pairs, --seconds {args.seconds}, seeds from {args.seed}")
    for i in range(args.pairs):
        seed = args.seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        results = {}
        for side in order:
            results[side], stderr = _run(checkouts[side], args.workload, seed, args.seconds)
            record = results[side]
            if record is None or not record.get("correct") or record.get("failed"):
                broken = True
                print(f"  pair {i} seed {seed}: the {side} run failed:\n{stderr}", file=sys.stderr)
        if any(results[side] is None for side in SIDES):
            missing = ", ".join(side for side in SIDES if results[side] is None)
            print(f"  pair {i:2d} seed {seed}: no result from the {missing} run")
            continue
        parent, change = results["parent"], results["change"]
        claimed = [r["metrics"][args.metric]["value"] for r in (parent, change)]
        print(f"  pair {i:2d} seed {seed} ({order[0]} first): {args.metric}"
              f" {claimed[0]:.6g} -> {claimed[1]:.6g},"
              f" failed ops {parent['failed']}/{parent['attempted']} -> {change['failed']}/{change['attempted']}")
        pairs.append((parent, change))
        parent_first.append(order[0] == "parent")
    if pairs:
        lines, _ = summarize(pairs, end_to_end, args.metric, args.pairs, parent_first)
        print("\n".join(lines))
    return 1 if broken or not pairs else 0


if __name__ == "__main__":
    sys.exit(main())
