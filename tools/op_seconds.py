"""Seconds per benchmark op, run in-process for several passes.

For each workload of perfbench/workloads.py, sets its inputs up once in a
temporary directory, runs its ops in this process for N passes through
the benchmark's own ``invoke``, and prints each op's minimum and median
seconds and, over the passes, the minimum and median of each pass's
longest op.  The benchmark's speed sampler takes one sample per
``PERIOD_S`` seconds (``perfbench/speed.py``, read from there) and fails a
pass in which every op ends before its first sample, so the minimum
longest op is the headroom a faster program leaves it, and a pass whose
longest op is under ``PERIOD_S`` is one the benchmark could not time.
A benchmark run stops at its first such pass, so a rate too small to show
in a few dozen passes still fails some runs; the count of near misses,
passes whose longest op ends less than ``NEAR_MISS_S`` after ``PERIOD_S``,
shows how close the workload is.  Nothing under perfbench/ is changed.

Usage:
    python tools/op_seconds.py [--passes N] [--seed S] [WORKLOAD ...]

WORKLOAD defaults to every workload.  The exit code is 1 when an op
failed (wrong exit code or an exception), else 0.
"""
from __future__ import annotations

import argparse
import gc
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: How soon after the sampler's period a pass's longest op may end and
#: still count as a near miss.
NEAR_MISS_S = 0.010


def summarize(names: list[str], passes: list[list[float]], period: float) -> list[str]:
    """The report lines for one workload: passes[p][i] is op i's seconds
    in pass p, and period is the speed sampler's PERIOD_S."""
    lines = [f"  {'op':32s} {'min_s':>8s} {'median_s':>9s}"]
    for i, name in enumerate(names):
        times = [p[i] for p in passes]
        lines.append(f"  {name:32s} {min(times):8.3f} {statistics.median(times):9.3f}")
    longest = [max(p) for p in passes]
    lines.append(
        f"  longest op per pass: min {min(longest):.3f} s, median {statistics.median(longest):.3f} s"
    )
    untimed = sum(t < period for t in longest)
    lines.append(
        f"  passes the benchmark could not time: {untimed} of {len(passes)}"
        f" (every op under {period * 1000:g} ms)"
    )
    near = sum(period <= t < period + NEAR_MISS_S for t in longest)
    lines.append(
        f"  near misses: {near} of {len(passes)}"
        f" (longest op in {period * 1000:g}..{(period + NEAR_MISS_S) * 1000:g} ms)"
    )
    return lines


def main(argv: list[str] | None = None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import run  # sets one thread everywhere, as the benchmark does
    import workloads
    from speed import PERIOD_S

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--passes", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("workload", nargs="*", help=f"any of {', '.join(run.WORKLOAD_NAMES)}")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    unknown = sorted(set(args.workload) - set(run.WORKLOAD_NAMES))
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(unknown)}")
    failed = False
    for name in args.workload or run.WORKLOAD_NAMES:
        with tempfile.TemporaryDirectory() as work:
            inputs = workloads.WORKLOADS[name].setup(Path(work), args.seed)
            ops = inputs["ops"]
            passes = []
            for _ in range(args.passes):
                gc.collect()  # as the benchmark does before each pass
                results = [workloads.invoke(op) for op in ops]
                for res in results:
                    for problem in res.problems():
                        print(problem, file=sys.stderr)
                        failed = True
                passes.append([res.seconds for res in results])
        print(f"{name} (seed {args.seed}, {args.passes} passes)")
        print("\n".join(summarize([op.name for op in ops], passes, PERIOD_S)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
