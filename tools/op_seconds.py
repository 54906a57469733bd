"""Seconds per benchmark op, run in-process for several passes.

For each workload of perfbench/workloads.py, sets its inputs up once in a
temporary directory, runs its ops in this process for N passes through
the benchmark's own ``invoke``, and prints each op's minimum and median
seconds and, over the passes, the minimum and median of each pass's
longest op.  The benchmark's speed sampler takes one sample per 50 ms
(``perfbench/speed.py`` ``PERIOD_S``) and fails a pass in which every op
ends before its first sample, so the minimum longest op is the headroom a
faster program leaves it.  Nothing under perfbench/ is changed.

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
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402  (sets one thread everywhere, as the benchmark does)
import workloads  # noqa: E402


def summarize(names: list[str], passes: list[list[float]]) -> list[str]:
    """The report lines for one workload: passes[p][i] is op i's seconds
    in pass p."""
    lines = [f"  {'op':32s} {'min_s':>8s} {'median_s':>9s}"]
    for i, name in enumerate(names):
        times = [p[i] for p in passes]
        lines.append(f"  {name:32s} {min(times):8.3f} {statistics.median(times):9.3f}")
    longest = [max(p) for p in passes]
    lines.append(
        f"  longest op per pass: min {min(longest):.3f} s, median {statistics.median(longest):.3f} s"
    )
    return lines


def main(argv: list[str] | None = None) -> int:
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
        print("\n".join(summarize([op.name for op in ops], passes)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
