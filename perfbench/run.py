"""Benchmark of the transposynth CLI: one workload per process.

    python3 perfbench/run.py --workload paper_tables --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a source checkout; the program is imported from its
``src/`` directory, never from an installed copy.  With ``--trace 0`` a run
reports the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it runs
one untraced pass and then traced passes, and reports the per-layer
metrics.  Either way the outputs are checked before anything is reported.
The last line of standard output is one JSON object; a fuller record,
with the run context, goes to ``.bench_results/``.  The exit code is 0
when every check passed, 1 when one failed, 2 when the program is missing.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from speed import Speedometer, reference_seconds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"
WORKLOAD_NAMES = ("paper_tables", "compile_wide", "verify_exhaustive")

# One thread everywhere: set before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

# Set-up is repeated and its median reported.  It is timed raw: import
# time follows file-system and loader costs more than the speed samples.
SETUP_ROUNDS = 7
MIN_PASSES = 2  # untraced passes per run, even when one pass outlasts --seconds
_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import transposynth.cli; print(time.perf_counter() - t)"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "gates_out": "count",
    "t_out": "count",
    "cnot_out": "count",
    "toffoli_out": "count",
    "inputs_checked": "count",
}


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _context(args) -> dict:
    import numpy

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def _import_seconds() -> float:
    """Import time of the CLI in a fresh interpreter."""
    probe = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(probe.stdout.strip())


def _setup(workload, work: Path, seed: int) -> tuple[dict, list[float], list[str]]:
    """Set up SETUP_ROUNDS times (import + input generation); every round
    must produce the same inputs.  Returns the last round's inputs, each
    round's seconds and any problems."""
    rounds, problems, first = [], [], None
    for i in range(SETUP_ROUNDS):
        imported = _import_seconds()
        start = perf_counter()
        inputs = workload.setup(work, seed)
        rounds.append(imported + perf_counter() - start)
        if first is None:
            first = inputs
        elif inputs != first:
            problems.append(f"set-up round {i} produced different inputs")
    return inputs, rounds, problems


def _run_pass(inputs, tracer):
    """One pass; returns its results, raw seconds and reference seconds."""
    from workloads import invoke

    gc.collect()
    with tracer.installed():
        results = [invoke(op, Speedometer()) for op in inputs["ops"]]
    raw = sum(r.seconds for r in results)
    return results, raw, reference_seconds([(r.seconds, r.meter) for r in results])


def run_workload(args) -> tuple[dict, dict]:
    from tracing import COVERAGE_POINTS, Tracer, counters_of, layer_metrics
    from workloads import COUNT_KEYS, WORKLOADS

    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-{os.getpid()}"
    rng = random.Random(f"check-{args.seed}")
    problems: list[str] = []
    failed_ops: set[tuple[int, int]] = set()
    try:
        inputs, setup_rounds, setup_problems = _setup(workload, work, args.seed)
        problems += setup_problems + workload.check_inputs(inputs, rng)

        # With --trace 1 the first pass is untraced (the overhead baseline)
        # and the rest are traced.  Passes are (raw, reference) seconds.
        untraced, traced, tracers, coverage = [], [], [], []
        digests, checked = None, None
        start = perf_counter()
        while True:
            pass_no = len(untraced) + len(traced)
            tracing = bool(args.trace and untraced)
            tracer = Tracer() if tracing else Tracer(COVERAGE_POINTS)
            results, raw, ref = _run_pass(inputs, tracer)
            if tracing:
                traced.append((raw, ref))
                tracers.append(tracer)
            else:
                untraced.append((raw, ref))
                coverage.append(tracer.counts["simulator.inputs_checked"])
            for i, res in enumerate(results):
                if res.problems():
                    failed_ops.add((pass_no, i))
                    problems += res.problems()
            if digests is None:
                digests = [r.digest() for r in results]
                checked = workload.check_pass(inputs, results, rng)
                for i, msgs in checked.errors.items():
                    failed_ops.add((pass_no, i))
                    problems += msgs
            else:
                for i, r in enumerate(results):
                    if r.digest() != digests[i]:
                        failed_ops.add((pass_no, i))
                        problems.append(f"pass {pass_no}: {r.op.name} output differs from pass 0")
            done = traced if args.trace else untraced
            if len(done) >= (1 if args.trace else MIN_PASSES) and (
                perf_counter() - start + statistics.median(raw for raw, _ in done) > args.seconds
            ):
                break
        attempted = (len(untraced) + len(traced)) * len(inputs["ops"])

        if len(set(coverage)) > 1:
            problems.append(f"verifier coverage changed between passes: {coverage}")
        if args.trace:
            for t in tracers:
                missing = t.missing(workload.required_points)
                if missing:
                    problems.append(f"traced pass recorded no span at {missing}")
                if counters_of(t) != counters_of(tracers[0]):
                    problems.append("traced counters differ between passes")
            overhead = statistics.median(ref for _, ref in traced) / untraced[0][1] - 1.0
            metrics = layer_metrics(tracers, [ref / raw for raw, ref in traced], overhead)
        else:
            metrics = {
                "setup_s": statistics.median(setup_rounds),
                "wall_s": statistics.median(ref for _, ref in untraced),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                **{k: checked.counts[k] for k in COUNT_KEYS},
                "inputs_checked": coverage[0] + checked.oracle_inputs,
            }
        details = {
            "workload": workload.name,
            "why": workload.why,
            "ops": [op.name for op in inputs["ops"]],
            "setup_round_s": setup_rounds,
            "untraced_pass_raw_s": [raw for raw, _ in untraced],
            "untraced_pass_reference_s": [ref for _, ref in untraced],
            "traced_pass_raw_s": [raw for raw, _ in traced],
            "traced_pass_reference_s": [ref for _, ref in traced],
            "problems": problems,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": not problems,
        "attempted": attempted,
        # A problem outside any one operation (set-up, self-test, trace
        # guard) still counts as one failure.
        "failed": max(len(failed_ops), 1 if problems else 0),
        "metrics": metrics,
    }
    return result, details


def _units() -> dict[str, str]:
    from tracing import LAYER_METRICS

    return {**END_TO_END_UNITS, **LAYER_METRICS}


def _print_metrics(name: str, metrics: dict[str, float], units: dict[str, str]) -> None:
    print(f"{name}:")
    for key, value in metrics.items():
        print(f"  {key:28s} {value:>16.6f} {units[key]}" if isinstance(value, float)
              else f"  {key:28s} {value:>16d} {units[key]}")


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(child.stderr)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode == 2 or not lines:
            return 2
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "transposynth" / "__init__.py").is_file():
        print(f"error: no transposynth sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import transposynth
    import transposynth.cli  # noqa: F401  (imported before any timing)

    if Path(transposynth.__file__).resolve().parent != SRC / "transposynth":
        print(f"error: imported transposynth from {transposynth.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import KNOWN_DEFECTS

    context = _context(args)
    result, details = run_workload(args)
    units = _units()
    _print_metrics(f"{args.workload} (seed {args.seed}, trace {args.trace})", result["metrics"], units)
    for problem in details["problems"]:
        print(f"  FAILED: {problem}", file=sys.stderr)
    print(f"  error_rate {result['failed'] / result['attempted']:.6f} "
          f"({result['failed']}/{result['attempted']} operations)")
    printed = {
        **result,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    }
    RESULTS.mkdir(exist_ok=True)
    record = {"context": context, **details, "known_defects": list(KNOWN_DEFECTS), "result": printed}
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"context {json.dumps(context)}")
    print(json.dumps(printed))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
