"""Outside-in tracing of the transposynth pipeline, by layer.

The program is not edited.  Instead, each public function a caller module
looks up by name (the names imported into ``transposynth.cli`` and
``transposynth.harness``, plus ``lower_mcx`` inside
``transposynth.transposition``) is replaced for the duration of a pass by
a wrapper that records a span.  Spans nest on a stack, so a layer's self
time is its span time minus the spans it caused.  Counters are read from
the arguments and results at the same boundaries; the time spent reading
them is charged to no layer.

Building ``Gate`` and ``Circuit`` objects is not a public call, so its
validation cost lands in the self time of whichever layer builds them.
"""
from __future__ import annotations

import contextlib
import importlib
import math
import statistics
import time
from collections import Counter, defaultdict

from transposynth.ir import GateKind

# (module, looked-up name, span).  The span's first part is the layer.
WRAP_POINTS = (
    ("transposynth.cli", "main", "cli"),
    ("transposynth.cli", "synthesize_transposition", "transposition"),
    ("transposynth.cli", "lower_mcx_auto", "mcx"),
    ("transposynth.cli", "lower_all_toffolis", "lowering"),
    ("transposynth.cli", "remove_redundancies", "peephole"),
    ("transposynth.cli", "count_gates", "ir.count"),
    ("transposynth.cli", "to_qasm2", "ir.emit"),
    ("transposynth.cli", "to_text", "ir.emit"),
    ("transposynth.cli", "from_text", "ir.parse"),
    ("transposynth.cli", "verify_transposition", "simulator"),
    ("transposynth.cli", "run_count_study", "harness.study"),
    ("transposynth.cli", "export_stats", "harness.export"),
    ("transposynth.cli", "to_markdown", "harness.export"),
    ("transposynth.harness", "sample_transpositions", "harness.sample"),
    ("transposynth.harness", "synthesize_transposition", "transposition"),
    ("transposynth.harness", "lower_mcx_auto", "mcx"),
    ("transposynth.harness", "lower_all_toffolis", "lowering"),
    ("transposynth.harness", "remove_redundancies", "peephole"),
    ("transposynth.harness", "count_gates", "ir.count"),
    ("transposynth.harness", "verify_transposition", "simulator"),
    ("transposynth.transposition", "lower_mcx", "mcx"),
)

#: The only wrap points of an untraced pass: they read each verification
#: report's coverage (one extra call per verification, nothing timed).
COVERAGE_POINTS = tuple(p for p in WRAP_POINTS if p[2] == "simulator")

#: Per-layer metrics of a traced run, with their units.
LAYER_METRICS = {
    "simulator.verify_s": "s",
    "simulator.calls": "count",
    "simulator.sampled_calls": "count",
    "simulator.inputs_checked": "count",
    "simulator.gate_inputs_per_s": "1/s",
    "simulator.call_ms_p50": "ms",
    "simulator.call_ms_p99": "ms",
    "peephole.opt_s": "s",
    "peephole.gates_in": "count",
    "peephole.gates_removed": "count",
    "peephole.removed_ratio": "ratio",
    "peephole.us_per_gate": "us",
    "lowering.lower_s": "s",
    "lowering.gates_out": "count",
    "transposition.self_s": "s",
    "mcx.lower_s": "s",
    "mcx.toffolis_out": "count",
    "mcx.ancillas_added": "count",
    "ir.count_s": "s",
    "ir.emit_s": "s",
    "ir.parse_s": "s",
    "harness.sample_s": "s",
    "harness.self_s": "s",
    "harness.export_s": "s",
    "cli.self_s": "s",
    "trace_overhead_frac": "ratio",
}


def _toffolis(circ) -> int:
    return sum(g.kind is GateKind.TOFFOLI for g in circ.gates)


def _count_simulator(counts, verify_ms, args, result, seconds):
    counts["simulator.calls"] += 1
    counts["simulator.sampled_calls"] += result.sampled
    counts["simulator.inputs_checked"] += result.total_checked
    counts["simulator.gate_inputs"] += result.total_checked * len(args[0].gates)
    verify_ms.append(seconds * 1e3)


def _count_peephole(counts, verify_ms, args, result, seconds):
    counts["peephole.gates_in"] += len(args[0].gates)
    counts["peephole.gates_removed"] += len(args[0].gates) - len(result.gates)


def _count_lowering(counts, verify_ms, args, result, seconds):
    counts["lowering.gates_out"] += len(result.gates)


def _count_mcx(counts, verify_ms, args, result, seconds):
    counts["mcx.toffolis_out"] += _toffolis(result) - _toffolis(args[0])
    counts["mcx.ancillas_added"] += result.num_qubits - args[0].num_qubits


_COUNTERS = {
    "simulator": _count_simulator,
    "peephole": _count_peephole,
    "lowering": _count_lowering,
    "mcx": _count_mcx,
}


class Tracer:
    """Spans and counters of one pass.  Install it around the pass."""

    def __init__(self, points=WRAP_POINTS):
        self.points = points
        self.calls: Counter[str] = Counter()           # by "module.name"
        self.total: defaultdict[str, float] = defaultdict(float)  # by span
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.verify_ms: list[float] = []
        self._stack: list[float] = []

    def _wrap(self, fn, point: str, span: str):
        counter = _COUNTERS.get(span)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                self.calls[point] += 1
                self.total[span] += elapsed
                self.self_time[span] += elapsed - children
            counted = clock()
            if counter is not None:
                counter(self.counts, self.verify_ms, args, return_value, elapsed)
            if stack:
                # The caller's self time excludes this call and its counting.
                stack[-1] += clock() - counted + elapsed
            return return_value

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, name, span in self.points:
                module = importlib.import_module(module_name)
                original = getattr(module, name)
                saved.append((module, name, original))
                setattr(module, name, self._wrap(original, f"{module_name}.{name}", span))
            yield self
        finally:
            for module, name, original in reversed(saved):
                setattr(module, name, original)

    def missing(self, required: tuple[str, ...]) -> list[str]:
        """Required wrap points that recorded no span in this pass."""
        return [p for p in required if self.calls[p] == 0]


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def layer_metrics(passes: list[Tracer], scales: list[float], overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics for one pass.  Times are medians over the traced
    passes, each scaled to reference seconds by its pass's factor in
    scales; counters come from the last pass (the caller checks they
    repeat); verify-call percentiles pool every call."""

    def med(fn) -> float:
        return statistics.median(fn(t) * k for t, k in zip(passes, scales))

    last = passes[-1]
    c = last.counts
    verify_s = med(lambda t: t.total["simulator"])
    opt_s = med(lambda t: t.total["peephole"])
    pooled_ms = [ms * k for t, k in zip(passes, scales) for ms in t.verify_ms]
    gates_in = c["peephole.gates_in"]
    return {
        "simulator.verify_s": verify_s,
        "simulator.calls": c["simulator.calls"],
        "simulator.sampled_calls": c["simulator.sampled_calls"],
        "simulator.inputs_checked": c["simulator.inputs_checked"],
        "simulator.gate_inputs_per_s": c["simulator.gate_inputs"] / verify_s if verify_s else 0.0,
        "simulator.call_ms_p50": _quantile(pooled_ms, 0.50),
        "simulator.call_ms_p99": _quantile(pooled_ms, 0.99),
        "peephole.opt_s": opt_s,
        "peephole.gates_in": gates_in,
        "peephole.gates_removed": c["peephole.gates_removed"],
        "peephole.removed_ratio": c["peephole.gates_removed"] / gates_in if gates_in else 0.0,
        "peephole.us_per_gate": opt_s * 1e6 / gates_in if gates_in else 0.0,
        "lowering.lower_s": med(lambda t: t.total["lowering"]),
        "lowering.gates_out": c["lowering.gates_out"],
        "transposition.self_s": med(lambda t: t.self_time["transposition"]),
        "mcx.lower_s": med(lambda t: t.total["mcx"]),
        "mcx.toffolis_out": c["mcx.toffolis_out"],
        "mcx.ancillas_added": c["mcx.ancillas_added"],
        "ir.count_s": med(lambda t: t.total["ir.count"]),
        "ir.emit_s": med(lambda t: t.total["ir.emit"]),
        "ir.parse_s": med(lambda t: t.total["ir.parse"]),
        "harness.sample_s": med(lambda t: t.total["harness.sample"]),
        "harness.self_s": med(lambda t: t.self_time["harness.study"]),
        "harness.export_s": med(lambda t: t.total["harness.export"]),
        "cli.self_s": med(lambda t: t.self_time["cli"]),
        "trace_overhead_frac": overhead_frac,
    }


def counters_of(tracer: Tracer) -> dict[str, int]:
    """What must repeat exactly from one traced pass to the next."""
    return {**tracer.counts, **{f"calls:{k}": v for k, v in tracer.calls.items()}}
