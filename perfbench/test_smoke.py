"""Fast smoke checks of the benchmark's own files; no workload is run.

    python -m pytest perfbench/test_smoke.py -q

Kept outside the package's test suite (``tests/``) on purpose.
"""
from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import refcheck  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = HERE.parent / "BENCHMARK.json"


def test_benchmark_json_round_trips_and_matches_the_code():
    text = SPEC.read_text()
    spec = json.loads(text)
    assert json.loads(json.dumps(spec)) == spec
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_METRICS
    assert all(0 <= m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_result_line_round_trips():
    metrics = {name: 1.5 for name in run.END_TO_END_UNITS}
    line = json.dumps({
        "correct": True, "attempted": 3, "failed": 0,
        "metrics": {k: {"value": v, "unit": run.END_TO_END_UNITS[k]} for k, v in metrics.items()},
    })
    back = json.loads(line)
    assert set(back) == {"correct", "attempted", "failed", "metrics"}
    assert {k: m["value"] for k, m in back["metrics"].items()} == metrics


# A Toffoli on controls 0, 1 and target 2 swaps |110> and |111>; written
# out by hand in the 16-gate Clifford+T form.
_TOFFOLI_QASM = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
h q[2];
cx q[1],q[2];
tdg q[2];
cx q[0],q[2];
t q[2];
cx q[1],q[2];
tdg q[2];
cx q[0],q[2];
tdg q[1];
t q[2];
cx q[0],q[1];
h q[2];
tdg q[1];
cx q[0],q[1];
t q[0];
s q[1];
"""


def test_reference_checker_accepts_a_toffoli_and_rejects_a_deleted_t():
    circ = refcheck.parse_qasm(_TOFFOLI_QASM, 3, "clean")
    assert refcheck.check_transposition(circ, "110", "111", random.Random(0), extra_inputs=8).passed
    for i, (name, _) in enumerate(circ.gates):
        if name in ("t", "tdg"):
            broken = circ.without_gate(i)
            assert not refcheck.check_transposition(broken, "110", "111", random.Random(0), 8).passed
