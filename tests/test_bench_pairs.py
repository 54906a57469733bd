"""tools/bench_pairs.py judges parent/change benchmark pairs: a gain needs
the change better in at least nine tenths of the pairs and the medians
apart by more than the parent's IQR; any other metric must stay within
its bound.  Its pure functions run here, and main runs against stub
checkouts with subprocess.run patched; nothing is benchmarked."""
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

_METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "gates_out", "unit": "count", "better": "lower", "bound": 0.0},
    {"name": "inputs_checked", "unit": "count", "better": "higher", "bound": 0.0},
]


def _record(wall, gates=100, inputs=64):
    values = {"wall_s": wall, "gates_out": gates, "inputs_checked": inputs}
    return {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {k: {"value": v, "unit": "x"} for k, v in values.items()}}


def _pairs(parent_walls, change_walls, **change_fields):
    return [(_record(p), _record(c, **change_fields)) for p, c in zip(parent_walls, change_walls)]


_PARENT = [2.70, 2.75, 2.80, 2.72, 2.78, 2.74, 2.76, 2.71, 2.79, 2.73]


def test_a_clear_gain_is_shown():
    lines, gain = bench_pairs.summarize(_pairs(_PARENT, [w - 0.5 for w in _PARENT]), _METRICS, "wall_s")
    assert gain
    assert "better in 10 of 10 pairs run" in lines[-1] and "gain shown" in lines[-1]
    assert all("within its bound" in line for line in lines[: len(_METRICS)])


def test_a_gain_needs_nine_wins_in_ten():
    change = [w - 0.5 for w in _PARENT]
    change[0] = change[1] = _PARENT[0] + 0.1  # two losses
    lines, gain = bench_pairs.summarize(_pairs(_PARENT, change), _METRICS, "wall_s")
    assert not gain and "better in 8 of 10 pairs run" in lines[-1]


def test_a_pair_without_a_result_counts_against_the_gain():
    # Nine complete pairs, all wins, out of ten run: 9 of 10 is a gain.
    pairs = _pairs(_PARENT[:9], [w - 0.5 for w in _PARENT[:9]])
    lines, gain = bench_pairs.summarize(pairs, _METRICS, "wall_s", runs=10)
    assert gain and "better in 9 of 10 pairs run" in lines[-1]
    # Two pairs without a result leave 8 wins of 10 run.
    lines, gain = bench_pairs.summarize(pairs[:8], _METRICS, "wall_s", runs=10)
    assert not gain and "better in 8 of 10 pairs run" in lines[-1]


def test_ties_count_for_neither_side():
    change = [w - 0.5 for w in _PARENT]
    change[3] = _PARENT[3]
    _, gain = bench_pairs.summarize(_pairs(_PARENT, change), _METRICS, "wall_s")
    assert gain  # 9 of 10
    change[4] = _PARENT[4]
    _, gain = bench_pairs.summarize(_pairs(_PARENT, change), _METRICS, "wall_s")
    assert not gain  # 8 of 10


def test_a_gain_needs_the_medians_apart_by_more_than_the_parent_iqr():
    # Better in every pair, but by less than the parent's own spread.
    lines, gain = bench_pairs.summarize(_pairs(_PARENT, [w - 0.001 for w in _PARENT]), _METRICS, "wall_s")
    assert not gain and "gain NOT shown" in lines[-1]


def test_a_changed_count_is_worse_beyond_its_bound_in_its_direction():
    lines, _ = bench_pairs.summarize(_pairs(_PARENT, _PARENT, gates=101, inputs=32), _METRICS, "wall_s")
    by_name = {line.split()[0]: line for line in lines[:-1]}
    assert "WORSE" in by_name["gates_out"] and "WORSE" in by_name["inputs_checked"]
    lines, _ = bench_pairs.summarize(_pairs(_PARENT, _PARENT, gates=99, inputs=128), _METRICS, "wall_s")
    assert not any("WORSE" in line for line in lines)


def test_a_spread_wider_than_the_bound_is_unresolved():
    parent = [1.0, 2.0, 1.0, 2.0]
    lines, _ = bench_pairs.summarize(_pairs(parent, [1.1, 1.9, 1.2, 2.0]), _METRICS, "wall_s")
    assert "unresolved" in lines[0]


def test_the_result_line_is_the_last_json_object():
    assert bench_pairs.result_of('wall_s 1.0\n{"correct": true, "metrics": {}}\n') == {
        "correct": True, "metrics": {}}
    # A run that crashed before its result line printed none.
    assert bench_pairs.result_of("paper_tables (seed 1, trace 0):\n") is None
    assert bench_pairs.result_of("") is None


def test_the_run_order_effect_shows_and_an_odd_count_does_not_cancel_it():
    # Every second run is 0.2 s slower: the change when the parent ran
    # first (even pairs), the parent when the change ran first.
    change = [w + 0.2 if i % 2 == 0 else w - 0.2 for i, w in enumerate(_PARENT)]
    lines, gain = bench_pairs.summarize(_pairs(_PARENT, change), _METRICS, "wall_s")
    assert not gain and "better in 5 of 10 pairs run" in lines[-1]
    assert lines[-2] == (
        "  wall_s change - parent by run order: median 0.2 s over 5 parent-first pairs,"
        " -0.2 s over 5 change-first pairs"
    )
    assert "not cancelled" not in lines[-1]
    lines, _ = bench_pairs.summarize(_pairs(_PARENT[:9], change[:9]), _METRICS, "wall_s")
    assert "over 5 parent-first pairs, -0.2 s over 4 change-first pairs" in lines[-2]
    assert lines[-1].endswith(
        "; 5 parent-first against 4 change-first pairs, so the run-order effect is not cancelled")
    # The order comes from the pairs run, not from their position.
    first = [True, False, False, True]
    lines, _ = bench_pairs.summarize(
        _pairs(_PARENT[:4], [_PARENT[0] + 0.2, _PARENT[1] - 0.2, _PARENT[2] - 0.2, _PARENT[3] + 0.2]),
        _METRICS, "wall_s", parent_first=first)
    assert "median 0.2 s over 2 parent-first pairs, -0.2 s over 2 change-first" in lines[-2]


def _checkouts(tmp_path):
    for side in bench_pairs.SIDES:
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("")
        (tmp_path / side / "src" / "transposynth").mkdir(parents=True)
    return [f"--{side}={tmp_path / side}" for side in bench_pairs.SIDES]


def _fake_run(calls):
    metrics = json.loads((_TOOL.parent.parent / "BENCHMARK.json").read_text())["end_to_end"]
    record = {"correct": True, "attempted": 3, "failed": 0,
              "metrics": {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in metrics}}

    def run(argv, **kwargs):
        calls.append(kwargs)
        return subprocess.CompletedProcess(argv, 0, json.dumps(record) + "\n", "")
    return run


def test_every_run_writes_no_bytecode_cache(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(bench_pairs.subprocess, "run", _fake_run(calls))
    argv = _checkouts(tmp_path) + ["--workload", "compile_wide", "--pairs", "2"]
    assert bench_pairs.main(argv) == 0
    assert len(calls) == 4
    assert all(call["env"]["PYTHONDONTWRITEBYTECODE"] == "1" for call in calls)


@pytest.mark.parametrize("side", bench_pairs.SIDES)
def test_a_bytecode_cache_in_either_checkout_stops_the_pairs(tmp_path, monkeypatch, capsys, side):
    # A parent-only src/transposynth/__pycache__ once read as setup_s +26 %.
    calls = []
    monkeypatch.setattr(bench_pairs.subprocess, "run", _fake_run(calls))
    argv = _checkouts(tmp_path) + ["--workload", "compile_wide", "--pairs", "2"]
    cache = tmp_path / side / "src" / "transposynth" / "__pycache__"
    cache.mkdir()
    with pytest.raises(SystemExit) as stop:
        bench_pairs.main(argv)
    assert stop.value.code == 2 and calls == []
    assert str(cache) in capsys.readouterr().err
