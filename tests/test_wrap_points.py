"""The benchmark's traced runs wrap names that transposynth's modules look
up (perfbench/tracing.py, WRAP_POINTS), and each workload requires some of
them (perfbench/workloads.py, required_points).  Deleting or moving such a
name breaks those runs; these tests catch it in the package's own suite.
Both files are loaded by path (perfbench_files) and run nothing."""
import importlib

import pytest

from perfbench_files import load
from transposynth import cli

tracing = load("tracing")
workloads = load("workloads")

_POINTS = [f"{module}.{name}" for module, name, _ in tracing.WRAP_POINTS]


@pytest.mark.parametrize("module, name", [p[:2] for p in tracing.WRAP_POINTS], ids=_POINTS)
def test_every_wrap_point_names_an_attribute_of_its_module(module, name):
    assert hasattr(importlib.import_module(module), name)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_required_point_is_a_wrap_point(workload):
    required = workloads.WORKLOADS[workload].required_points
    assert required
    assert set(required) <= set(_POINTS)


def _count_coverage_calls(monkeypatch):
    """Wrap every coverage point, as an untraced benchmark pass does, and
    return its calls so far by "module.name"."""
    calls = {}
    for module, name, _ in tracing.COVERAGE_POINTS:
        owner = importlib.import_module(module)
        point = calls[f"{module}.{name}"] = []

        def counting(*args, _real=getattr(owner, name), _point=point, **kwargs):
            _point.append(args)
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    return calls


def test_verify_checks_through_the_cli_coverage_point(monkeypatch, tmp_path):
    # An untraced benchmark pass reads inputs_checked from these calls
    # alone: a verify routed past them reads 0 there, while the attribute
    # checks above still pass.
    path = tmp_path / "c.txt"
    assert cli.main(["synth", "--n", "3", "--a", "000", "--b", "101", "--out", str(path)]) == 0
    calls = _count_coverage_calls(monkeypatch)
    assert cli.main(["verify", "--circuit", str(path), "--a", "000", "--b", "101"]) == 0
    assert {point: len(args) for point, args in calls.items()} == {
        "transposynth.cli.verify_transposition": 1,
        "transposynth.harness.verify_transposition": 0,
    }


def test_study_checks_each_trial_through_the_harness_coverage_point(monkeypatch, tmp_path):
    calls = _count_coverage_calls(monkeypatch)
    argv = ["study", "--n", "2..4", "--trials", "5", "--out", str(tmp_path / "s.csv")]
    assert cli.main(argv) == 0
    assert {point: len(args) for point, args in calls.items()} == {
        "transposynth.cli.verify_transposition": 0,
        "transposynth.harness.verify_transposition": 15,
    }
