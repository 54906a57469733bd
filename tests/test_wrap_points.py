"""The benchmark's traced runs wrap names that transposynth's modules look
up (perfbench/tracing.py, WRAP_POINTS), and each workload requires some of
them (perfbench/workloads.py, required_points).  Deleting or moving such a
name breaks those runs; these tests catch it in the package's own suite.
Both files are loaded by path (perfbench_files) and run nothing."""
import importlib

import pytest

from perfbench_files import load

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
