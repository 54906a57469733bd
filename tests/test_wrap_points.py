"""The benchmark's traced runs wrap names that transposynth's modules look
up (perfbench/tracing.py, WRAP_POINTS), and each workload requires some of
them (perfbench/workloads.py, required_points).  Deleting or moving such a
name breaks those runs; these tests catch it in the package's own suite.
Both files are loaded by path and run nothing."""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

_BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    # workloads.py imports its siblings (published, refcheck, speed) as
    # top-level modules, so the directory is on sys.path while it loads,
    # and its dataclasses look their module up in sys.modules.  Neither
    # outlives the load.
    before = set(sys.modules)
    sys.path.insert(0, str(_BENCH))
    try:
        spec = importlib.util.spec_from_file_location(f"_bench_{name}", _BENCH / f"{name}.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(_BENCH))
        for added in set(sys.modules) - before:
            if Path(getattr(sys.modules[added], "__file__", None) or "").parent == _BENCH:
                del sys.modules[added]
    return module


tracing = _load("tracing")
workloads = _load("workloads")

_POINTS = [f"{module}.{name}" for module, name, _ in tracing.WRAP_POINTS]


@pytest.mark.parametrize("module, name", [p[:2] for p in tracing.WRAP_POINTS], ids=_POINTS)
def test_every_wrap_point_names_an_attribute_of_its_module(module, name):
    assert hasattr(importlib.import_module(module), name)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_required_point_is_a_wrap_point(workload):
    required = workloads.WORKLOADS[workload].required_points
    assert required
    assert set(required) <= set(_POINTS)
