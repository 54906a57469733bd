"""Load a file of the benchmark (perfbench/) by path, so the package's
own suite can use it without running anything of the benchmark."""
import importlib.util
import sys
from pathlib import Path

_BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
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
