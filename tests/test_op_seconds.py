"""tools/op_seconds.py reports each op's seconds and how close each pass's
longest op comes to the benchmark's speed-sampler period.  Only its pure
summary runs here; no workload is set up or timed."""
import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "op_seconds.py"
_spec = importlib.util.spec_from_file_location("op_seconds", _TOOL)
op_seconds = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(op_seconds)


def test_summary_counts_untimed_passes_and_near_misses():
    # Longest ops 0.040, 0.050, 0.059, 0.061 and 0.200 s against a 50 ms
    # period: one pass the benchmark could not time, and two that ended
    # within 10 ms of the period (0.050 and 0.059; 0.061 is clear of it).
    passes = [[0.040, 0.010], [0.020, 0.050], [0.059, 0.001], [0.061, 0.030], [0.100, 0.200]]
    lines = op_seconds.summarize(["first", "second"], passes, 0.050)
    assert lines == [
        "  op                                  min_s  median_s",
        "  first                               0.020     0.059",
        "  second                              0.001     0.030",
        "  longest op per pass: min 0.040 s, median 0.059 s",
        "  passes the benchmark could not time: 1 of 5 (every op under 50 ms)",
        "  near misses: 2 of 5 (longest op in 50..60 ms)",
    ]

