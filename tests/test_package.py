import ast
import importlib
from pathlib import Path

import pytest

import transposynth


def _reexports():
    tree = ast.parse(Path(transposynth.__file__).read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"transposynth.{node.module}")
            for alias in node.names:
                yield module, alias.asname or alias.name


def test_reexports_are_the_submodule_objects():
    names = list(_reexports())
    assert names
    for module, name in names:
        assert getattr(transposynth, name) is getattr(module, name), name




_T = transposynth

#: Public entry points, each with arguments the first of which has the
#: wrong type.
_WRONG_TYPES = [
    (_T.synthesize_transposition, ("x", _T.SynthesisStrategy.THM3_A)),
    (_T.lower_mcx, ("x", _T.McxStrategy.BORROWED)),
    (_T.lower_all_toffolis, ("x", _T.LoweringMode.NAIVE)),
    (_T.remove_redundancies, ("x",)),
    (_T.count_gates, ("x",)),
    (_T.to_text, ("x",)),
    (_T.to_qasm2, ("x",)),
    (_T.inverse, ("x",)),
    (_T.run_statevector, ("x",)),
    (_T.lower_toffoli, ("x", _T.ToffoliOrientation.STANDARD)),
    (_T.from_text, (123,)),
    (_T.lower_bound, ("x", _T.BoundMode.WORST)),
    (_T.to_markdown, ("x",)),
    (_T.export_stats, ("x",)),
    (_T.borrowed_toffoli_count, (3.5,)),
    (_T.borrowed_toffoli_count, ("5",)),
    (_T.clean_ladder_toffoli_count, (3.5,)),
    (_T.clean_ladder_toffoli_count, ("5",)),
    (_T.single_clean_toffoli_count, (3.5,)),
    (_T.single_clean_toffoli_count, ("5",)),
]


@pytest.mark.parametrize(
    "entry, args",
    _WRONG_TYPES,
    ids=[f"{entry.__name__}-{type(args[0]).__name__}" for entry, args in _WRONG_TYPES],
)
def test_entry_points_refuse_an_argument_of_the_wrong_type(entry, args):
    # Each of these used to raise AttributeError or TypeError, and
    # borrowed_toffoli_count(3.5) returned 6.0.
    with pytest.raises(ValueError, match="must be a|an int"):
        entry(*args)
