"""Every gate the passes build outside lowering's Toffoli template comes
from ir._shared: one validated Gate per (kind, controls, target), shared
by every circuit that holds it.  These tests pin the sharing, the reason
for it and where the one unchecked build lives: on CPython 3.11 a Gate
built by Gate(...) keeps its fields as inline values, which read about
three times as fast as the instance dict that writing the fields through
__dict__ creates."""
import ast
import gc
import importlib
from collections import defaultdict
from pathlib import Path

import pytest

import transposynth
import transposynth.mcx as mcx_module
from transposynth.harness import sample_transpositions
from transposynth.ir import Gate, GateKind, _shared, circuit, count_gates, t, tdg, toffoli
from transposynth.lowering import LoweringMode, _raise_toffolis, lower_all_toffolis
from transposynth.peephole import remove_redundancies
from transposynth.simulator import verify_transposition
from transposynth.transposition import SynthesisStrategy, TranspositionSpec, synthesize_transposition

A, B, GRAY = SynthesisStrategy.THM3_A, SynthesisStrategy.THM3_B, SynthesisStrategy.GRAY_CODE


def _gates_by_key(circ):
    by_key = defaultdict(set)
    for g in circ.gates:
        by_key[g.kind, g.controls, g.target].add(id(g))
    return by_key


def _assert_shared(first, second):
    """Equal gates are one object, within each circuit and across both.
    Returns the keys the two circuits have in common."""
    one, two = _gates_by_key(first), _gates_by_key(second)
    for ids in (*one.values(), *two.values()):
        assert len(ids) == 1
    common = one.keys() & two.keys()
    for key in common:
        assert one[key] == two[key], key
    return common


@pytest.mark.parametrize("strategy", [A, B])
def test_two_flag_circuits_at_one_n_share_their_gates(strategy):
    # a ^ b is bits 0, 1, 3, 5 for the first spec and 0, 1, 3 for the
    # second, so their bit-flip CNOTs share the wires 0, 1 and 3.
    n, flag = 6, 6
    first = synthesize_transposition(TranspositionSpec(n, "000000", "110101"), strategy)
    second = synthesize_transposition(TranspositionSpec(n, "101010", "011110"), strategy)
    common = _assert_shared(first, second)
    assert (GateKind.H, (), flag) in common
    assert {(GateKind.CNOT, (flag,), i) for i in (0, 1, 3)} <= common
    toffolis = {k for k in _gates_by_key(first) if k[0] is GateKind.TOFFOLI}
    assert toffolis and toffolis <= common


def test_two_gray_circuits_at_one_n_share_their_x_flips():
    first = synthesize_transposition(TranspositionSpec(5, "00000", "11010"), GRAY)
    second = synthesize_transposition(TranspositionSpec(5, "00100", "01011"), GRAY)
    common = _assert_shared(first, second)
    flips = {k for k in common if k[0] is GateKind.X}
    assert len(flips) >= 2


def test_shared_gates_are_validated_gates():
    g = _shared(GateKind.CNOT, (3,), 1)
    assert type(g) is Gate and g == Gate(GateKind.CNOT, (3,), 1)
    assert _shared(GateKind.CNOT, (3,), 1) is g
    with pytest.raises(ValueError, match="duplicate qubit"):
        _shared(GateKind.CNOT, (1,), 1)


_MODULES = [
    importlib.import_module(f"transposynth.{path.stem}")
    for path in sorted(Path(transposynth.__file__).parent.glob("*.py"))
]


def _tree(module):
    return ast.parse(Path(module.__file__).read_text())


@pytest.mark.parametrize("module", _MODULES, ids=lambda m: m.__name__)
def test_synthesis_never_names_the_trusted_gate_constructor(module):
    # ir._gate is deleted, and no module names it.
    names = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update({node.name, node.asname})
    assert "_gate" not in names


def _unchecked_gate_builds(tree):
    """The functions of a module that call object.__new__ (or a module
    name bound to it) on Gate, which skips Gate's check."""
    new = {"__new__"} | {
        target.id
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "__new__"
        for target in node.targets
    }
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None)) in new
                and node.args
                and getattr(node.args[0], "id", None) == "Gate"
            ):
                found.add(func.name)
    return found


def test_only_lowering_builds_a_gate_without_validation():
    builds = {m.__name__: _unchecked_gate_builds(_tree(m)) for m in _MODULES}
    assert {name: funcs for name, funcs in builds.items() if funcs} == {
        "transposynth.lowering": {"_block"}
    }
    # The check sees both spellings of the build.
    for source in ("_new = object.__new__\ndef f(): _new(Gate)",
                   "def f(): object.__new__(Gate)"):
        assert _unchecked_gate_builds(ast.parse(source)) == {"f"}


@pytest.mark.parametrize("make, fused", [(t, GateKind.S), (tdg, GateKind.SDG)], ids=["S", "Sdg"])
def test_a_fused_gate_is_the_shared_gate(make, fused):
    (g,) = remove_redundancies(circuit(3, [make(2), make(2)])).gates
    assert g is _shared(fused, (), 2)


def test_a_raised_toffoli_is_the_shared_gate():
    for mode in LoweringMode:
        lowered = lower_all_toffolis(circuit(4, [toffoli(3, 0, 1)] * 2), mode)
        raised = _raise_toffolis(lowered.gates)
        assert len(raised) == 2
        assert raised[0] is _shared(GateKind.TOFFOLI, (3, 0), 1)
        assert raised[1] is _shared(GateKind.TOFFOLI, (3, 0), 1)


def _holds_a_dict(obj):
    return any(type(r) is dict for r in gc.get_referents(obj))


@pytest.mark.skipif(
    _holds_a_dict(Gate(GateKind.X, (), 0)),
    reason="this interpreter keeps no inline values for a Gate's fields",
)
def test_synthesized_gates_keep_inline_values():
    # Reading a gate's __dict__ (copy.copy and pickle do) gives it a real
    # dict for good.  Start from empty caches, so no other test's reads of
    # the shared gates can make this one fail.
    _shared.cache_clear()
    mcx_module._network.cache_clear()
    for n in range(2, 13):
        for spec in sample_transpositions(n, 3, seed=25):
            for strategy in (A, B, GRAY):
                circ = synthesize_transposition(spec, strategy)
                # The readers of every gate must not create the dict either.
                count_gates(circ)
                remove_redundancies(circ)
                assert verify_transposition(circ, spec).passed
                assert not [g for g in circ.gates if _holds_a_dict(g)], (n, spec, strategy)
