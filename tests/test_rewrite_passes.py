"""The wire-indexed rewrite passes against their frozen forward-scan
oracles (tests/oracle_passes.py), gate for gate, and against the dense
simulator: no pass may change a circuit's unitary.  The verifier's branch
engine against its frozen stable-sort oracle, bit for bit."""
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle_passes
from transposynth import simulator
from transposynth.ir import Gate, GateKind, QubitRole, circuit, h, int_to_label, inverse_gate, toffoli
from transposynth.lowering import LoweringMode, _pair_second_occurrences, lower_all_toffolis
from transposynth.mcx import lower_mcx_auto
from transposynth.peephole import remove_redundancies
from transposynth.simulator import _deposit, run_statevector, swept_qubits, verify_transposition
from transposynth.transposition import (
    SynthesisStrategy,
    TranspositionSpec,
    synthesize_transposition,
)

#: Fewest qubits each kind acts on.
_MIN_QUBITS = {kind: 1 for kind in GateKind} | {
    GateKind.CNOT: 2,
    GateKind.TOFFOLI: 3,
    GateKind.MCX: 2,
}

@st.composite
def _circuits(draw, max_qubits, max_gates=80, with_mcx=True):
    """Random circuits over every kind.  About a quarter of the gates
    repeat an earlier gate or its inverse with the controls reshuffled, so
    that cancellations, fusions and blocked partners all come up."""
    width = draw(st.integers(1, max_qubits))
    kinds = [k for k in GateKind if _MIN_QUBITS[k] <= width and (with_mcx or k is not GateKind.MCX)]
    gates = []
    for _ in range(draw(st.integers(0, max_gates))):
        if gates and draw(st.integers(0, 3)) == 0:
            g = draw(st.sampled_from(gates))
            if draw(st.booleans()):
                g = inverse_gate(g)
            gates.append(Gate(g.kind, tuple(draw(st.permutations(g.controls))), g.target))
            continue
        kind = draw(st.sampled_from(kinds))
        size = draw(st.integers(2, width)) if kind is GateKind.MCX else _MIN_QUBITS[kind]
        qubits = draw(st.permutations(range(width)))[:size]
        gates.append(Gate(kind, tuple(qubits[:-1]), qubits[-1]))
    return circuit(width, gates)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_circuits(max_qubits=8))
def test_passes_match_forward_scan_oracle(circ):
    assert remove_redundancies(circ) == oracle_passes.remove_redundancies(circ)
    assert _pair_second_occurrences(circ) == oracle_passes._pair_second_occurrences(circ.gates)


def _wide_spec(n: int, seed: int) -> TranspositionSpec:
    rng = random.Random(seed)
    a = [rng.choice("01") for _ in range(n)]
    b = list(a)
    for q in rng.sample(range(n), n // 2):
        b[q] = "1" if a[q] == "0" else "0"
    return TranspositionSpec(n, "".join(a), "".join(b))


_FIXED = {
    # Wide enough that a quadratic scan shows, small enough for the oracle.
    "thm3_b_n200": lambda: synthesize_transposition(_wide_spec(200, 7), SynthesisStrategy.THM3_B),
    "gray_n12_auto": lambda: lower_mcx_auto(
        synthesize_transposition(_wide_spec(12, 3), SynthesisStrategy.GRAY_CODE)
    ),
}


@pytest.mark.parametrize("mode", list(LoweringMode))
@pytest.mark.parametrize("case", sorted(_FIXED))
def test_fixed_compiles_match_forward_scan_oracle(case, mode):
    circ = _FIXED[case]()
    assert _pair_second_occurrences(circ) == oracle_passes._pair_second_occurrences(circ.gates)
    lowered = lower_all_toffolis(circ, mode)
    optimized = remove_redundancies(lowered)
    assert optimized == oracle_passes.remove_redundancies(lowered)
    assert len(optimized) < len(lowered)


def _unitary(circ):
    return np.column_stack([run_statevector(circ, k) for k in range(1 << circ.num_qubits)])


_PASSES = {
    "peephole": remove_redundancies,
    "naive": lambda c: lower_all_toffolis(c, LoweringMode.NAIVE),
    "inverse_aware": lambda c: lower_all_toffolis(c, LoweringMode.INVERSE_AWARE),
}


@pytest.mark.parametrize("name", sorted(_PASSES))
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(data=st.data())
def test_rewrite_passes_preserve_the_unitary(name, data):
    # Lowering refuses MCX, so its inputs stop at Toffoli.
    circ = data.draw(_circuits(max_qubits=6, max_gates=40, with_mcx=name == "peephole"))
    got = _unitary(_PASSES[name](circ))
    assert np.abs(got - _unitary(circ)).max() < 1e-9


def _same_branches(got, want) -> bool:
    """Equal shapes, keys and amplitude bit patterns (down to zero signs)."""
    return (
        got[0].shape == want[0].shape
        and np.array_equal(got[0], want[0])
        and np.array_equal(got[1].view(np.uint64), want[1].view(np.uint64))
    )


def _oracle_report(circ, spec, **kwargs) -> str:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "_run_branches", oracle_passes._run_branches)
        return verify_transposition(circ, spec, **kwargs).to_text()


def _assert_engine_matches_oracle(circ, spec, inputs, **kwargs):
    got = simulator._run_branches(circ.gates, inputs)
    assert _same_branches(got, oracle_passes._run_branches(circ.gates, inputs))
    assert verify_transposition(circ, spec, **kwargs).to_text() == _oracle_report(circ, spec, **kwargs)


@st.composite
def _branching_cases(draw):
    """A random circuit of 1-10 qubits over every kind, with random roles
    (at least one data qubit) and a spec over its data qubits.  Half open
    with H on three or four qubits, so inputs branch 8 or 16 wide."""
    circ = draw(_circuits(max_qubits=10, max_gates=40))
    width = circ.num_qubits
    opening = []
    if width >= 3 and draw(st.booleans()):
        opening = [h(q) for q in draw(st.permutations(range(width)))[: draw(st.integers(3, 4))]]
    roles = draw(st.lists(st.sampled_from(list(QubitRole)), min_size=width, max_size=width))
    roles[draw(st.integers(0, width - 1))] = QubitRole.DATA
    circ = circuit(width, opening + list(circ.gates), roles)
    n = roles.count(QubitRole.DATA)
    a = draw(st.integers(0, (1 << n) - 1))
    b = (a + draw(st.integers(1, (1 << n) - 1))) % (1 << n)
    return circ, TranspositionSpec(n, int_to_label(a, n), int_to_label(b, n))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_branching_cases(), st.sampled_from([None, 2]), st.integers(0, 3))
# Inputs with q0 = 0 merge at the second H and the others do not, so the
# sorted merge's +0 reaches every amplitude but the largest key of each
# unmerged input, some of which hold a -0.
@example((circuit(3, [h(1), toffoli(0, 1, 2), h(1)]), TranspositionSpec(3, "000", "111")), None, 0)
def test_branch_engine_matches_sorting_oracle(case, cap, seed):
    # cap 2 samples every sweep wider than two bits; sampled inputs may
    # repeat, which the engine must handle like any other inputs.
    circ, spec = case
    inputs = np.arange(1 << circ.num_qubits, dtype=np.uint64)
    _assert_engine_matches_oracle(circ, spec, inputs, enumeration_cap=cap, seed=seed)


def _thm3_b_lowered(mode):
    return lambda spec: lower_all_toffolis(
        synthesize_transposition(spec, SynthesisStrategy.THM3_B), mode
    )


_ENGINE_CASES = {
    # name: (spec, build)
    "thm3_a_n12": (
        _wide_spec(12, 5),
        lambda spec: synthesize_transposition(spec, SynthesisStrategy.THM3_A),
    ),
    "thm3_b_n10_naive": (_wide_spec(10, 6), _thm3_b_lowered(LoweringMode.NAIVE)),
    "thm3_b_n10_inverse_aware": (_wide_spec(10, 6), _thm3_b_lowered(LoweringMode.INVERSE_AWARE)),
    "gray_n8_auto": (
        _wide_spec(8, 4),
        lambda spec: lower_mcx_auto(synthesize_transposition(spec, SynthesisStrategy.GRAY_CODE)),
    ),
}


@pytest.mark.parametrize("case", sorted(_ENGINE_CASES))
def test_fixed_circuits_match_sorting_oracle(case):
    # Each compile as built (a PASS) and with its middle T, or for the
    # Toffoli-level ones its middle Toffoli, dropped (a FAIL, non-basis
    # for the lowered ones); exhaustive and sampled.
    spec, build = _ENGINE_CASES[case]
    good = build(spec)
    kind = GateKind.T if any(g.kind is GateKind.T for g in good.gates) else GateKind.TOFFOLI
    at = [i for i, g in enumerate(good.gates) if g.kind is kind]
    drop = at[len(at) // 2]
    broken = circuit(good.num_qubits, good.gates[:drop] + good.gates[drop + 1:], good.roles)
    swept = swept_qubits(good)
    inputs = _deposit(np.arange(1 << len(swept), dtype=np.uint64), swept)
    for circ in (good, broken):
        for cap in (None, 6):
            _assert_engine_matches_oracle(circ, spec, inputs, enumeration_cap=cap)
