import numpy as np
import pytest

from oracle_statevector import run_statevector
from transposynth.ir import (
    Gate,
    GateKind,
    circuit,
    cnot,
    count_gates,
    h,
    mcx,
    toffoli,
    x,
)
from transposynth.lowering import LoweringMode, ToffoliOrientation, lower_all_toffolis
from transposynth.peephole import remove_redundancies
from transposynth.simulator import verify_transposition
from transposynth.transposition import (
    SynthesisStrategy,
    TranspositionSpec,
    synthesize_transposition,
)

STD = ToffoliOrientation.STANDARD
INV = ToffoliOrientation.INVERTED


def lowered_block(g, orientation):
    """The 16-gate block of the Toffoli g in orientation, through
    lower_all_toffolis: g alone, lowered naive, is the standard block; g
    twice, lowered inverse-aware, is the standard block and then the
    inverted one."""
    width = max(g.qubits) + 1
    if orientation is STD:
        return lower_all_toffolis(circuit(width, [g]), LoweringMode.NAIVE).gates
    return lower_all_toffolis(circuit(width, [g, g]), LoweringMode.INVERSE_AWARE).gates[16:]


def _unitary(circ):
    return np.column_stack([run_statevector(circ, k) for k in range(1 << circ.num_qubits)])


def _toffoli_matrix():
    # flips qubit 2 when qubits 0 and 1 are set: swaps indices 3 and 7
    return np.eye(8)[:, [0, 1, 2, 7, 4, 5, 6, 3]]


def test_standard_lowering_structure():
    gates = lowered_block(toffoli(0, 1, 2), STD)
    assert len(gates) == 16
    k = count_gates(circuit(3, gates))
    assert (k.cnot, k.h, k.t_type, k.s_type) == (6, 2, 7, 1)
    assert gates[0].kind is GateKind.H and gates[0].target == 2
    assert gates[-1].kind is GateKind.S and gates[-1].target == 1


@pytest.mark.parametrize("orientation", [STD, INV])
def test_lowering_matches_toffoli_unitary(orientation):
    c = circuit(3, lowered_block(toffoli(0, 1, 2), orientation))
    assert np.abs(_unitary(c) - _toffoli_matrix()).max() < 1e-12


def test_inverted_is_exact_inverse_of_standard():
    fwd = lowered_block(toffoli(0, 1, 2), STD)
    rev = lowered_block(toffoli(0, 1, 2), INV)
    # Reversed, each gate daggered: T <-> Tdg, S <-> Sdg, the rest their own.
    dagger = {GateKind.T: GateKind.TDG, GateKind.S: GateKind.SDG}
    dagger |= {v: k for k, v in dagger.items()}
    assert rev == tuple(Gate(dagger.get(g.kind, g.kind), g.controls, g.target) for g in fwd[::-1])


def test_lowering_respects_qubit_mapping():
    g = toffoli(4, 2, 0)
    gates = lowered_block(g, STD)
    assert {q for gate in gates for q in gate.qubits} == {0, 2, 4}
    c = circuit(5, gates)
    ref = circuit(5, [g])
    got = np.column_stack([run_statevector(c, k) for k in range(32)])
    want = np.column_stack([run_statevector(ref, k) for k in range(32)])
    assert np.abs(got - want).max() < 1e-12


@pytest.mark.parametrize("mode", ["inverse_aware", INV, None])
def test_lower_all_toffolis_rejects_a_mode_that_is_not_a_lowering_mode(mode):
    # "inverse_aware" used to lower naive.
    with pytest.raises(ValueError, match="LoweringMode"):
        lower_all_toffolis(circuit(3, [toffoli(0, 1, 2), toffoli(0, 1, 2)]), mode)


def test_naive_count_law():
    c = circuit(5, [toffoli(0, 1, 2), x(3), toffoli(2, 3, 4), h(0)])
    k = count_gates(lower_all_toffolis(c, LoweringMode.NAIVE))
    assert k.toffoli == 0
    assert k.cnot == 12
    assert k.t_type == 14
    assert k.s_type == 2
    assert k.h == 2 * 2 + 1


def test_lower_all_refuses_mcx():
    c = circuit(4, [mcx((0, 1, 2), 3)])
    with pytest.raises(ValueError):
        lower_all_toffolis(c, LoweringMode.NAIVE)


def test_inverse_aware_pairs_across_disjoint_gate():
    c = circuit(4, [toffoli(0, 1, 2), x(3), toffoli(0, 1, 2)])
    lowered = lower_all_toffolis(c, LoweringMode.INVERSE_AWARE)
    first = lowered_block(toffoli(0, 1, 2), STD)
    second = lowered_block(toffoli(0, 1, 2), INV)
    assert lowered.gates == first + (x(3),) + second


def test_inverse_aware_pairing_blocked_by_overlap():
    # an X on a shared qubit sits between the Toffolis: no pairing
    c = circuit(3, [toffoli(0, 1, 2), x(2), toffoli(0, 1, 2)])
    lowered = lower_all_toffolis(c, LoweringMode.INVERSE_AWARE)
    naive = lower_all_toffolis(c, LoweringMode.NAIVE)
    assert lowered == naive


def test_inverse_aware_matches_unordered_controls():
    c = circuit(3, [toffoli(0, 1, 2), toffoli(1, 0, 2)])
    lowered = lower_all_toffolis(c, LoweringMode.INVERSE_AWARE)
    assert remove_redundancies(lowered).gates == ()


def test_pairs_do_not_chain():
    c = circuit(3, [toffoli(0, 1, 2)] * 3)
    lowered = lower_all_toffolis(c, LoweringMode.INVERSE_AWARE)
    # first two cancel, third stays as a full standard lowering
    assert count_gates(remove_redundancies(lowered)).total == 16
    std = lowered_block(toffoli(0, 1, 2), STD)
    assert lowered.gates == std + lowered_block(toffoli(0, 1, 2), INV) + std


@pytest.mark.parametrize("mode", [LoweringMode.NAIVE, LoweringMode.INVERSE_AWARE])
def test_lowering_preserves_semantics(mode):
    c = circuit(4, [h(3), toffoli(0, 1, 2), cnot(2, 3), toffoli(0, 1, 2),
                    x(0), toffoli(1, 2, 3)])
    got = _unitary(lower_all_toffolis(c, mode))
    want = _unitary(c)
    assert np.abs(got - want).max() < 1e-9


def test_inverse_aware_never_worse_than_naive_after_cleanup():
    cases = [
        circuit(4, [toffoli(0, 1, 2), x(3), toffoli(0, 1, 2)]),
        circuit(4, [toffoli(0, 1, 2), toffoli(0, 1, 2), toffoli(0, 1, 3)]),
        circuit(5, [toffoli(0, 1, 2), cnot(3, 4), toffoli(0, 1, 2), toffoli(2, 3, 4)]),
        circuit(3, [toffoli(0, 1, 2), x(2), toffoli(0, 1, 2)]),
    ]
    for c in cases:
        smart = count_gates(remove_redundancies(
            lower_all_toffolis(c, LoweringMode.INVERSE_AWARE))).total
        plain = count_gates(remove_redundancies(
            lower_all_toffolis(c, LoweringMode.NAIVE))).total
        assert smart <= plain


def test_inverse_aware_pairs_fire_in_a_synthesized_circuit():
    # thm3_b pairs projector Toffolis when both labels hold 1 on qubits 0
    # and 1, so no X on those wires sits between the two MCX networks.
    spec = TranspositionSpec(6, "110100", "111011")
    toffoli_level = synthesize_transposition(spec, SynthesisStrategy.THM3_B)
    smart = remove_redundancies(lower_all_toffolis(toffoli_level, LoweringMode.INVERSE_AWARE))
    plain = remove_redundancies(lower_all_toffolis(toffoli_level, LoweringMode.NAIVE))
    assert len(smart.gates) < len(plain.gates)
    report = verify_transposition(smart, spec)
    assert report.passed and not report.sampled
    assert report.total_checked == 1 << spec.n
