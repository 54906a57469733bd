import pytest

from transposynth.harness import sample_transpositions
from transposynth.ir import GateKind, QubitRole, count_gates, x
from transposynth.mcx import McxStrategy, lower_mcx_auto
from transposynth.simulator import verify_transposition
from transposynth.transposition import (
    SynthesisStrategy,
    TranspositionSpec,
    cnot_bound,
    synthesize_transposition,
    toffoli_bound,
)

A = SynthesisStrategy.THM3_A
B = SynthesisStrategy.THM3_B
GRAY = SynthesisStrategy.GRAY_CODE


def test_spec_validation():
    with pytest.raises(ValueError):
        TranspositionSpec(3, "001", "001")   # identical labels
    with pytest.raises(ValueError):
        TranspositionSpec(3, "01", "001")    # wrong length
    with pytest.raises(ValueError):
        TranspositionSpec(3, "0x1", "001")
    with pytest.raises(ValueError):
        TranspositionSpec(0, "", "")


@pytest.mark.parametrize("strategy", ["thm3_a", "gray", McxStrategy.CLEAN_LADDER, None])
def test_synthesis_rejects_a_strategy_that_is_not_a_synthesis_strategy(strategy):
    # "thm3_a" used to raise KeyError, and toffoli_bound("thm3_a", 5) used
    # to return 14, thm3_b's 4n-6, where thm3_a's bound is 24.
    with pytest.raises(ValueError, match="SynthesisStrategy"):
        synthesize_transposition(TranspositionSpec(4, "0000", "1011"), strategy)
    with pytest.raises(ValueError, match="strategy must be a SynthesisStrategy"):
        toffoli_bound(strategy, 5)


@pytest.mark.parametrize("n", [3.0, True, "3"])
def test_spec_refuses_a_width_that_is_not_an_int(n):
    # 3.0 used to fail with TypeError inside synthesis; True was accepted.
    with pytest.raises(ValueError, match="n must be an int"):
        TranspositionSpec(n, "010", "101")
    with pytest.raises(ValueError, match="n must be an int"):
        TranspositionSpec(n, "0", "1")


def test_spec_ints_are_stored_but_not_compared():
    spec = TranspositionSpec(4, "0110", "1011")
    assert "a_int" in vars(spec) and (spec.a_int, spec.b_int) == (6, 13)
    twin = TranspositionSpec(4, "0110", "1011")
    object.__setattr__(twin, "a_int", 0)
    assert twin == spec and hash(twin) == hash(spec)
    assert repr(spec) == "TranspositionSpec(n=4, a='0110', b='1011')"
    assert spec != TranspositionSpec(4, "1011", "0110")


def test_spec_bit_order():
    spec = TranspositionSpec(3, "110", "011")
    assert spec.a_int == 3   # bit i of the string is qubit i
    assert spec.b_int == 6
    assert spec.differing_bits() == (0, 2)
    assert spec.hamming_distance() == 2


def test_projector_controlled_x_sandwich():
    # a and b differ on qubit 3 alone, so the gray walk is one projector:
    # X on 3 iff qubits 0, 1, 2 read a's 0, 1, 0.
    gates = synthesize_transposition(TranspositionSpec(4, "0100", "0101"), GRAY).gates
    kinds = [g.kind for g in gates]
    assert kinds == [GateKind.X, GateKind.X, GateKind.MCX, GateKind.X, GateKind.X]
    assert {g.target for g in gates if g.kind is GateKind.X} == {0, 2}
    assert gates[2].controls == (0, 1, 2) and gates[2].target == 3


def test_projector_controlled_x_degenerates_to_x():
    # One data qubit: the projector has no controls left.
    gates = synthesize_transposition(TranspositionSpec(1, "0", "1"), GRAY).gates
    assert gates == (x(0),)


def _extra_qubits(strategy, n):
    """Qubits beyond the n data qubits: the flag, plus what the two
    n-control MCX take (one clean ancilla for thm3_a, n-2 for thm3_b)."""
    if strategy is GRAY:
        return 0
    if n <= 2:
        return 1
    return 2 if strategy is A else n - 1


@pytest.mark.parametrize("strategy,n,expected", [
    (A, 1, 1), (A, 2, 1), (A, 3, 2), (A, 8, 2),
    (B, 1, 1), (B, 2, 1), (B, 3, 2), (B, 8, 7),
    (GRAY, 5, 0),
])
def test_ancilla_requirement(strategy, n, expected):
    spec = sample_transpositions(n, 1, seed=5)[0]
    assert synthesize_transposition(spec, strategy).num_qubits - n == expected
    assert _extra_qubits(strategy, n) == expected


@pytest.mark.parametrize("strategy", [A, B])
@pytest.mark.parametrize("n", range(1, 8))
def test_register_layout(strategy, n):
    spec = sample_transpositions(n, 1, seed=5)[0]
    c = synthesize_transposition(spec, strategy)
    assert c.num_qubits - n == _extra_qubits(strategy, n)
    assert c.roles[:n] == (QubitRole.DATA,) * n
    assert all(r is QubitRole.CLEAN_ANCILLA for r in c.roles[n:])
    assert not any(g.kind is GateKind.MCX for g in c.gates)


@pytest.mark.parametrize("strategy", [A, B])
@pytest.mark.parametrize("n", range(1, 8))
def test_synthesized_circuits_verify(strategy, n):
    for spec in sample_transpositions(n, 4, seed=11):
        report = verify_transposition(synthesize_transposition(spec, strategy), spec)
        assert report.passed, report.to_text()


@pytest.mark.parametrize("strategy", [A, B])
def test_counts_symmetric_in_a_and_b(strategy):
    fwd = TranspositionSpec(5, "01101", "10010")
    rev = TranspositionSpec(5, "10010", "01101")
    assert count_gates(synthesize_transposition(fwd, strategy)) == \
        count_gates(synthesize_transposition(rev, strategy))


@pytest.mark.parametrize("strategy", [A, B])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_structural_count_laws(strategy, n):
    for spec in sample_transpositions(n, 4, seed=2):
        k = count_gates(synthesize_transposition(spec, strategy))
        assert k.h == 2
        assert k.cnot == 2 * spec.hamming_distance()
        assert k.x <= 4 * n
        bound = toffoli_bound(strategy, n)
        assert k.toffoli <= bound
        if strategy is B and n >= 2:
            assert k.toffoli == bound  # ladders never shed a Toffoli


def test_cnot_bound_small_n():
    assert cnot_bound(1) == 4
    assert [cnot_bound(n) for n in (2, 3, 10)] == [4, 6, 20]
    with pytest.raises(ValueError):
        cnot_bound(0)


@pytest.mark.parametrize("n", [3.0, True])
def test_bounds_refuse_an_n_that_is_not_an_int(n):
    # cnot_bound(3.0) used to return 6.0 and toffoli_bound(B, 5.0) 14.0.
    with pytest.raises(ValueError, match="n must be an int"):
        cnot_bound(n)
    with pytest.raises(ValueError, match="n must be an int"):
        toffoli_bound(B, n)


def test_toffoli_bound_values():
    assert toffoli_bound(A, 1) == 0
    assert toffoli_bound(B, 2) == 2
    assert toffoli_bound(A, 3) == toffoli_bound(B, 3) == 6
    assert toffoli_bound(A, 10) == 84
    assert toffoli_bound(B, 10) == 34
    assert toffoli_bound(GRAY, 5) is None


@pytest.mark.parametrize("strategy", [A, B])
def test_double_application_is_identity(strategy):
    import numpy as np

    from oracle_statevector import run_statevector

    spec = TranspositionSpec(4, "0110", "1011")
    c = synthesize_transposition(spec, strategy)
    twice = type(c)(c.num_qubits, c.roles, c.gates + c.gates)
    for value in (spec.a_int, spec.b_int, 0, 5, 13):
        out = run_statevector(twice, value)  # ancillas start at |0>
        assert abs(out[value] - 1.0) < 1e-9
        assert np.abs(np.delete(out, value)).max() < 1e-9


@pytest.mark.parametrize("n,a,b,steps", [
    (4, "0000", "1000", 1),
    (4, "0000", "1100", 3),
    (4, "0110", "1001", 7),
    (5, "00000", "11111", 9),
])
def test_gray_walk_length(n, a, b, steps):
    c = synthesize_transposition(TranspositionSpec(n, a, b), GRAY)
    assert count_gates(c).mcx == steps  # 2m-1 projector steps
    assert c.num_qubits == n


def test_gray_single_qubit_is_plain_x():
    c = synthesize_transposition(TranspositionSpec(1, "0", "1"), GRAY)
    assert [g.kind for g in c.gates] == [GateKind.X]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_gray_circuits_permute_correctly(n):
    for spec in sample_transpositions(n, 4, seed=9):
        c = lower_mcx_auto(synthesize_transposition(spec, GRAY))
        # Every data input swapped or fixed, borrowed bits swept and restored.
        report = verify_transposition(c, spec)
        assert report.passed and not report.sampled
        assert report.total_checked == 1 << c.num_qubits
