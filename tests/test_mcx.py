import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_statevector import run_statevector
from transposynth.ir import GateKind, QubitRole, circuit, count_gates, label_to_int, mcx, toffoli, x
from transposynth.mcx import (
    McxStrategy,
    _network as _network_cache,
    borrowed_toffoli_count,
    clean_ladder_toffoli_count,
    lower_mcx,
    lower_mcx_auto,
    single_clean_toffoli_count,
)
from transposynth.simulator import verify_mcx

BORROWED = QubitRole.BORROWED_ANCILLA
CLEAN = QubitRole.CLEAN_ANCILLA
DATA = QubitRole.DATA

_ORACLE = {
    McxStrategy.BORROWED: borrowed_toffoli_count,
    McxStrategy.SINGLE_CLEAN: single_clean_toffoli_count,
    McxStrategy.CLEAN_LADDER: clean_ladder_toffoli_count,
}


def _ancillas_needed(strategy, n):
    return 1 if strategy is McxStrategy.SINGLE_CLEAN else n - 2


def _network(n, strategy):
    """An n-control X on wires 0..n-1, target n, ancillas appended after."""
    gate = mcx(tuple(range(n)), n)
    return lower_mcx(circuit(n + 1, [gate]), strategy), gate


def test_golden_borrowed_sequence_interleaved_layout():
    # 4 controls on an interleaved 7-qubit register; the 8 Toffolis come
    # out in two identical ladders of four.
    roles = (DATA, DATA, BORROWED, DATA, BORROWED, DATA, DATA)
    c = circuit(7, [mcx((0, 1, 3, 5), 6)], roles)
    got = [(g.kind, g.qubits) for g in lower_mcx(c, McxStrategy.BORROWED).gates]
    half = [
        (GateKind.TOFFOLI, (4, 5, 6)),
        (GateKind.TOFFOLI, (2, 3, 4)),
        (GateKind.TOFFOLI, (0, 1, 2)),
        (GateKind.TOFFOLI, (2, 3, 4)),
    ]
    assert got == half + half


@pytest.mark.parametrize("n", range(3, 8))
def test_borrowed_is_exhaustively_correct(n):
    report = verify_mcx(*_network(n, McxStrategy.BORROWED))
    assert report.passed and not report.sampled
    assert report.total_checked == 1 << (2 * n - 1)


@pytest.mark.parametrize("n", range(3, 8))
def test_single_clean_is_exhaustively_correct(n):
    report = verify_mcx(*_network(n, McxStrategy.SINGLE_CLEAN))
    assert report.passed and not report.sampled


@pytest.mark.parametrize("n", range(3, 8))
def test_clean_ladder_is_exhaustively_correct(n):
    report = verify_mcx(*_network(n, McxStrategy.CLEAN_LADDER))
    assert report.passed and not report.sampled


@pytest.mark.parametrize("n", range(3, 13))
def test_toffoli_count_formulas(n):
    def toffolis(strategy):
        return count_gates(_network(n, strategy)[0]).toffoli

    assert toffolis(McxStrategy.BORROWED) == borrowed_toffoli_count(n) == 4 * n - 8
    assert toffolis(McxStrategy.CLEAN_LADDER) == clean_ladder_toffoli_count(n) == 2 * n - 3
    assert toffolis(McxStrategy.SINGLE_CLEAN) == single_clean_toffoli_count(n)


_ROLE = {
    McxStrategy.BORROWED: BORROWED,
    McxStrategy.SINGLE_CLEAN: CLEAN,
    McxStrategy.CLEAN_LADDER: CLEAN,
}


@st.composite
def _placed_mcx(draw, strategy):
    # 3..7 controls on a register of at most 12 qubits, every wire
    # shuffled.  The wires the MCX leaves idle take any role, and some
    # get an X before and after the MCX; the register may have no idle
    # wire.  Returns the circuit, the MCX and the shortfall lower_mcx must
    # grow the register by: the borrowed strategy borrows idle wires,
    # whatever they hold, but a clean ancilla is always a new wire, so a
    # clean-role wire that an X sets never becomes one.
    k_max = 7 if strategy is McxStrategy.SINGLE_CLEAN else 6
    k = draw(st.integers(3, k_max))
    need = _ancillas_needed(strategy, k)
    width = draw(st.integers(k + 1, 12))
    wires = draw(st.permutations(range(width)))
    gate = mcx(tuple(wires[:k]), wires[k])
    idle = wires[k + 1 :]
    roles = [DATA] * width
    for w in idle:
        roles[w] = draw(st.sampled_from([DATA, CLEAN, BORROWED]))
    flips = [x(w) for w in idle if draw(st.booleans())]
    if strategy is McxStrategy.BORROWED:
        shortfall = max(0, need - len(idle))
    else:
        shortfall = need
    return circuit(width, flips + [gate] + flips, roles), gate, shortfall


@pytest.mark.parametrize("strategy", list(McxStrategy))
@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(data=st.data())
def test_lowered_mcx_matches_gate_and_count_oracle(strategy, data):
    circ, gate, shortfall = data.draw(_placed_mcx(strategy))
    lowered = lower_mcx(circ, strategy)
    report = verify_mcx(lowered, gate)
    assert report.passed and not report.sampled, report.to_text()
    assert lowered.num_qubits == circ.num_qubits + shortfall
    assert lowered.roles == circ.roles + (_ROLE[strategy],) * shortfall
    counts = count_gates(lowered)
    assert counts.toffoli == _ORACLE[strategy](len(gate.controls))
    assert counts.total == counts.toffoli + count_gates(circ).x
    assert lower_mcx_auto(circ) == lower_mcx(circ, McxStrategy.BORROWED)


def test_single_clean_count_table():
    assert [single_clean_toffoli_count(n) for n in range(3, 13)] == \
        [3, 6, 12, 16, 24, 28, 36, 40, 48, 52]


@pytest.mark.parametrize("n", range(5, 13))
def test_single_clean_stays_under_linear_cap(n):
    assert single_clean_toffoli_count(n) <= 6 * n - 18


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_borrowed_circuit_is_an_involution(n):
    # The network twice, then the MCX, acts as the MCX on every input
    # (borrowed wires swept) exactly when the network twice is the identity.
    c, gate = _network(n, McxStrategy.BORROWED)
    twice = circuit(c.num_qubits, c.gates + c.gates + (gate,), roles=c.roles)
    report = verify_mcx(twice, gate)
    assert report.passed and not report.sampled
    assert report.total_checked == 1 << c.num_qubits


def test_lower_mcx_degenerate_widths():
    c = circuit(3, [mcx((0,), 1), mcx((0, 2), 1)])
    lowered = lower_mcx(c, McxStrategy.BORROWED)
    assert [g.kind for g in lowered.gates] == [GateKind.CNOT, GateKind.TOFFOLI]


def test_lower_mcx_borrows_idle_qubits():
    # 5-qubit register, 3-control MCX leaves exactly one idle qubit.
    c = circuit(5, [mcx((0, 1, 2), 4)])
    lowered = lower_mcx(c, McxStrategy.BORROWED)
    assert count_gates(lowered).toffoli == 4
    assert any(3 in g.qubits for g in lowered.gates)


def test_lower_mcx_errors():
    c = circuit(4, [mcx((0, 1, 2), 3)])
    # No idle wire is no error: the register grows by the shortfall.
    grown = lower_mcx(c, McxStrategy.BORROWED)  # nothing idle to borrow
    assert grown.roles == c.roles + (BORROWED,)
    assert verify_mcx(grown, c.gates[0]).passed
    grown = lower_mcx(c, McxStrategy.SINGLE_CLEAN)
    assert grown.roles == c.roles + (CLEAN,)
    assert verify_mcx(grown, c.gates[0]).passed


@pytest.mark.parametrize("strategy", [McxStrategy.SINGLE_CLEAN, McxStrategy.CLEAN_LADDER])
def test_a_clean_wire_another_gate_sets_is_never_a_clean_ancilla(strategy):
    # Wire 4 is clean, but the X gates hold it at 1 while the MCX fires.
    # Taken as the clean ancilla, as a caller-given pool of (4,) used to
    # make it, the lowered circuit failed on 8 of 16 inputs, silently.
    gate = mcx((0, 1, 2), 3)
    c = circuit(5, [x(4), gate, x(4)], (DATA,) * 4 + (CLEAN,))
    assert verify_mcx(c, gate).passed
    lowered = lower_mcx(c, strategy)
    assert lowered.num_qubits == 6 and lowered.roles[-1] is CLEAN
    report = verify_mcx(lowered, gate)
    assert report.passed and report.total_checked == 16, report.to_text()


def test_lower_mcx_auto_grows_register():
    c = circuit(4, [mcx((0, 1, 2), 3)])
    lowered = lower_mcx_auto(c)
    assert lowered.num_qubits == 5
    assert lowered.roles[4] is BORROWED
    assert count_gates(lowered).toffoli == 4
    # and the grown circuit still computes the AND
    assert abs(run_statevector(lowered, "11100")[label_to_int("11110", 5)] - 1.0) < 1e-12
    assert abs(run_statevector(lowered, "11010")[label_to_int("11010", 5)] - 1.0) < 1e-12


def test_lower_mcx_auto_without_shortfall_keeps_register():
    c = circuit(5, [mcx((0, 1, 2), 4), toffoli(0, 1, 3)])
    lowered = lower_mcx_auto(c)
    assert lowered.num_qubits == 5
    assert count_gates(lowered).toffoli == 4 + 1


@pytest.mark.parametrize("strategy", ["borrowed", "clean_ladder", None, 0])
def test_lower_mcx_rejects_a_strategy_that_is_not_an_mcx_strategy(strategy):
    # "borrowed" used to build the clean ladder and append two clean wires.
    c = circuit(4, [mcx((0, 1, 2), 3)])
    before = _network_cache.cache_info()
    with pytest.raises(ValueError, match="McxStrategy"):
        lower_mcx(c, strategy)
    assert _network_cache.cache_info() == before  # refused before any lookup


@pytest.mark.parametrize("strategy", list(McxStrategy))
def test_lowering_a_circuit_twice_gives_equal_circuits(strategy):
    c = circuit(6, [mcx((0, 1, 2, 3), 4), toffoli(0, 1, 5), mcx((0, 1, 2, 3), 4)])
    first = lower_mcx(c, strategy)
    _network_cache.cache_clear()
    assert lower_mcx(c, strategy) == first  # built afresh
    assert lower_mcx(c, strategy) == first  # from the cache
    # The repeated MCX is one network: its two copies are the same gates.
    half = (len(first.gates) - 1) // 2
    assert all(a is b for a, b in zip(first.gates[:half], first.gates[half + 1 :]))
