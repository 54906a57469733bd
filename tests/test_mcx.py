import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_statevector import run_statevector
from transposynth.ir import GateKind, QubitRole, circuit, count_gates, label_to_int, mcx, toffoli
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
    """An n-control X on wires 0..n-1, target n, ancillas right after."""
    n_anc = _ancillas_needed(strategy, n)
    role = BORROWED if strategy is McxStrategy.BORROWED else CLEAN
    gate = mcx(tuple(range(n)), n)
    roles = (DATA,) * (n + 1) + (role,) * n_anc
    ancillas = tuple(range(n + 1, n + 1 + n_anc))
    return lower_mcx(circuit(len(roles), [gate], roles), strategy, ancillas), gate


def test_golden_borrowed_sequence_interleaved_layout():
    # 4 controls on an interleaved 7-qubit register; the 8 Toffolis come
    # out in two identical ladders of four.
    roles = (DATA, DATA, BORROWED, DATA, BORROWED, DATA, DATA)
    c = circuit(7, [mcx((0, 1, 3, 5), 6)], roles)
    got = [(g.kind, g.qubits) for g in lower_mcx(c, McxStrategy.BORROWED, (2, 4)).gates]
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
    # shuffled.  The pool may fall short of the strategy's ancillas, and
    # the register may have no idle wire; returns the circuit, the pool
    # and the shortfall lower_mcx must grow the register by.
    k_max = 7 if strategy is McxStrategy.SINGLE_CLEAN else 6
    k = draw(st.integers(3, k_max))
    need = _ancillas_needed(strategy, k)
    given = draw(st.integers(0, need))
    width = k + 1 + given
    if draw(st.booleans()):
        width = draw(st.integers(width, 12))  # spare wires left idle
    wires = draw(st.permutations(range(width)))
    controls, target = tuple(wires[:k]), wires[k]
    ancillas = tuple(wires[k + 1 : k + 1 + given])
    roles = [DATA] * width
    for a in ancillas:
        roles[a] = _ROLE[strategy]
    if strategy is McxStrategy.BORROWED:
        # Idle wires count as well, and may stand in for the pool.
        shortfall = max(0, need - (width - k - 1))
        if draw(st.booleans()):
            ancillas = ()
    else:
        shortfall = need - given
    return circuit(width, [mcx(controls, target)], roles), ancillas, shortfall


@pytest.mark.parametrize("strategy", list(McxStrategy))
@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(data=st.data())
def test_lowered_mcx_matches_gate_and_count_oracle(strategy, data):
    circ, ancillas, shortfall = data.draw(_placed_mcx(strategy))
    gate = circ.gates[0]
    lowered = lower_mcx(circ, strategy, ancillas)
    assert lowered.num_qubits == circ.num_qubits + shortfall
    assert lowered.roles == circ.roles + (_ROLE[strategy],) * shortfall
    report = verify_mcx(lowered, gate)
    assert report.passed and not report.sampled, report.to_text()
    counts = count_gates(lowered)
    assert counts.total == counts.toffoli == _ORACLE[strategy](len(gate.controls))
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


def test_lower_mcx_pool_takes_priority_over_idle():
    c = circuit(6, [mcx((0, 1, 2), 4)])
    lowered = lower_mcx(c, McxStrategy.BORROWED, ancilla_pool=(5,))
    assert any(5 in g.qubits for g in lowered.gates)
    assert not any(3 in g.qubits for g in lowered.gates)


def test_lower_mcx_errors():
    c = circuit(4, [mcx((0, 1, 2), 3)])
    with pytest.raises(ValueError):
        lower_mcx(c, McxStrategy.CLEAN_LADDER, ancilla_pool=(0,))  # overlap
    with pytest.raises(ValueError, match="overlaps"):
        lower_mcx(c, McxStrategy.BORROWED, ancilla_pool=(0,))
    with pytest.raises(ValueError, match="outside"):
        lower_mcx(c, McxStrategy.BORROWED, ancilla_pool=(4,))
    # A short pool is no error: the register grows by the shortfall.
    grown = lower_mcx(c, McxStrategy.BORROWED)  # nothing idle to borrow
    assert grown.roles == c.roles + (BORROWED,)
    assert verify_mcx(grown, c.gates[0]).passed
    grown = lower_mcx(c, McxStrategy.SINGLE_CLEAN)  # empty pool
    assert grown.roles == c.roles + (CLEAN,)
    assert verify_mcx(grown, c.gates[0]).passed


@pytest.mark.parametrize("strategy, pool", [
    (McxStrategy.BORROWED, (5.0, 6, 7)),      # a float qubit
    (McxStrategy.BORROWED, (True,)),          # a bool, not qubit 1
    (McxStrategy.BORROWED, (6, 5, 5)),
    (McxStrategy.BORROWED, (5, 5, 6)),
    (McxStrategy.SINGLE_CLEAN, (5, 5, 6)),
    (McxStrategy.CLEAN_LADDER, (5, 6, 5)),
])
def test_lower_mcx_rejects_bad_pool_entries(strategy, pool):
    # Checked up front, before any gate is built: the ladder gates are not
    # validated one by one.
    # Qubit 1 is a free ancilla wire, so True (== 1) would pass every
    # other pool check.
    role = BORROWED if strategy is McxStrategy.BORROWED else CLEAN
    roles = (DATA, role, DATA, DATA, DATA, role, role, role, DATA)
    c = circuit(9, [mcx((0, 2, 3, 4), 8)], roles)
    with pytest.raises(ValueError, match="ancilla pool"):
        lower_mcx(c, strategy, pool)


@pytest.mark.parametrize("pool", [5, None])
def test_lower_mcx_rejects_a_pool_that_is_not_iterable(pool):
    # Both used to raise TypeError: "object is not iterable".
    c = circuit(9, [mcx((0, 2, 3, 4), 8)])
    with pytest.raises(ValueError, match="ancilla pool must be an iterable"):
        lower_mcx(c, McxStrategy.BORROWED, pool)


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


@pytest.mark.parametrize("strategy", [McxStrategy.SINGLE_CLEAN, McxStrategy.CLEAN_LADDER])
@pytest.mark.parametrize("role", [QubitRole.DATA, BORROWED])
def test_clean_strategies_reject_non_clean_pool(strategy, role):
    # Lowering onto a data qubit would compute the AND into live data:
    # 11101 would map to itself instead of 11111.
    c = circuit(5, [mcx((0, 1, 2), 3)], roles=(QubitRole.DATA,) * 4 + (role,))
    with pytest.raises(ValueError, match="clean"):
        lower_mcx(c, strategy, (4,))


def test_clean_strategies_reject_pool_outside_register():
    c = circuit(4, [mcx((0, 1, 2), 3)])
    with pytest.raises(ValueError):
        lower_mcx(c, McxStrategy.CLEAN_LADDER, (4,))


@pytest.mark.parametrize("strategy", ["borrowed", "clean_ladder", None, 0])
def test_lower_mcx_rejects_a_strategy_that_is_not_an_mcx_strategy(strategy):
    # "borrowed" used to build the clean ladder and append two clean wires.
    c = circuit(4, [mcx((0, 1, 2), 3)])
    before = _network_cache.cache_info()
    with pytest.raises(ValueError, match="McxStrategy"):
        lower_mcx(c, strategy)
    assert _network_cache.cache_info() == before  # refused before any lookup


@pytest.mark.parametrize("strategy", list(McxStrategy))
def test_lower_mcx_network_depends_on_pool_order(strategy):
    # One cached network per (strategy, controls, target, ancillas): the
    # same MCX on the pool in another order is another network.
    role = BORROWED if strategy is McxStrategy.BORROWED else CLEAN
    gate = mcx((0, 1, 2, 3), 4)
    c = circuit(7, [gate], (DATA,) * 5 + (role, role))
    forward = lower_mcx(c, strategy, (5, 6))
    backward = lower_mcx(c, strategy, (6, 5))
    assert forward.gates != backward.gates
    assert verify_mcx(forward, gate).passed and verify_mcx(backward, gate).passed


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
