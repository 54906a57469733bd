import pytest

from transposynth.ir import GateKind, QubitRole, circuit, count_gates, mcx, toffoli
from transposynth.mcx import (
    McxLayout,
    McxStrategy,
    borrowed_toffoli_count,
    clean_ladder_toffoli_count,
    lower_mcx,
    lower_mcx_auto,
    mcx_borrowed,
    mcx_clean_ladder,
    mcx_single_clean,
    single_clean_toffoli_count,
)
from transposynth.simulator import run_reversible, verify_mcx

BORROWED = QubitRole.BORROWED_ANCILLA
CLEAN = QubitRole.CLEAN_ANCILLA


def _layout(n, kind, n_anc):
    return McxLayout(tuple(range(n)), n, tuple(range(n + 1, n + 1 + n_anc)), kind)


def test_golden_borrowed_sequence_interleaved_layout():
    # 4 controls on an interleaved 7-qubit register; the 8 Toffolis come
    # out in two identical ladders of four.
    lay = McxLayout(controls=(0, 1, 3, 5), target=6, ancillas=(2, 4),
                    ancilla_kind=BORROWED)
    got = [(g.kind, g.qubits) for g in mcx_borrowed(lay).gates]
    half = [
        (GateKind.TOFFOLI, (4, 5, 6)),
        (GateKind.TOFFOLI, (2, 3, 4)),
        (GateKind.TOFFOLI, (0, 1, 2)),
        (GateKind.TOFFOLI, (2, 3, 4)),
    ]
    assert got == half + half


@pytest.mark.parametrize("n", range(3, 8))
def test_borrowed_is_exhaustively_correct(n):
    lay = _layout(n, BORROWED, n - 2)
    report = verify_mcx(mcx_borrowed(lay), lay)
    assert report.passed and not report.sampled
    assert report.total_checked == 1 << (2 * n - 1)


@pytest.mark.parametrize("n", range(3, 8))
def test_single_clean_is_exhaustively_correct(n):
    lay = _layout(n, CLEAN, 1)
    report = verify_mcx(mcx_single_clean(lay), lay)
    assert report.passed and not report.sampled


@pytest.mark.parametrize("n", range(3, 8))
def test_clean_ladder_is_exhaustively_correct(n):
    lay = _layout(n, CLEAN, n - 2)
    report = verify_mcx(mcx_clean_ladder(lay), lay)
    assert report.passed and not report.sampled


@pytest.mark.parametrize("n", range(3, 13))
def test_toffoli_count_formulas(n):
    assert count_gates(mcx_borrowed(_layout(n, BORROWED, n - 2))).toffoli \
        == borrowed_toffoli_count(n) == 4 * n - 8
    assert count_gates(mcx_clean_ladder(_layout(n, CLEAN, n - 2))).toffoli \
        == clean_ladder_toffoli_count(n) == 2 * n - 3
    assert count_gates(mcx_single_clean(_layout(n, CLEAN, 1))).toffoli \
        == single_clean_toffoli_count(n)


def test_single_clean_count_table():
    assert [single_clean_toffoli_count(n) for n in range(3, 13)] == \
        [3, 6, 12, 16, 24, 28, 36, 40, 48, 52]


@pytest.mark.parametrize("n", range(5, 13))
def test_single_clean_stays_under_linear_cap(n):
    assert single_clean_toffoli_count(n) <= 6 * n - 18


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_borrowed_circuit_is_an_involution(n):
    lay = _layout(n, BORROWED, n - 2)
    c = mcx_borrowed(lay)
    twice = circuit(c.num_qubits, c.gates + c.gates, roles=c.roles)
    for value in range(1 << c.num_qubits):
        state = "".join(str((value >> i) & 1) for i in range(c.num_qubits))
        assert run_reversible(twice, state).bits == state


def test_layout_validation():
    with pytest.raises(ValueError):
        McxLayout((0, 1, 2), 2, (4,), CLEAN)          # target among controls
    with pytest.raises(ValueError):
        McxLayout((0, 1, 2), 3, (0,), BORROWED)        # ancilla among controls
    with pytest.raises(ValueError):
        McxLayout((0, 1), 2, (), BORROWED)             # too few controls
    with pytest.raises(ValueError):
        McxLayout((0, 1, 2), 3, (4,), QubitRole.DATA)  # not an ancilla kind


def test_constructors_reject_wrong_ancilla_contract():
    with pytest.raises(ValueError):
        mcx_borrowed(_layout(4, CLEAN, 2))
    with pytest.raises(ValueError):
        mcx_single_clean(_layout(4, CLEAN, 2))
    with pytest.raises(ValueError):
        mcx_clean_ladder(_layout(4, BORROWED, 2))
    with pytest.raises(ValueError):
        mcx_borrowed(_layout(5, BORROWED, 2))  # needs n-2 = 3


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
        lower_mcx(c, McxStrategy.BORROWED)  # nothing idle to borrow
    with pytest.raises(ValueError):
        lower_mcx(c, McxStrategy.SINGLE_CLEAN)  # empty pool
    with pytest.raises(ValueError):
        lower_mcx(c, McxStrategy.CLEAN_LADDER, ancilla_pool=(0,))  # overlap


def test_lower_mcx_auto_grows_register():
    c = circuit(4, [mcx((0, 1, 2), 3)])
    lowered = lower_mcx_auto(c)
    assert lowered.num_qubits == 5
    assert lowered.roles[4] is BORROWED
    assert count_gates(lowered).toffoli == 4
    # and the grown circuit still computes the AND
    assert run_reversible(lowered, "11100").bits == "11110"
    assert run_reversible(lowered, "11010").bits == "11010"


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

