import time

import numpy as np
import pytest

from transposynth.ir import (
    circuit,
    cnot,
    count_gates,
    h,
    mcx,
    s,
    sdg,
    t,
    tdg,
    toffoli,
    x,
)
from transposynth.peephole import remove_redundancies
from transposynth.simulator import run_statevector


def _assert_same_action(before, after):
    for k in range(1 << before.num_qubits):
        got = run_statevector(after, k)
        want = run_statevector(before, k)
        assert np.abs(got - want).max() < 1e-9


@pytest.mark.parametrize("pair", [
    [x(0), x(0)],
    [h(1), h(1)],
    [t(0), tdg(0)],
    [sdg(2), s(2)],
    [cnot(0, 1), cnot(0, 1)],
    [toffoli(0, 1, 2), toffoli(1, 0, 2)],
    [mcx((0, 1, 2), 3), mcx((2, 0, 1), 3)],
])
def test_adjacent_inverse_pairs_cancel(pair):
    c = circuit(4, pair)
    assert remove_redundancies(c).gates == ()


def test_cnot_direction_matters():
    c = circuit(2, [cnot(0, 1), cnot(1, 0)])
    assert remove_redundancies(c).gates == c.gates


def test_t_t_fuses_to_s():
    c = circuit(1, [t(0), t(0)])
    assert [g.kind.value for g in remove_redundancies(c).gates] == ["S"]
    c = circuit(1, [tdg(0), tdg(0)])
    assert [g.kind.value for g in remove_redundancies(c).gates] == ["SDG"]


def test_fused_s_keeps_cancelling():
    # T T Sdg -> S Sdg -> nothing
    c = circuit(1, [t(0), t(0), sdg(0)])
    assert remove_redundancies(c).gates == ()


def test_single_qubit_gates_slide_past_disjoint_support():
    c = circuit(3, [t(0), x(1), cnot(1, 2), tdg(0)])
    out = remove_redundancies(c)
    assert [g.kind.value for g in out.gates] == ["X", "CNOT"]


def test_cnot_slides_past_disjoint_support():
    c = circuit(4, [cnot(0, 1), x(2), h(3), cnot(0, 1)])
    out = remove_redundancies(c)
    assert [g.kind.value for g in out.gates] == ["X", "H"]


def test_first_overlap_blocks_the_search():
    # the X on the shared qubit stops T from reaching its partner
    c = circuit(2, [t(0), x(0), tdg(0)])
    assert remove_redundancies(c).gates == c.gates


def test_h_only_cancels_when_adjacent():
    blocked = circuit(2, [h(0), x(1), h(0)])
    assert remove_redundancies(blocked).gates == blocked.gates
    free = circuit(2, [h(0), h(0), x(1)])
    assert [g.kind.value for g in remove_redundancies(free).gates] == ["X"]


def test_toffoli_only_cancels_when_adjacent():
    blocked = circuit(4, [toffoli(0, 1, 2), x(3), toffoli(0, 1, 2)])
    assert remove_redundancies(blocked).gates == blocked.gates


def test_mcx_only_cancels_when_adjacent():
    blocked = circuit(5, [mcx((0, 1, 2), 3), x(4), mcx((0, 1, 2), 3)])
    assert remove_redundancies(blocked).gates == blocked.gates


def test_cascading_cancellation():
    # peeling the inner pair exposes the outer one
    c = circuit(2, [cnot(0, 1), x(0), x(0), cnot(0, 1)])
    assert remove_redundancies(c).gates == ()


def test_idempotent():
    c = circuit(3, [h(2), cnot(1, 2), tdg(2), cnot(0, 2), t(2), t(2),
                    x(0), x(0), s(1)])
    once = remove_redundancies(c)
    assert remove_redundancies(once) == once


def test_counts_never_increase_except_s_type():
    cases = [
        circuit(3, [t(0), t(0), cnot(0, 1), cnot(0, 1), h(2), h(2)]),
        circuit(4, [toffoli(0, 1, 2), x(3), toffoli(0, 1, 2), tdg(1), t(1)]),
        circuit(2, [t(0), x(1), t(0), x(1)]),
    ]
    for c in cases:
        before = count_gates(c)
        after = count_gates(remove_redundancies(c))
        for field in ("h", "x", "cnot", "toffoli", "mcx", "t_type"):
            assert getattr(after, field) <= getattr(before, field)
        assert after.total <= before.total


@pytest.mark.parametrize(
    "shape",
    [lambda m: [x(0)] * (2 * m), lambda m: [t(0)] * m + [tdg(0)] * m],
    ids=["X^2m", "T^m Tdg^m"],
)
def test_one_long_wire_scales_near_linearly(shape):
    # Ten times the gates on one wire may cost at most 25 times the time.
    # The pass reads 10-14 here; deleting dead gates from a per-wire list,
    # which moves the rest of the list each time, read 45-54.  Only wall
    # time tells the two apart.  So that a slow stretch on a shared
    # machine cannot fail it, the small case takes the best of 5 runs and
    # the large one passes on the first of up to 5 runs under the bound:
    # to fail, every large run has to be slow.
    def seconds(c):
        start = time.perf_counter()
        remove_redundancies(c)
        return time.perf_counter() - start

    small, large = circuit(1, shape(10**4)), circuit(1, shape(10**5))
    bound = 25 * min(seconds(small) for _ in range(5))
    assert any(seconds(large) < bound for _ in range(5))


@pytest.mark.parametrize("seed", range(6))
def test_random_circuits_keep_their_action(seed):
    rng = np.random.default_rng(seed)
    gates = []
    for _ in range(40):
        kind = rng.integers(0, 8)
        q = rng.permutation(4)[:3]
        if kind == 0:
            gates.append(h(int(q[0])))
        elif kind == 1:
            gates.append(x(int(q[0])))
        elif kind == 2:
            gates.append(t(int(q[0])))
        elif kind == 3:
            gates.append(tdg(int(q[0])))
        elif kind == 4:
            gates.append(s(int(q[0])))
        elif kind == 5:
            gates.append(sdg(int(q[0])))
        elif kind == 6:
            gates.append(cnot(int(q[0]), int(q[1])))
        else:
            gates.append(toffoli(int(q[0]), int(q[1]), int(q[2])))
    c = circuit(4, gates)
    _assert_same_action(c, remove_redundancies(c))
