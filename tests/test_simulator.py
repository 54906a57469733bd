import numpy as np
import pytest

from transposynth.ir import (
    QubitRole,
    circuit,
    cnot,
    h,
    int_to_label,
    mcx,
    s,
    t,
    toffoli,
    x,
)
from transposynth.mcx import McxStrategy, lower_mcx
from transposynth.simulator import (
    DEFAULT_SIM_CAP,
    SIM_CAP_ENV,
    _draws,
    _run_branches,
    _sweep,
    run_statevector,
    sim_cap,
    swept_qubits,
    verify_mcx,
    verify_transposition,
)
from transposynth.transposition import (
    SynthesisStrategy,
    TranspositionSpec,
    synthesize_transposition,
)


def _borrowed_mcx():
    # 3-control X on 0,1,2 -> 3 with qubit 4 as the borrowed ancilla.
    gate = mcx((0, 1, 2), 3)
    roles = (QubitRole.DATA,) * 4 + (QubitRole.BORROWED_ANCILLA,)
    return lower_mcx(circuit(5, [gate], roles), McxStrategy.BORROWED, (4,)), gate


def test_statevector_matches_reversible_on_permutations():
    rng = np.random.default_rng(1)
    gates = []
    for _ in range(30):
        q = rng.permutation(5)[:3]
        pick = rng.integers(0, 3)
        if pick == 0:
            gates.append(x(int(q[0])))
        elif pick == 1:
            gates.append(cnot(int(q[0]), int(q[1])))
        else:
            gates.append(toffoli(int(q[0]), int(q[1]), int(q[2])))
    c = circuit(5, gates)
    # The branch engine runs a permutation circuit as one branch per input.
    keys, amps = _run_branches(c.gates, np.arange(32, dtype=np.uint64))
    assert keys.shape == (32, 1) and np.array_equal(amps, np.ones((32, 1)))
    for value in range(32):
        vec = run_statevector(c, value)
        assert abs(vec[int(keys[value, 0])] - 1.0) < 1e-12
        assert np.array_equal(run_statevector(c, int_to_label(value, 5)), vec)


def test_statevector_hadamard_and_phases():
    vec = run_statevector(circuit(1, [h(0)]), 0)
    assert np.allclose(vec, [2 ** -0.5, 2 ** -0.5])
    vec = run_statevector(circuit(1, [x(0), t(0)]), 0)
    assert np.allclose(vec, [0, np.exp(0.25j * np.pi)])
    vec = run_statevector(circuit(1, [x(0), s(0)]), 0)
    assert np.allclose(vec, [0, 1j])
    # HH = identity
    vec = run_statevector(circuit(2, [h(1), h(1)]), 2)
    assert abs(vec[2] - 1.0) < 1e-12


def test_statevector_phase_rounding_is_width_independent():
    # T.T on |1>: the amplitude must be the same bits on any register.
    amps = [run_statevector(circuit(n, [t(0), t(0)]), 1)[1] for n in (1, 2)]
    bits = [np.array([a]).view(np.uint64).tolist() for a in amps]
    assert bits[0] == bits[1]


def test_statevector_accepts_vector_input():
    start = np.zeros(4, dtype=complex)
    start[1] = 1.0
    vec = run_statevector(circuit(2, [cnot(0, 1)]), start)
    assert abs(vec[3] - 1.0) < 1e-12


def test_statevector_rejects_bad_vector_shape():
    with pytest.raises(ValueError):
        run_statevector(circuit(2), np.ones(3, dtype=complex))


def test_statevector_reads_labels_lowest_qubit_first():
    assert run_statevector(circuit(3, [x(0)]), "100")[0] == 1.0
    assert run_statevector(circuit(3), "011")[6] == 1.0


@pytest.mark.parametrize("state", ["01", "0101", "01x", "", -1, 8])
def test_statevector_rejects_bad_labels_and_indices(state):
    # A label needs one 0/1 character per qubit; an index lies in 0..7.
    with pytest.raises(ValueError):
        run_statevector(circuit(3, [x(0)]), state)


def test_sim_cap_default_and_override(monkeypatch):
    monkeypatch.delenv(SIM_CAP_ENV, raising=False)
    assert sim_cap() == DEFAULT_SIM_CAP == 20
    monkeypatch.setenv(SIM_CAP_ENV, "24")
    assert sim_cap() == 24
    monkeypatch.setenv(SIM_CAP_ENV, "zero")
    with pytest.raises(ValueError):
        sim_cap()
    monkeypatch.setenv(SIM_CAP_ENV, "-3")
    with pytest.raises(ValueError):
        sim_cap()


def test_statevector_respects_cap(monkeypatch):
    monkeypatch.setenv(SIM_CAP_ENV, "3")
    with pytest.raises(ValueError):
        run_statevector(circuit(4), 0)
    assert run_statevector(circuit(3), 0)[0] == 1.0


def test_verify_transposition_passes_good_circuit():
    spec = TranspositionSpec(3, "010", "101")
    c = synthesize_transposition(spec, SynthesisStrategy.THM3_B)
    report = verify_transposition(c, spec)
    assert report.passed and not report.sampled
    assert report.total_checked == 8
    assert report.failed == 0
    assert "PASS" in report.to_text()


def test_verify_transposition_catches_wrong_pair():
    spec = TranspositionSpec(3, "010", "101")
    c = synthesize_transposition(spec, SynthesisStrategy.THM3_B)
    wrong = TranspositionSpec(3, "010", "110")
    report = verify_transposition(c, wrong)
    assert not report.passed
    assert report.failed >= 2  # at least the mis-swapped labels
    assert "FAIL" in report.to_text()


def test_verify_transposition_catches_corruption():
    spec = TranspositionSpec(4, "0101", "1010")
    c = synthesize_transposition(spec, SynthesisStrategy.THM3_A)
    broken = type(c)(c.num_qubits, c.roles, c.gates[:-2])  # drop trailing CNOT+H
    report = verify_transposition(broken, spec)
    assert not report.passed
    assert report.failures  # details recorded
    assert any("non-basis" in f.actual for f in report.failures)


def test_verify_transposition_checks_register_shape():
    spec = TranspositionSpec(3, "010", "101")
    c = synthesize_transposition(spec, SynthesisStrategy.THM3_B)
    with pytest.raises(ValueError):
        verify_transposition(c, TranspositionSpec(2, "01", "10"))


def test_verify_transposition_samples_beyond_cap(monkeypatch):
    monkeypatch.setenv(SIM_CAP_ENV, "6")
    spec = TranspositionSpec(7, "0101010", "1010101")
    c = synthesize_transposition(spec, SynthesisStrategy.THM3_A)
    report = verify_transposition(c, spec, sample_size=24)
    assert report.sampled
    assert report.total_checked == 24
    assert report.passed


def test_verify_mcx_sweeps_borrowed_ancillas():
    c, gate = _borrowed_mcx()
    assert swept_qubits(c) == (0, 1, 2, 3, 4)
    report = verify_mcx(c, gate)
    assert report.passed and report.total_checked == 32


def test_verify_mcx_holds_clean_ancillas_at_zero():
    gate = mcx((0, 1, 2), 3)
    roles = (QubitRole.DATA,) * 4 + (QubitRole.CLEAN_ANCILLA,)
    c = lower_mcx(circuit(5, [gate], roles), McxStrategy.SINGLE_CLEAN, (4,))
    assert swept_qubits(c) == (0, 1, 2, 3)
    report = verify_mcx(c, gate)
    assert report.passed and report.total_checked == 16


def test_verify_mcx_catches_unrestored_ancilla():
    good, gate = _borrowed_mcx()
    broken = type(good)(good.num_qubits, good.roles, good.gates[:-1])
    report = verify_mcx(broken, gate)
    assert not report.passed


def test_verify_mcx_rejects_gates_it_cannot_check():
    c, _ = _borrowed_mcx()
    with pytest.raises(ValueError):
        verify_mcx(c, h(0))
    with pytest.raises(ValueError):
        verify_mcx(c, mcx((0, 1, 2), 5))  # target outside the register


def test_verify_reports_failure_details():
    c, gate = _borrowed_mcx()
    report = verify_mcx(type(c)(c.num_qubits, c.roles, c.gates + (x(3),)), gate)
    assert not report.passed
    assert report.failed == report.total_checked
    assert len(report.failures) <= 64
    line = report.failures[0]
    assert line.state_in == "00000" and line.expected == "00000" and line.actual == "00010"


@pytest.mark.parametrize("size", [-1, 0, 1])
def test_sample_size_below_two_is_rejected(monkeypatch, size):
    # A sample pins two inputs, so anything smaller is an argument error.
    monkeypatch.setenv(SIM_CAP_ENV, "4")
    spec = TranspositionSpec(7, "0101010", "1010101")
    c = synthesize_transposition(spec, SynthesisStrategy.THM3_A)
    with pytest.raises(ValueError, match="sample_size"):
        verify_transposition(c, spec, sample_size=size)
    with pytest.raises(ValueError, match="sample_size"):
        verify_mcx(*_borrowed_mcx(), sample_size=size)


def test_smallest_sample_checks_both_labels(monkeypatch):
    monkeypatch.setenv(SIM_CAP_ENV, "4")
    spec = TranspositionSpec(7, "0101010", "1010101")
    c = synthesize_transposition(spec, SynthesisStrategy.THM3_A)
    report = verify_transposition(c, spec, sample_size=2)
    assert report.sampled and report.passed and report.total_checked == 2


def test_registers_over_63_qubits_are_refused_before_any_draw():
    # 69 swept bits used to reach numpy's uint64 bound in the sampler first.
    wide = mcx(range(69), 69)
    with pytest.raises(ValueError, match="at most 63 qubits; this register has 70"):
        verify_mcx(circuit(70, [wide]), wide)
    spec = TranspositionSpec(70, "0" * 70, "1" + "0" * 69)
    with pytest.raises(ValueError, match="at most 63 qubits"):
        verify_transposition(synthesize_transposition(spec, SynthesisStrategy.THM3_A), spec)
    with pytest.raises(ValueError, match="at most 63 qubits; this register has 64"):
        verify_mcx(circuit(64, [mcx(range(63), 63)]), mcx(range(63), 63))
    widest = mcx(range(62), 62)
    report = verify_mcx(circuit(63, [widest]), widest)
    assert report.passed and report.sampled


def test_cached_draws_give_the_reports_fresh_draws_give(monkeypatch):
    # Sampled verifies share one seeded draw per (widths, seed, size).
    # Broken circuits fail every input, so each report lists drawn inputs.
    monkeypatch.setenv(SIM_CAP_ENV, "6")
    specs = [TranspositionSpec(9, "010101010", "101010101"), TranspositionSpec(9, "0" * 9, "1" * 9)]
    circs = []
    for spec in specs:
        good = synthesize_transposition(spec, SynthesisStrategy.THM3_A)
        circs.append(type(good)(good.num_qubits, good.roles, good.gates + (x(0),)))

    def report(circ, spec):
        return verify_transposition(circ, spec, seed=5, sample_size=16).to_text()

    _draws.cache_clear()
    in_a_row = [report(c, spec) for c, spec in zip(circs, specs)]
    fresh = []
    for c, spec in zip(circs, specs):
        _draws.cache_clear()
        fresh.append(report(c, spec))
    assert in_a_row == fresh


def test_sweep_hands_out_copies_of_the_cached_draws():
    drawn, sampled = _sweep((5, 3), 4, 9, 8)
    assert sampled
    kept = [d.copy() for d in drawn]
    for d in drawn:
        d[:] = 0
    again, _ = _sweep((5, 3), 4, 9, 8)
    assert all(np.array_equal(a, k) for a, k in zip(again, kept))
    _draws.cache_clear()
    fresh, _ = _sweep((5, 3), 4, 9, 8)
    assert all(np.array_equal(f, k) for f, k in zip(fresh, kept))


def test_exhaustive_sweeps_are_not_cached():
    before = _draws.cache_info()
    (values,), sampled = _sweep((4,), 4, 0, 64)
    assert not sampled and values.tolist() == list(range(16))
    assert _draws.cache_info() == before
