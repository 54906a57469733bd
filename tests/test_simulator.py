import ast
import hashlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_statevector
from oracle_statevector import run_statevector
from transposynth import simulator
from transposynth.harness import TrialConfig, run_count_study
from transposynth.ir import (
    Gate,
    QubitRole,
    circuit,
    cnot,
    count_gates,
    h,
    int_to_label,
    mcx,
    s,
    sdg,
    t,
    tdg,
    toffoli,
    x,
)
from transposynth.lowering import LoweringMode, _raise_toffolis, lower_all_toffolis
from transposynth.mcx import McxStrategy, lower_mcx, lower_mcx_auto
from transposynth.peephole import remove_redundancies
from transposynth.simulator import (
    _bad_inputs,
    _draws,
    _keys,
    _run_branches,
    _sweep,
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
    # 3-control X on 0,1,2 -> 3, borrowing the idle qubit 4.
    gate = mcx((0, 1, 2), 3)
    roles = (QubitRole.DATA,) * 4 + (QubitRole.BORROWED_ANCILLA,)
    return lower_mcx(circuit(5, [gate], roles), McxStrategy.BORROWED), gate


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


def test_statevector_oracle_imports_only_the_ir():
    # The oracle the engine is checked against shares no simulation code
    # with it: from the package it may import transposynth.ir alone.
    tree = ast.parse(Path(oracle_statevector.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0
            imported.add(node.module)
    assert {m for m in imported if m.split(".")[0] == "transposynth"} == {"transposynth.ir"}


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


@pytest.mark.parametrize("state", [1.5, True])
def test_statevector_refuses_an_index_that_is_not_an_int(state):
    # 1.5 used to be truncated to |1> and True read as 1, with no error.
    with pytest.raises(ValueError, match="int index"):
        run_statevector(circuit(2, [x(0)]), state)


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


def test_verify_transposition_samples_beyond_cap():
    spec = TranspositionSpec(7, "0101010", "1010101")
    c = synthesize_transposition(spec, SynthesisStrategy.THM3_A)
    report = verify_transposition(c, spec, enumeration_cap=6)
    assert report.sampled
    assert report.total_checked == 64
    assert report.passed


def test_verify_mcx_sweeps_borrowed_ancillas():
    c, gate = _borrowed_mcx()
    assert swept_qubits(c) == (0, 1, 2, 3, 4)
    report = verify_mcx(c, gate)
    assert report.passed and report.total_checked == 32


def test_verify_mcx_holds_clean_ancillas_at_zero():
    gate = mcx((0, 1, 2), 3)
    c = lower_mcx(circuit(4, [gate]), McxStrategy.SINGLE_CLEAN)  # clean qubit 4 appended
    assert c.roles[4] is QubitRole.CLEAN_ANCILLA
    assert swept_qubits(c) == (0, 1, 2, 3)
    report = verify_mcx(c, gate)
    assert report.passed and report.total_checked == 16


def test_verify_mcx_gives_one_verdict_exhaustive_and_sampled():
    # The empty circuit against an MCX with a control on the clean wire:
    # that wire starts at 0, so the gate never fires and the empty circuit
    # implements it.  So the sample's pinned firing inputs must leave the
    # clean wire at 0, as the exhaustive sweep does.
    reports = []
    for n in (19, 22):  # swept bits: 19 exhaustive, 22 sampled
        c = circuit(n + 1, [], (QubitRole.DATA,) * n + (QubitRole.CLEAN_ANCILLA,))
        reports.append(verify_mcx(c, mcx((n, 0), 1)))
    exhaustive, sampled = reports
    assert not exhaustive.sampled and exhaustive.total_checked == 1 << 19
    assert sampled.sampled and sampled.total_checked == 64
    assert exhaustive.passed and sampled.passed


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


def test_smallest_sample_checks_both_labels():
    # a and b are rows 0 and 1 of every sample: with X 0 appended every
    # input fails, and the report lists them first, clean wires at 0.
    spec = TranspositionSpec(7, "0101010", "1010101")
    c = synthesize_transposition(spec, SynthesisStrategy.THM3_A)
    assert verify_transposition(c, spec, enumeration_cap=4).passed
    broken = circuit(c.num_qubits, c.gates + (x(0),), c.roles)
    report = verify_transposition(broken, spec, enumeration_cap=4)
    assert report.sampled and report.failed == report.total_checked == 64
    clean = "0" * (c.num_qubits - spec.n)
    assert [f.state_in for f in report.failures[:2]] == [spec.a + clean, spec.b + clean]


def test_swept_groups_over_64_bits_are_refused_before_any_draw():
    # 69 swept bits used to reach numpy's uint64 bound in the sampler first.
    before = _draws.cache_info()
    wide = mcx(range(69), 69)
    limit = "at most 64 bits per group of swept qubits; this group has 70"
    with pytest.raises(ValueError, match=limit):
        verify_mcx(circuit(70, [wide]), wide)
    spec = TranspositionSpec(65, "0" * 65, "1" + "0" * 64)
    with pytest.raises(ValueError, match="this group has 65"):
        verify_transposition(synthesize_transposition(spec, SynthesisStrategy.THM3_A), spec)
    assert _draws.cache_info() == before
    widest = mcx(range(63), 63)
    report = verify_mcx(circuit(64, [widest]), widest)
    assert report.passed and report.sampled


def _wide_spec(n):
    return TranspositionSpec(n, "01" * (n // 2) + "0" * (n % 2), "10" * (n // 2) + "1" * (n % 2))


def _lowered_optimized(spec, strategy):
    built = synthesize_transposition(spec, strategy)
    if strategy is SynthesisStrategy.GRAY_CODE:
        built = lower_mcx_auto(built)
    return remove_redundancies(lower_all_toffolis(built, LoweringMode.INVERSE_AWARE))


@pytest.mark.parametrize("n", [33, 64])
@pytest.mark.parametrize("strategy", list(SynthesisStrategy))
def test_wide_registers_pass_on_planes(strategy, n):
    # thm3_b at n=33 has 65 qubits and at n=64 has 127: a check that
    # passes on planes builds no uint64 key, so the engine's 63-qubit
    # limit does not apply.
    spec = _wide_spec(n)
    circ = _lowered_optimized(spec, strategy)
    if strategy is SynthesisStrategy.THM3_B:
        assert circ.num_qubits == 2 * n - 1
    report = verify_transposition(circ, spec)
    assert report.passed and report.sampled and report.total_checked == 64


def test_wide_registers_the_engine_must_run_are_refused():
    spec = _wide_spec(33)
    good = _lowered_optimized(spec, SynthesisStrategy.THM3_B)
    broken = circuit(good.num_qubits, good.gates[:-1], good.roles)
    limit = "the branch engine keys at most 63 qubits; this register has 65"
    with pytest.raises(ValueError, match=limit):
        verify_transposition(broken, spec)
    # An H on a data wire is no classical form: every chunk needs the engine.
    with pytest.raises(ValueError, match="at most 63 qubits; this register has 64"):
        verify_mcx(circuit(64, [h(0), h(0)]), x(63))


def test_cached_draws_give_the_reports_fresh_draws_give():
    # Sampled verifies share one seeded draw per (widths, seed).
    # Broken circuits fail every input, so each report lists drawn inputs.
    specs = [TranspositionSpec(9, "010101010", "101010101"), TranspositionSpec(9, "0" * 9, "1" * 9)]
    circs = []
    for spec in specs:
        good = synthesize_transposition(spec, SynthesisStrategy.THM3_A)
        circs.append(type(good)(good.num_qubits, good.roles, good.gates + (x(0),)))

    def report(circ, spec):
        return verify_transposition(circ, spec, seed=5, enumeration_cap=6).to_text()

    _draws.cache_clear()
    in_a_row = [report(c, spec) for c, spec in zip(circs, specs)]
    fresh = []
    for c, spec in zip(circs, specs):
        _draws.cache_clear()
        fresh.append(report(c, spec))
    assert in_a_row == fresh


def _bit_loop_keys(groups, values):
    """Register keys built bit by bit: bit j of values[g] goes to wire groups[g][j]."""
    return sum(((v >> j) & 1) << q for wires, v in zip(groups, values) for j, q in enumerate(wires))


def _gapped_register():
    # Borrowed wires between the data wires (1, 4) and above them (7), and
    # a clean wire (6) that no sweep touches.
    roles = [QubitRole.DATA] * 8
    for q in (1, 4, 7):
        roles[q] = QubitRole.BORROWED_ANCILLA
    roles[6] = QubitRole.CLEAN_ANCILLA
    return circuit(8, [], roles), ((0, 2, 3, 5), (1, 4, 7))


def _sweep_keys(chunks):
    """The register keys of a sweep's inputs, chunk after chunk."""
    return np.concatenate([_keys(planes, 0, size) for size, planes in chunks])


def test_exhaustive_keys_follow_the_two_group_order():
    # Index bits above the borrowed width are the data value, the rest the
    # borrowed value, each placed onto its group's wires.
    circ, groups = _gapped_register()
    chunks, count, sampled = _sweep(circ, groups, (0, 0), 20, 0)
    ((size, planes),) = chunks
    assert not sampled and count == size == 128 and planes[6] == 0
    assert _keys(planes, 0, count).tolist() == [
        _bit_loop_keys(groups, (i >> 3, i & 7)) for i in range(128)
    ]


def test_exhaustive_keys_on_wires_0_to_k_are_the_index():
    circ = circuit(5, [], (QubitRole.DATA,) * 4 + (QubitRole.CLEAN_ANCILLA,))
    chunks, count, sampled = _sweep(circ, ((0, 1, 2, 3), ()), (0, 0), 20, 0)
    assert not sampled and _sweep_keys(chunks).tolist() == list(range(16))


def test_wide_exhaustive_sweeps_come_in_chunks_of_2_16_inputs():
    # 18 swept bits on scattered wires of a 24-wire register: four chunks
    # of 2^16 inputs, whose planes are no wider than their chunk, and whose
    # keys, chunk after chunk, are every index placed bit by bit.
    wires = np.random.default_rng(3).permutation(24)[:18].tolist()
    groups = (tuple(sorted(wires[:11])), tuple(sorted(wires[11:])))
    chunks, count, sampled = _sweep(circuit(24, []), groups, (0, 0), 20, 0)
    chunks = list(chunks)
    assert not sampled and count == 1 << 18
    assert [size for size, _ in chunks] == [1 << 16] * 4
    assert max(p.bit_length() for _, planes in chunks for p in planes) == 1 << 16
    index = np.arange(count, dtype=np.uint64)
    want = np.zeros(count, dtype=np.uint64)
    for j, q in enumerate(groups[1] + groups[0]):
        want |= (index >> np.uint64(j) & np.uint64(1)) << np.uint64(q)
    assert np.array_equal(_sweep_keys(chunks), want)


def _drawn_key(groups, seed, pins):
    """Sampled input i's register key, drawn value by value and placed bit
    by bit; inputs 0 and 1 are the pins."""
    rng = np.random.default_rng(seed)
    draws = [rng.integers(0, 1 << len(w), size=64, dtype=np.uint64) for w in groups]
    return lambda i: pins[i] if i < 2 else _bit_loop_keys(groups, [int(d[i]) for d in draws])


def test_sampled_keys_are_the_deposited_draws_with_pinned_rows():
    circ, groups = _gapped_register()
    pins = (_bit_loop_keys(groups, (0b1010, 0)), _bit_loop_keys(groups, (0b0111, 0)))
    chunks, count, sampled = _sweep(circ, groups, pins, 4, 9)
    ((size, planes),) = chunks
    assert sampled and count == size == 64 and planes[6] == 0
    want = _drawn_key(groups, 9, pins)
    assert _keys(planes, 0, count).tolist() == [want(i) for i in range(64)]


def test_sweep_leaves_the_cached_draws_alone():
    # The cached draws are tuples of ints, and the planes _sweep hands out
    # are a fresh list: writing to it changes no later sweep.
    circ, groups = _gapped_register()
    ((_, drawn),), _, _ = _sweep(circ, groups, (0, 0), 4, 9)
    kept = list(drawn)
    drawn[:] = [0] * len(drawn)
    cached = _draws((4, 3), 9)
    assert type(cached) is tuple and all(type(g) is tuple for g in cached)
    ((_, again),), _, _ = _sweep(circ, groups, (0, 0), 4, 9)
    assert again == kept
    _draws.cache_clear()
    ((_, fresh),), _, _ = _sweep(circ, groups, (0, 0), 4, 9)
    assert fresh == kept


def test_exhaustive_sweeps_are_not_cached():
    circ, groups = _gapped_register()
    before = _draws.cache_info()
    chunks, count, sampled = _sweep(circ, groups, (0, 0), 20, 0)
    assert not sampled and count == 128 and len(list(chunks)) == 1
    assert _draws.cache_info() == before


@st.composite
def _gapped_sweeps(draw):
    """_sweep's arguments for a register of up to 63 wires whose data and
    borrowed wires sit at random places: an exhaustive sweep of at most 18
    bits (up to four chunks of up to eight engine slices), or a sample."""
    n = draw(st.integers(1, 63))
    wires = draw(st.permutations(range(n)))
    if draw(st.booleans()):
        swept = draw(st.integers(0, min(n, 18)))
        pins, cap, seed = (0, 0), swept, 0
    else:
        swept = draw(st.integers(0, n))
        pins = tuple(draw(st.integers(0, (1 << n) - 1)) for _ in range(2))
        cap, seed = -1, draw(st.integers(0, 3))
    n_data = draw(st.integers(0, swept))
    groups = (tuple(sorted(wires[:n_data])), tuple(sorted(wires[n_data:swept])))
    return circuit(n, []), groups, pins, cap, seed


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(_gapped_sweeps(), st.randoms(use_true_random=False))
def test_chunk_keys_from_planes_match_bit_loop(args, rnd):
    # The keys of each slice _check_map cuts from each chunk, at its first
    # and last rows and a few drawn ones, equal the keys built bit by bit.
    chunks, count, sampled = _sweep(*args)
    _, groups, pins, cap, seed = args
    if sampled:
        assert count == 64
        want = _drawn_key(groups, seed, pins)
    else:
        assert count == 1 << cap
        width = len(groups[1])

        def want(i):
            return _bit_loop_keys(groups, (i >> width, i & ((1 << width) - 1)))

    base = 0
    for chunk, planes in chunks:
        for start in range(0, chunk, simulator._CHUNK):
            size = min(simulator._CHUNK, chunk - start)
            keys = _keys(planes, start, size)
            assert keys.dtype == np.uint64 and keys.shape == (size,)
            rows = {0, 1, size - 2, size - 1} | {rnd.randrange(size) for _ in range(4)}
            for r in sorted(r for r in rows if 0 <= r < size):
                assert int(keys[r]) == want(base + start + r)
        base += chunk
    assert base == count


@pytest.mark.parametrize("seed", [1.5, True])
def test_verifiers_refuse_a_seed_that_is_not_an_int(seed):
    spec = TranspositionSpec(3, "010", "101")
    c = synthesize_transposition(spec, SynthesisStrategy.THM3_B)
    with pytest.raises(ValueError, match="seed must be an int"):
        verify_transposition(c, spec, seed=seed)


@pytest.mark.parametrize("sampled", [False, True])
@pytest.mark.parametrize("seed", [-1, -(1 << 70)])
def test_verifiers_refuse_a_negative_seed(seed, sampled):
    # seed=-1 used to pass silently on an exhaustive sweep, and a sample
    # failed in numpy with a message that did not name the seed.
    spec = TranspositionSpec(3, "010", "101")
    c = synthesize_transposition(spec, SynthesisStrategy.THM3_B)
    with pytest.raises(ValueError, match="seed must be an int of at least 0"):
        verify_transposition(c, spec, seed=seed, enumeration_cap=2 if sampled else None)


@pytest.mark.parametrize(
    "verify, position, value",
    [
        (verify_transposition, 0, "x"),
        (verify_transposition, 1, None),
        (verify_transposition, 1, "010"),
        (verify_mcx, 0, "x"),
        (verify_mcx, 1, "x"),
        (verify_mcx, 1, None),
    ],
)
def test_verifiers_refuse_arguments_of_the_wrong_type(verify, position, value):
    # Each of these used to raise AttributeError.
    spec = TranspositionSpec(3, "010", "101")
    if verify is verify_mcx:
        args, names = list(_borrowed_mcx()), ("circ", "gate")
    else:
        args, names = [synthesize_transposition(spec, SynthesisStrategy.THM3_B), spec], ("circ", "spec")
    args[position] = value
    with pytest.raises(ValueError, match=f"{names[position]} must be a"):
        verify(*args)


def test_enumeration_cap_0_samples_every_sweep():
    spec = TranspositionSpec(3, "010", "101")
    c = synthesize_transposition(spec, SynthesisStrategy.THM3_B)
    report = verify_transposition(c, spec, enumeration_cap=0)
    assert report.passed and report.sampled and report.total_checked == 64


@pytest.mark.parametrize("cap", [2.5, 3.0, True, -1, -3])
def test_enumeration_cap_must_be_an_int(cap):
    # enumeration_cap=2.5 used to run a 64-input sample of this n=3 circuit,
    # and so did enumeration_cap=-3.
    spec = TranspositionSpec(3, "010", "101")
    c = synthesize_transposition(spec, SynthesisStrategy.THM3_B)
    with pytest.raises(ValueError, match="enumeration_cap must be an int"):
        verify_transposition(c, spec, enumeration_cap=cap)


def _thm3_b_lowered_optimized(n):
    spec = TranspositionSpec(n, "01" * (n // 2), "10" * (n // 4) + "11" * (n // 2 - n // 4))
    toffoli_level = synthesize_transposition(spec, SynthesisStrategy.THM3_B)
    lowered = lower_all_toffolis(toffoli_level, LoweringMode.INVERSE_AWARE)
    return spec, toffoli_level, remove_redundancies(lowered)


@pytest.mark.parametrize("n", [16, 18, 20])
def test_lowered_thm3_b_raises_every_block(n):
    # With these labels the peephole leaves every block intact; raised,
    # only the flag's H pair is left for the engine to branch on.
    _, toffoli_level, optimized = _thm3_b_lowered_optimized(n)
    raised = count_gates(circuit(optimized.num_qubits, _raise_toffolis(optimized.gates)))
    assert raised.toffoli == count_gates(toffoli_level).toffoli == 4 * n - 6
    assert raised.h == 2 and raised.t_type == raised.s_type == 0


def test_blocks_the_peephole_breaks_still_verify_on_the_raised_gates(monkeypatch):
    # X 2 sits between the two H 4 of an inverse-aware pair's facing
    # halves: the peephole cancels the gates that slide past it and leaves
    # both H, so neither block of the pair raises.  The check still
    # passes, with one engine run on the raised gates and none on the
    # gates as given.
    spec = TranspositionSpec(3, "111", "110")
    toffoli_level = synthesize_transposition(spec, SynthesisStrategy.THM3_B)
    optimized = remove_redundancies(lower_all_toffolis(toffoli_level, LoweringMode.INVERSE_AWARE))
    raised = _raise_toffolis(optimized.gates)
    before = count_gates(optimized)
    after = count_gates(circuit(optimized.num_qubits, raised, optimized.roles))
    assert (len(optimized), before.h) == (90, 14)
    assert (len(raised), after.toffoli, after.h, after.t_type) == (30, 4, 6, 8)
    runs = []
    outcome = simulator._outcome

    def recording(gates, *args):
        runs.append(gates)
        return outcome(gates, *args)

    monkeypatch.setattr(simulator, "_outcome", recording)
    report = verify_transposition(optimized, spec).to_text()
    assert report == "PASS: 8/8 basis states (exhaustive, tolerance 1e-09)"
    assert runs == [raised]


def test_lowered_thm3_b_n20_verifies_exhaustively():
    spec, _, optimized = _thm3_b_lowered_optimized(20)
    report = verify_transposition(optimized, spec).to_text()
    assert report.startswith(f"PASS: {1 << 20}/{1 << 20} basis states (exhaustive")


def test_failure_reports_come_from_the_gates_as_given(monkeypatch):
    # Dropping this CNOT leaves input 100 with two leading branches of
    # equal magnitude.  Run on the raised gates, the tie rounds the other
    # way and the report would print the other branch's amplitude.
    spec = TranspositionSpec(2, "00", "11")
    toffoli_level = synthesize_transposition(spec, SynthesisStrategy.THM3_A)
    good = remove_redundancies(lower_all_toffolis(toffoli_level, LoweringMode.NAIVE))
    assert good.gates[33] == cnot(0, 1)
    broken = circuit(good.num_qubits, good.gates[:33] + good.gates[34:], good.roles)
    raised = circuit(broken.num_qubits, _raise_toffolis(broken.gates), broken.roles)
    report = verify_transposition(broken, spec).to_text()
    assert verify_transposition(raised, spec).to_text() != report
    monkeypatch.setattr("transposynth.simulator._raise_toffolis", lambda gates: gates)
    assert verify_transposition(broken, spec).to_text() == report


def test_an_inputs_verdict_does_not_depend_on_its_chunk(monkeypatch):
    # Only 110 and 111 meet the appended Toffoli, so only they fail,
    # whether all eight inputs share one chunk or each has its own.
    spec = TranspositionSpec(3, "000", "011")
    gray = lower_mcx_auto(synthesize_transposition(spec, SynthesisStrategy.GRAY_CODE))
    good = lower_all_toffolis(gray, LoweringMode.NAIVE)
    assert verify_transposition(good, spec).passed
    broken = circuit(good.num_qubits, good.gates + (toffoli(0, 1, 2),), good.roles)
    reports = set()
    for chunk in (1, 8):
        monkeypatch.setattr(simulator, "_CHUNK", chunk)
        reports.add(verify_transposition(broken, spec).to_text())
    (report,) = reports
    lines = report.splitlines()
    assert lines[0] == "FAIL: 6/8 basis states (exhaustive, tolerance 1e-09)"
    assert [line.split()[0] for line in lines[1:]] == ["110", "111"]


# --- the classical check -----------------------------------------------------


def _thm3_a(n):
    spec = TranspositionSpec(n, "01" * (n // 2) + "1" * (n % 2), "1" * n)
    return spec, synthesize_transposition(spec, SynthesisStrategy.THM3_A)


def _engine_only(verify, *args):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "_classical_form", lambda *a: None)
        return verify(*args).to_text()


@st.composite
def _classical_cases(draw):
    """A gate G over X/CNOT/Toffoli/MCX and R = B·B⁻¹·G over the same
    kinds, which implements it unless G acts on a clean wire; R on its own
    or wrapped as H(f)·R·H(f) with f clean, maybe with one gate dropped."""
    width = draw(st.integers(2, 6))
    roles = draw(st.lists(st.sampled_from(list(QubitRole)), min_size=width, max_size=width))
    roles[0] = QubitRole.DATA
    wrap = draw(st.booleans())
    flag = width
    wires = range(width + wrap)

    def gate(on):
        qubits = draw(st.permutations(list(on)))[: draw(st.integers(1, min(4, len(on))))]
        if len(qubits) == 1:
            return x(qubits[0])
        if len(qubits) < 4 and draw(st.booleans()):
            return (cnot if len(qubits) == 2 else toffoli)(*qubits)
        return mcx(qubits[:-1], qubits[-1])

    target = gate(range(width))
    body = [gate(wires) for _ in range(draw(st.integers(0, 6)))]
    gates = body + body[::-1] + [target]
    if wrap:
        roles.append(QubitRole.CLEAN_ANCILLA)
        # Gates onto the flag from the other wires: R(x,0) and R(x,1) then
        # differ on the flag alone.
        onto = [gate([flag, *draw(st.permutations(range(width)))[:2]]) for _ in range(2)]
        gates = [h(flag)] + gates + [g for g in onto if g.target == flag] + [h(flag)]
    if draw(st.booleans()):
        del gates[draw(st.integers(0, len(gates) - 1))]
    return circuit(len(roles), gates, roles), target


@st.composite
def _permutation_gates(draw):
    """A width of 1-8 wires and up to 30 gates on it: X, CNOT, Toffoli
    with its controls in either order, and MCX with 3-6 controls."""
    width = draw(st.integers(1, 8))
    gates = []
    for _ in range(draw(st.integers(0, 30))):
        qubits = draw(st.permutations(range(width)))[: draw(st.integers(1, min(width, 7)))]
        if len(qubits) <= 3:
            gates.append((x, cnot, toffoli)[len(qubits) - 1](*qubits))
        else:
            gates.append(mcx(tuple(qubits[:-1]), qubits[-1]))
    return width, tuple(gates)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_permutation_gates(), st.booleans())
def test_permute_matches_a_per_input_bit_loop(case, as_dict):
    # Each of _permute's branches against running every input through the
    # gates one bit at a time; planes may be a list or a dict.
    width, gates = case
    count = 1 << width
    planes = [sum((k >> q & 1) << k for k in range(count)) for q in range(width)]
    if as_dict:
        planes = dict(enumerate(planes))
    simulator._permute(gates, planes, (1 << count) - 1)
    for k in range(count):
        out = k
        for g in gates:
            if all(out >> c & 1 for c in g.controls):
                out ^= 1 << g.target
        assert [planes[q] >> k & 1 for q in range(width)] == [out >> q & 1 for q in range(width)]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_classical_cases())
def test_classical_check_gives_the_engines_reports(case):
    circ, target = case
    assert verify_mcx(circ, target).to_text() == _engine_only(verify_mcx, circ, target)


def _count_engine_runs(monkeypatch):
    calls = []
    engine = simulator._run_branches
    monkeypatch.setattr(simulator, "_run_branches", lambda *a: calls.append(1) or engine(*a))
    return calls


def _near_miss(gates, swept=QubitRole.DATA):
    """gates beside CNOT(0, 1) on 16 swept wires, the top one with the
    given role, and two clean wires 16 and 17: 2^16 inputs, of which the
    first half hold wire 15 at 0."""
    roles = (QubitRole.DATA,) * 15 + (swept, QubitRole.CLEAN_ANCILLA, QubitRole.CLEAN_ANCILLA)
    return circuit(18, [cnot(0, 1), *gates], roles)


_NEAR_MISSES = {
    # name: (circuit, whether it implements CNOT(0, 1))
    "h_on_a_data_wire": (_near_miss([h(15), h(15)]), True),
    "h_on_a_borrowed_wire": (_near_miss([h(15), h(15)], QubitRole.BORROWED_ANCILLA), True),
    # H(16), a swap of 16 and 17, H(17) passes; H(16), H(17) does not.
    "h_pair_on_two_wires": (
        _near_miss([h(16), cnot(16, 17), cnot(17, 16), cnot(16, 17), h(17)]),
        True,
    ),
    "h_pair_on_two_wires_failing": (_near_miss([h(16), h(17)]), False),
    "three_h": (_near_miss([h(16), h(16), h(16)]), False),
    "gate_on_f_before_the_first_h": (_near_miss([x(16), h(16), h(16), x(16)]), True),
    "gate_on_f_after_the_second_h": (_near_miss([h(16), h(16), cnot(2, 16), cnot(2, 16)]), True),
    "phase_gate_in_the_flag_form": (_near_miss([h(16), s(2), sdg(2), h(16)]), True),
    "phase_gate_without_h": (_near_miss([t(3), tdg(3)]), True),
}


@pytest.mark.parametrize("name", sorted(_NEAR_MISSES))
def test_near_miss_circuits_go_to_the_engine(name, monkeypatch):
    # Every chunk runs on the engine once: nothing here is raised, and the
    # classical check takes none of them.
    circ, passes = _NEAR_MISSES[name]
    want = _engine_only(verify_mcx, circ, cnot(0, 1))
    calls = _count_engine_runs(monkeypatch)
    report = verify_mcx(circ, cnot(0, 1))
    assert report.total_checked == 1 << 16
    assert len(calls) == report.total_checked // simulator._CHUNK
    assert report.passed == passes and report.to_text() == want


def _planes(keys, width=3):
    """The bit planes of a list of register keys."""
    return [sum((k >> q & 1) << i for i, k in enumerate(keys)) for q in range(width)]


def test_an_input_with_its_flag_set_never_passes_classically():
    # H(f)·H(f) on an input with f set leaves f set, so it misses an
    # expected output with f clear; the two runs of R are then one run twice.
    f = 2
    assert _bad_inputs((), f, _planes([0]), _planes([0]), 1) == 0
    assert _bad_inputs((), f, _planes([1 << f]), _planes([0]), 1) == 0b1
    assert _bad_inputs((), f, _planes([0, 1 << f]), _planes([0, 0]), 2) == 0b10
    # An expected output with f set is missed whatever R does.
    assert _bad_inputs((), f, _planes([0]), _planes([1 << f]), 1) == 0b1
    # R may flip f itself: H·X·H = Z fixes |0>.
    assert _bad_inputs((x(f),), f, _planes([0, 1]), _planes([0, 1]), 2) == 0


def test_an_exhaustive_check_at_the_cap_holds_one_chunk_of_planes():
    # Toffoli-level thm3_a at n=20, 2^20 inputs, from empty pattern caches.
    # Holding the whole sweep's planes, the check allocated 13.5 MiB: 128
    # KiB per wire, twice that in the flag form's two runs, and the index
    # patterns of every width.  One chunk's planes take 8 KiB per wire.
    spec, c = _thm3_a(20)
    simulator._index_patterns.cache_clear()
    tracemalloc.start()
    try:
        report = verify_transposition(c, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed and report.total_checked == 1 << 20
    assert peak < 2 << 20


def test_passing_study_circuits_never_reach_the_engine(monkeypatch):
    # Toffoli-level thm3 (flag form), gray after MCX lowering (H-free), and
    # lowered thm3_b (flag form once raised) pass on planes, without one
    # register key; a damaged circuit still builds keys and runs the engine.
    calls = _count_engine_runs(monkeypatch)
    keyed = []
    keys = simulator._keys
    monkeypatch.setattr(simulator, "_keys", lambda *a: keyed.append(1) or keys(*a))
    n_values = tuple(range(2, 15))
    for strategy in SynthesisStrategy:
        config = TrialConfig(n_values, strategy, trials=3, seed=4, optimize=True)
        assert all(row.verified_fraction == 1.0 for row in run_count_study(config).rows)
    config = TrialConfig((5, 9), SynthesisStrategy.THM3_B, trials=3, lowering=LoweringMode.NAIVE)
    assert all(row.verified_fraction == 1.0 for row in run_count_study(config).rows)
    spec, c = _thm3_a(20)
    report = verify_transposition(c, spec)
    assert report.passed and report.total_checked == 1 << 20
    spec, _, optimized = _thm3_b_lowered_optimized(20)
    report = verify_transposition(optimized, spec)
    assert report.passed and report.total_checked == 1 << 20
    assert calls == [] and keyed == []
    spec, c = _thm3_a(8)
    broken = circuit(c.num_qubits, c.gates[:5] + c.gates[6:], c.roles)
    assert not verify_transposition(broken, spec).passed
    assert calls and keyed


def _interleaved(spec, strategy):
    # The synthesized circuit with data wire q moved to wire 2q+1, the
    # flag and clean ancillas above the data, and a borrowed wire that no
    # gate touches at every even wire below them.
    circ = synthesize_transposition(spec, strategy)
    n = spec.n
    wire = {q: 2 * q + 1 if q < n else n + 1 + q for q in range(circ.num_qubits)}
    roles = [QubitRole.BORROWED_ANCILLA] * (n + 1 + circ.num_qubits)
    for q, w in wire.items():
        roles[w] = circ.roles[q]
    gates = [Gate(g.kind, tuple(wire[c] for c in g.controls), wire[g.target]) for g in circ.gates]
    return circuit(len(roles), gates, roles)


def test_reports_on_data_wires_interleaved_with_borrowed_wires_are_pinned():
    # The data wires are not 0..n-1, so a and b reach their register keys
    # through data[i] rather than as the labels' indices.  Passing and
    # failing, exhaustive and sampled: the texts are the ones recorded
    # before the verifier cached its split of a register's roles.
    texts = []
    for strategy in (SynthesisStrategy.THM3_A, SynthesisStrategy.THM3_B):
        spec = TranspositionSpec(4, "0110", "1011")
        good = _interleaved(spec, strategy)
        assert [q for q, r in enumerate(good.roles) if r is QubitRole.DATA] == [1, 3, 5, 7]
        broken = circuit(good.num_qubits, good.gates + (x(3),), good.roles)
        for circ in (good, broken):
            for check in (spec, TranspositionSpec(4, "0110", "1111")):
                for cap in (None, 4):
                    report = verify_transposition(circ, check, seed=7, enumeration_cap=cap)
                    texts.append(report.to_text())
    assert texts[0] == "PASS: 512/512 basis states (exhaustive, tolerance 1e-09)"
    assert texts[1] == "PASS: 64/64 basis states (sampled, tolerance 1e-09)"
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == "3305e562a40e920149b0c03ec0bdeac58ec490735491e45a4643cccce8bbd7e5"
