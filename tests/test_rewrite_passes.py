"""The wire-indexed rewrite passes against their frozen forward-scan
oracles (tests/oracle_passes.py), gate for gate, and against the dense
simulator: no pass may change a circuit's unitary.  The verifier's branch
engine against its frozen stable-sort oracle, bit for bit but for the sign
of a zero, and its chunked sweeps against that oracle run over the whole
batch at once."""
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle_passes
from oracle_statevector import run_statevector
from test_lowering import lowered_block
from transposynth import peephole, simulator
from transposynth.harness import TrialConfig, _study_circuit, sample_transpositions
from transposynth.ir import (
    Gate,
    GateKind,
    QubitRole,
    circuit,
    cnot,
    h,
    int_to_label,
    dagger_kind,
    mcx,
    s,
    sdg,
    t,
    tdg,
    toffoli,
    x,
)
from transposynth.lowering import (
    LoweringMode,
    ToffoliOrientation,
    _block,
    _raise_toffolis,
    lower_all_toffolis,
)
from transposynth.mcx import McxStrategy, _network, lower_mcx_auto
from transposynth.peephole import remove_redundancies
from transposynth.simulator import (
    _keys,
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
                g = Gate(dagger_kind(g.kind), g.controls, g.target)
            gates.append(Gate(g.kind, tuple(draw(st.permutations(g.controls))), g.target))
            continue
        kind = draw(st.sampled_from(kinds))
        size = draw(st.integers(2, width)) if kind is GateKind.MCX else _MIN_QUBITS[kind]
        qubits = draw(st.permutations(range(width)))[:size]
        gates.append(Gate(kind, tuple(qubits[:-1]), qubits[-1]))
    return circuit(width, gates)


def _oracle_inverse_aware(circ):
    """Inverse-aware lowering driven by the frozen pairing oracle."""
    inverted = oracle_passes._pair_second_occurrences(circ.gates)
    gates = []
    for i, g in enumerate(circ.gates):
        if g.kind is not GateKind.TOFFOLI:
            gates.append(g)
        elif i in inverted:
            gates += lowered_block(toffoli(*inverted[i], g.target), ToffoliOrientation.INVERTED)
        else:
            gates += lowered_block(g, ToffoliOrientation.STANDARD)
    return circuit(circ.num_qubits, gates, circ.roles)


def _mcx_as_xs(circ):
    """circ with each MCX replaced by an X on each of its wires.  Lowering
    refuses MCX, and the Xs block exactly the Toffoli pairs it blocks."""
    gates = []
    for g in circ.gates:
        gates += [x(q) for q in g.qubits] if g.kind is GateKind.MCX else [g]
    return circuit(circ.num_qubits, gates, circ.roles)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_circuits(max_qubits=8))
# The CNOT pair cancels behind X 4, where the first sweep has already
# passed X 0; only the dirty-set check sends a second sweep back to it.
@example(circuit(6, [x(0), h(5), cnot(1, 0), cnot(1, 0), x(0)]))
# The sweep fuses the last two T first, giving T0 X5 S0; a pass that
# re-checks T0 as soon as the CNOT pair goes fuses it first, giving S0 X5 T0.
@example(circuit(6, [t(0), x(5), cnot(1, 0), cnot(1, 0), t(0), t(0)]))
# Long runs on one wire, whose skip lists jump ever longer dead stretches:
# an odd X run, T^k Tdg^k (fusions, then cancellations from the middle
# out), and S T ... Tdg Sdg nested around its middle.
@example(circuit(1, [x(0)] * 9))
@example(circuit(1, [t(0)] * 6 + [tdg(0)] * 6))
@example(circuit(2, [s(0), t(0), x(1), s(0), t(0), tdg(0), sdg(0), x(1), tdg(0), sdg(0)]))
# CNOT pairs that share a control hub: each cancels only once the pairs
# nested inside it are gone from the hub's wire.
@example(circuit(4, [cnot(0, 1), cnot(0, 2), cnot(0, 3), cnot(0, 3), cnot(0, 2), cnot(0, 1)]))
@example(circuit(4, [cnot(0, 1), cnot(0, 2), cnot(0, 1), cnot(0, 3), cnot(0, 2), cnot(0, 3)]))
def test_passes_match_forward_scan_oracle(circ):
    assert remove_redundancies(circ) == oracle_passes.remove_redundancies(circ)
    toffoli_level = _mcx_as_xs(circ)
    assert lower_all_toffolis(toffoli_level, LoweringMode.INVERSE_AWARE) == _oracle_inverse_aware(
        toffoli_level
    )


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
    lowered = lower_all_toffolis(circ, mode)
    if mode is LoweringMode.INVERSE_AWARE:
        assert lowered == _oracle_inverse_aware(circ)
    optimized = remove_redundancies(lowered)
    assert optimized == oracle_passes.remove_redundancies(lowered)
    assert len(optimized) < len(lowered)


def test_peephole_matches_the_oracle_on_every_paper_table_circuit():
    # Both published 200-trial tables, n=2..20, as the study builds them
    # before its peephole.
    checked = 0
    for strategy, seed in ((SynthesisStrategy.THM3_A, 321), (SynthesisStrategy.THM3_B, 123)):
        config = TrialConfig(tuple(range(2, 21)), strategy, trials=200, seed=seed)
        for n in config.n_values:
            for spec in sample_transpositions(n, config.resolved_trials(), seed=seed):
                circ = _study_circuit(spec, config)
                assert remove_redundancies(circ) == oracle_passes.remove_redundancies(circ)
                checked += 1
    assert checked == 6708


def test_peephole_runs_no_confirmation_sweep(monkeypatch):
    # Every rewrite here happens in the first sweep.  A confirmation sweep
    # would check each surviving gate again: 26506 checks for 13302 gates.
    circ = lower_all_toffolis(_FIXED["thm3_b_n200"](), LoweringMode.INVERSE_AWARE)
    checks = 0
    partner = peephole._partner

    def counting(*args):
        nonlocal checks
        checks += 1
        return partner(*args)

    monkeypatch.setattr(peephole, "_partner", counting)
    assert len(remove_redundancies(circ)) < len(circ) == 13302
    assert checks < 1.2 * len(circ)


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


_HEAD = (h(0), x(3), t(1))
_TAIL = (cnot(0, 3), h(2))


@pytest.mark.parametrize("orientation", list(ToffoliOrientation))
@pytest.mark.parametrize("wires", [(1, 4, 2), (4, 1, 2)])
def test_every_block_raises_to_one_toffoli(orientation, wires):
    # At the very start and end of the gates and between other gates, on
    # its own and beside a block of the other control order.
    block = _block(*wires, orientation)
    other = _block(wires[1], wires[0], wires[2], orientation)
    for head in (_HEAD[:k] for k in range(len(_HEAD) + 1)):
        for tail in ((), _TAIL):
            gates = head + block + tail
            assert _raise_toffolis(gates) == head + (toffoli(*wires),) + tail
            gates = head + block + other + tail
            raised = (toffoli(*wires), toffoli(wires[1], wires[0], wires[2]))
            assert _raise_toffolis(gates) == head + raised + tail


@pytest.mark.parametrize("orientation", list(ToffoliOrientation))
def test_a_damaged_block_raises_nothing(orientation):
    block = _block(0, 2, 1, orientation)
    for i, g in enumerate(block):
        dropped = _HEAD + block[:i] + block[i + 1 :] + _TAIL
        assert _raise_toffolis(dropped) is dropped
        if dagger_kind(g.kind) is not g.kind:
            inverse = Gate(dagger_kind(g.kind), g.controls, g.target)
            swapped = _HEAD + block[:i] + (inverse,) + block[i + 1 :] + _TAIL
            assert _raise_toffolis(swapped) is swapped


@st.composite
def _toffoli_circuits(draw):
    """A _circuits draw of 3-6 qubits with 1-12 Toffolis mixed in, some of
    them twice in a row so that inverse-aware lowering pairs them."""
    base = draw(_circuits(max_qubits=6, max_gates=12, with_mcx=False))
    width = max(base.num_qubits, 3)
    gates = list(base.gates)
    for _ in range(draw(st.integers(1, 12))):
        g = toffoli(*draw(st.permutations(range(width)))[:3])
        at = draw(st.integers(0, len(gates)))
        gates[at:at] = [g, g] if draw(st.booleans()) else [g]
    return circuit(width, gates)


@pytest.mark.parametrize("optimize", [False, True])
@pytest.mark.parametrize("mode", list(LoweringMode))
@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(_toffoli_circuits())
def test_raising_keeps_the_unitary_and_never_adds_gates(mode, optimize, circ):
    lowered = lower_all_toffolis(circ, mode)
    if optimize:
        lowered = remove_redundancies(lowered)
    raised = _raise_toffolis(lowered.gates)
    assert len(raised) <= len(lowered.gates)
    got = _unitary(circuit(lowered.num_qubits, raised, lowered.roles))
    assert np.abs(got - _unitary(lowered)).max() < 1e-9


_ROUND_TRIP_KINDS = (GateKind.X, GateKind.CNOT, GateKind.H, GateKind.TOFFOLI)


@st.composite
def _xcht_circuits(draw):
    """X/CNOT/H/Toffoli circuits on 3-8 qubits.  About a third of the
    gates repeat an earlier Toffoli with its controls reshuffled, so that
    inverse-aware lowering pairs some of them across either control order."""
    width = draw(st.integers(3, 8))
    gates = []
    for _ in range(draw(st.integers(0, 40))):
        earlier = [g for g in gates if g.kind is GateKind.TOFFOLI]
        if earlier and draw(st.integers(0, 2)) == 0:
            g = draw(st.sampled_from(earlier))
            gates.append(toffoli(*draw(st.permutations(g.controls)), g.target))
            continue
        kind = draw(st.sampled_from(_ROUND_TRIP_KINDS))
        qubits = draw(st.permutations(range(width)))[: _MIN_QUBITS[kind]]
        gates.append(Gate(kind, tuple(qubits[:-1]), qubits[-1]))
    return circuit(width, gates)


def _up_to_control_order(gates):
    return [(g.kind, frozenset(g.controls), g.target) for g in gates]


@pytest.mark.parametrize("mode", list(LoweringMode))
@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_xcht_circuits())
# The second of this pair is lowered on the first's control order, so
# both come back as TOFFOLI(0, 1, 2): equality holds up to control order.
@example(circuit(3, [toffoli(0, 1, 2), toffoli(1, 0, 2)]))
def test_raising_undoes_lowering_up_to_control_order(mode, circ):
    raised = _raise_toffolis(lower_all_toffolis(circ, mode).gates)
    assert _up_to_control_order(raised) == _up_to_control_order(circ.gates)


def _same_branches(got, want) -> bool:
    """Equal shapes, keys and amplitude bit patterns, with -0 and +0 taken
    as equal: the sorted merge adds +0 depending on the rest of the batch,
    which the engine does not reproduce, and adding 0.0 on both sides makes
    every zero part +0 while leaving the other values as they are."""
    return (
        got[0].shape == want[0].shape
        and np.array_equal(got[0], want[0])
        and np.array_equal((got[1] + 0.0).view(np.uint64), (want[1] + 0.0).view(np.uint64))
    )


def _oracle_report(circ, target, verify=verify_transposition, **kwargs) -> str:
    """verify's report with the frozen oracle run once over every input:
    the sweep is one chunk of planes and one engine slice.  The classical
    check is switched off, so that a passing slice reaches the oracle too
    instead of being passed on bit planes."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "_run_branches", oracle_passes._run_branches)
        mp.setattr(simulator, "_classical_form", lambda *args: None)
        mp.setattr(simulator, "_PLANE_BITS", 40)
        mp.setattr(simulator, "_CHUNK", 1 << 40)
        return verify(circ, target, **kwargs).to_text()


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


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_branching_cases(), st.sampled_from([None, 2]), st.integers(0, 3))
# T^6 leaves a -4e-16 real part on |1>, which prints as -0.000000 unrounded.
@example((circuit(1, [t(0)] * 6), TranspositionSpec(1, "0", "1")), None, 0)
def test_report_text_has_no_negative_zero(case, cap, seed):
    circ, spec = case
    assert "-0.000000" not in verify_transposition(circ, spec, enumeration_cap=cap, seed=seed).to_text()


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


def _drop_middle(circ):
    """circ without its middle T or, in a Toffoli-level circuit, its middle
    Toffoli: a FAIL, non-basis for the lowered circuits."""
    kind = GateKind.T if any(g.kind is GateKind.T for g in circ.gates) else GateKind.TOFFOLI
    at = [i for i, g in enumerate(circ.gates) if g.kind is kind]
    drop = at[len(at) // 2]
    return circuit(circ.num_qubits, circ.gates[:drop] + circ.gates[drop + 1:], circ.roles)


def _all_inputs(circ):
    """Every combination of circ's swept bits as register keys, index bit
    j on swept wire j."""
    swept = swept_qubits(circ)
    chunks, _, _ = _sweep(circ, (swept,), (0, 0), len(swept), 0)
    return np.concatenate([_keys(planes, 0, size) for size, planes in chunks])


@pytest.mark.parametrize("case", sorted(_ENGINE_CASES))
def test_fixed_circuits_match_sorting_oracle(case):
    # Each compile as built (a PASS) and with its middle gate dropped;
    # exhaustive and sampled.
    spec, build = _ENGINE_CASES[case]
    good = build(spec)
    inputs = _all_inputs(good)
    for circ in (good, _drop_middle(good)):
        for cap in (None, 6):
            _assert_engine_matches_oracle(circ, spec, inputs, enumeration_cap=cap)


def _mcx_with_clean_gap():
    # 14 controls and a target around a clean ancilla at qubit 7, so the
    # 15 swept bits are not one run.  lower_mcx only appends clean
    # ancillas, so the network is placed on qubit 7 directly.
    roles = [QubitRole.DATA] * 16
    roles[7] = QubitRole.CLEAN_ANCILLA
    gate = mcx(tuple(q for q in range(15) if q != 7), 15)
    network = _network(McxStrategy.SINGLE_CLEAN, gate.controls, gate.target, (7,))
    return circuit(16, network, roles), gate, verify_mcx


_CHUNKED_CASES = {
    # name: build -> (circuit, what it should implement, verifier)
    "thm3_b_n15_inverse_aware": lambda: (
        _thm3_b_lowered(LoweringMode.INVERSE_AWARE)(_wide_spec(15, 8)),
        _wide_spec(15, 8),
        verify_transposition,
    ),
    # 10 data and 7 borrowed bits; at n=15 the 27 swept bits exceed the cap.
    "gray_n10_auto": lambda: (
        lower_mcx_auto(synthesize_transposition(_wide_spec(10, 9), SynthesisStrategy.GRAY_CODE)),
        _wide_spec(10, 9),
        verify_transposition,
    ),
    "mcx_clean_gap": _mcx_with_clean_gap,
}


@pytest.mark.parametrize("case", sorted(_CHUNKED_CASES))
def test_chunked_sweeps_match_whole_batch_oracle(case):
    good, target, verify = _CHUNKED_CASES[case]()
    for circ in (good, _drop_middle(good)):
        report = verify(circ, target)
        assert report.passed == (circ is good)
        assert not report.sampled and report.total_checked >= 2 * simulator._CHUNK
        assert report.to_text() == _oracle_report(circ, target, verify)


def test_failing_chunks_run_as_given_only_while_failures_are_listed(monkeypatch):
    # Every chunk of this check fails, and the first lists the most
    # failures a report holds.  The later chunks then list none, so they
    # run only on the raised gates, for their verdicts.
    good, spec, verify = _CHUNKED_CASES["thm3_b_n15_inverse_aware"]()
    broken = _drop_middle(good)
    as_given = []
    outcome = simulator._outcome

    def recording(gates, *args):
        as_given.append(gates is broken.gates)
        return outcome(gates, *args)

    monkeypatch.setattr(simulator, "_outcome", recording)
    report = verify(broken, spec)
    assert len(report.failures) == simulator._MAX_RECORDED_FAILURES
    assert report.failed > simulator._CHUNK
    chunks = report.total_checked // simulator._CHUNK
    assert chunks >= 2
    assert as_given == [False, True] + [False] * (chunks - 1)


def test_failing_reports_do_not_depend_on_the_chunk_size(monkeypatch):
    # No input's run depends on another's, and listing stops at the same
    # failure whatever chunk it falls in.
    good, spec, verify = _CHUNKED_CASES["thm3_b_n15_inverse_aware"]()
    broken = _drop_middle(good)
    reports = set()
    for chunk in (1 << 10, 1 << 13, 1 << 14):
        monkeypatch.setattr(simulator, "_CHUNK", chunk)
        reports.add(verify(broken, spec).to_text())
    assert len(reports) == 1
    assert reports.pop().startswith("FAIL: ")


def test_engine_merges_match_oracle_on_unraised_lowered_gates():
    # The verifiers raise this circuit's Toffoli blocks before the engine
    # runs, so a passing check meets only the flag's 2 H.  Here the engine
    # runs the gates as lowered, all 110 H, over one full chunk.
    circ, _, _ = _CHUNKED_CASES["thm3_b_n15_inverse_aware"]()
    inputs = _all_inputs(circ)[-simulator._CHUNK :]
    assert sum(g.kind is GateKind.H for g in circ.gates) == 110
    got = simulator._run_branches(circ.gates, inputs)
    assert _same_branches(got, oracle_passes._run_branches(circ.gates, inputs))
