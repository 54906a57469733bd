"""Gate-order and report pins.

The other tests pin counts and semantics; these pin the exact gate
sequences (and the study CSV/markdown bytes) by SHA-256, so a refactor
that reorders gates without changing what they compute still shows up.
Each group hashes the concatenated text of every circuit it builds.
The report groups do the same for verification reports, whose text
holds the input sweep order and the failing labels.
"""
import hashlib

import numpy as np
import pytest

from transposynth import simulator
from transposynth.harness import TrialConfig, export_stats, run_count_study, sample_transpositions
from transposynth.ir import Gate, GateKind, circuit, mcx, to_text, x
from transposynth.lowering import LoweringMode, lower_all_toffolis
from transposynth.mcx import McxStrategy, _network, lower_mcx, lower_mcx_auto
from transposynth.peephole import remove_redundancies
from transposynth.simulator import verify_mcx, verify_transposition
from transposynth.transposition import SynthesisStrategy, synthesize_transposition


def _specs(n):
    return sample_transpositions(n, 3, seed=11)


def _synthesized(strategy):
    return [synthesize_transposition(spec, strategy) for n in range(1, 17) for spec in _specs(n)]


def _synthesis():
    for strategy in SynthesisStrategy:
        yield from _synthesized(strategy)


def _gray_auto():
    for circ in _synthesized(SynthesisStrategy.GRAY_CODE):
        yield lower_mcx_auto(circ)


def _one_mcx(k, strategy):
    # The ancillas are appended from wire k+1 up with the strategy's role.
    return lower_mcx(circuit(k + 1, [mcx(tuple(range(k)), k)]), strategy)


def _builders():
    for k in range(3, 12):
        yield _one_mcx(k, McxStrategy.BORROWED)
        yield _one_mcx(k, McxStrategy.SINGLE_CLEAN)
        yield _one_mcx(k, McxStrategy.CLEAN_LADDER)


def _lowered_mcx():
    for k in range(3, 12):
        gate = mcx(tuple(range(k)), k)
        ancillas = tuple(range(k + 1, 2 * k - 1))
        # Borrowed: from the idle qubits, then the same ladder on them in
        # reverse order, which lower_mcx never picks but _network builds.
        yield lower_mcx(circuit(2 * k - 1, [gate]), McxStrategy.BORROWED)
        yield circuit(2 * k - 1, _network(McxStrategy.BORROWED, gate.controls, k, ancillas[::-1]))
        yield _one_mcx(k, McxStrategy.SINGLE_CLEAN)
        yield _one_mcx(k, McxStrategy.CLEAN_LADDER)


def _random_circuits(count, width, length, seed):
    rng = np.random.default_rng(seed)
    one_qubit = [k for k in GateKind if k not in (GateKind.CNOT, GateKind.TOFFOLI, GateKind.MCX)]
    for _ in range(count):
        gates = []
        for _ in range(length):
            arity = int(rng.integers(0, 3))
            qubits = [int(q) for q in rng.permutation(width)[: arity + 1]]
            if arity == 0:
                kind = one_qubit[int(rng.integers(0, len(one_qubit)))]
            else:
                kind = GateKind.CNOT if arity == 1 else GateKind.TOFFOLI
            gates.append(Gate(kind, tuple(qubits[:-1]), qubits[-1]))
        yield circuit(width, gates)


def _peephole():
    thm3 = [
        synthesize_transposition(spec, strategy)
        for strategy in (SynthesisStrategy.THM3_A, SynthesisStrategy.THM3_B)
        for n in range(1, 9)
        for spec in _specs(n)
    ]
    for mode in LoweringMode:
        for circ in thm3:
            yield remove_redundancies(lower_all_toffolis(circ, mode))
    yield from (remove_redundancies(c) for c in _random_circuits(40, 4, 30, seed=5))


_STUDIES = (
    TrialConfig((2, 3, 4, 5, 6), SynthesisStrategy.THM3_A, trials=8, seed=3),
    TrialConfig((3, 4, 5), SynthesisStrategy.THM3_B, trials=6, seed=1, hamming_distance=2,
                lowering=LoweringMode.INVERSE_AWARE, optimize=True),
    TrialConfig((2, 3, 4), SynthesisStrategy.GRAY_CODE, trials=5, seed=9,
                lowering=LoweringMode.NAIVE, optimize=True),
    TrialConfig((13,), SynthesisStrategy.THM3_B, trials=2, seed=4),
)


def _studies(tmp_path):
    for i, config in enumerate(_STUDIES):
        path = export_stats(run_count_study(config), tmp_path / f"study{i}.csv")
        yield path.read_text()
        yield path.with_suffix(".md").read_text()


def _digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode() if isinstance(text, str) else to_text(text).encode())
        h.update(b"\0")
    return h.hexdigest()


def _transposition_reports():
    # Good and broken (X 0 appended) circuits, exhaustive and spot-checked.
    for strategy in SynthesisStrategy:
        for n in range(1, 10):
            for spec in _specs(n):
                good = synthesize_transposition(spec, strategy)
                if strategy is SynthesisStrategy.GRAY_CODE:
                    good = lower_mcx_auto(good)
                broken = circuit(good.num_qubits, good.gates + (x(0),), good.roles)
                for circ in (good, broken):
                    for cap in (None, 4):
                        yield verify_transposition(circ, spec, enumeration_cap=cap).to_text()


def _mcx_reports():
    # Borrowed ladders, good, with X 0 appended and with the last Toffoli dropped.
    for k in range(3, 7):
        good = _one_mcx(k, McxStrategy.BORROWED)
        gate = mcx(tuple(range(k)), k)
        dropped = circuit(good.num_qubits, good.gates[:-1], good.roles)
        broken = circuit(good.num_qubits, good.gates + (x(0),), good.roles)
        for circ in (good, broken, dropped):
            yield verify_mcx(circ, gate).to_text()


def _dropped_gate_reports(kind):
    # Lowered thm3_b with one gate of the given kind deleted: the flag's H
    # or a Toffoli template's T.  Most failures are superpositions, so this
    # pins the non-basis text and which branch argmax calls leading.
    for mode in LoweringMode:
        for n in range(6, 10):
            for spec in _specs(n):
                good = lower_all_toffolis(
                    synthesize_transposition(spec, SynthesisStrategy.THM3_B), mode
                )
                hits = [i for i, g in enumerate(good.gates) if g.kind is kind]
                drop = hits[len(hits) // 2]
                gates = good.gates[:drop] + good.gates[drop + 1:]
                broken = circuit(good.num_qubits, gates, good.roles)
                yield verify_transposition(broken, spec).to_text()


def _broken_thm3_a(n, extra):
    """thm3_a on the first spec of width n, with the extra gates appended."""
    spec = _specs(n)[0]
    good = synthesize_transposition(spec, SynthesisStrategy.THM3_A)
    return circuit(good.num_qubits, good.gates + extra, good.roles), spec


def _multi_chunk_reports(failing):
    # Sweeps of 2^17 and 2^18 inputs, several plane chunks each.  "late":
    # thm3_a n=17 (index bit j on data wire j) with a gate appended that
    # fires only where wires 16 and 15 are set, so every failure lies past
    # the first chunk: 2^15 of them, and, on twelve controls, 32, all
    # listed.  "spread": thm3_a n=18 failing every 2^11 inputs, 128 in
    # all, so the listing crosses a chunk boundary and ends in "... and 64
    # more"; and an MCX failing wherever wires 3 and 5 are set.  Each
    # Toffoli-level circuit is checked on planes, and lowered it is raised
    # and listed from the gates as given.
    if failing == "late":
        cases = [_broken_thm3_a(17, (Gate(GateKind.TOFFOLI, (16, 15), 0),)),
                 _broken_thm3_a(17, (mcx(tuple(range(16, 4, -1)), 0),))]
    else:
        cases = [_broken_thm3_a(18, (mcx(tuple(range(11)), 11),))]
    for broken, spec in cases:
        yield verify_transposition(broken, spec).to_text()
        if all(g.kind is not GateKind.MCX for g in broken.gates):
            lowered = lower_all_toffolis(broken, LoweringMode.NAIVE)
            yield verify_transposition(lowered, spec).to_text()
    if failing == "spread":
        gate = mcx(tuple(range(16)), 16)
        broken = circuit(17, [gate, Gate(GateKind.TOFFOLI, (3, 5), 16)])
        yield verify_mcx(broken, gate).to_text()


#: Recorded before the MCX dispatch and register sizing were refactored.
PINNED = {
    "synthesis": "e9e153a7b8add9be0bdc216102807f8598719a8ccfb8b2a53409a68f6f7c1f7b",
    "gray_auto": "bbdbdcc00045f9b374adc7206152d4dd48ba216e0485bd5318d287a4fc9dc0f5",
    "builders": "8e9810bc29ed9d952ab523e861e52bb8212b0f3183bf71a89245dea572e66bd5",
    "lowered_mcx": "ea440f7649d498c608d7af0ec61f5f253b884f0897eec84785be0895f8faac3e",
    "peephole": "288b0b68990763b146c583348d6f482f5fdafcaa76fd4475448508dbd20ecdc3",
    "studies": "293d60f28cef6380ac227dd14a7a5d19b4a00c247cccf09eeeddbbd1ce36eba2",
}

_GROUPS = {
    "synthesis": lambda tmp_path: _synthesis(),
    "gray_auto": lambda tmp_path: _gray_auto(),
    "builders": lambda tmp_path: _builders(),
    "lowered_mcx": lambda tmp_path: _lowered_mcx(),
    "peephole": lambda tmp_path: _peephole(),
    "studies": _studies,
}


_REPORTS = {
    "transposition": _transposition_reports,
    "mcx": _mcx_reports,
    "dropped-t": lambda: _dropped_gate_reports(GateKind.T),
    "dropped-h": lambda: _dropped_gate_reports(GateKind.H),
    "late": lambda: _multi_chunk_reports("late"),
    "spread": lambda: _multi_chunk_reports("spread"),
}

#: Recorded before the layout builders and BasisState were removed (the
#: dropped-gate groups: before the branch engine's bit-sliced runs and
#: sort-free merge; "late" and "spread": before the sweep's planes were
#: held one chunk of 2^16 inputs at a time); the "sampled" groups run with
#: the simulator cap at 5.
PINNED_REPORTS = {
    "transposition": "ec45b87ade426621daacf01f0c143bdc6049ce3b389b13c70138cc0ab68f70ac",
    "mcx": "c858f9bfb1ecf141f1d3a3620d2920fff9cf56e0641104a7c3443643623b99c7",
    "transposition_sampled": "35b26a0d57e957c289c88f406d34955ec26c9f753269f5f47f5217fc8bc33482",
    "mcx_sampled": "ec61b01df2632fa5fd3885f0f88bf514f9cb3b2bd3ea6cdda7a9ea850b0c12df",
    "dropped-t": "0b0804c3a0341bf2077851aa5cb90fd2a31e727813042b57dd0205ede8087524",
    "dropped-h": "d92555798235b7b183dcdf74e3dd3a5e6d92a4339f6c669b3f00183e8e20aa96",
    "dropped-t_sampled": "176872c3dc50760f2a6377eb02a5d3a656367fb9568b30090831fbdb4ecc95d6",
    "dropped-h_sampled": "9e934ede86ddafd2e0815f208e6fb956e94646f47ed45c1f1b10ffddc3f571bc",
    "late": "34de2cb765ec46d59b5da6d30dca1d15a0c02cd34f656ad5b82c7ab8a5e9f576",
    "spread": "acf270a9c3ff2d064d7ad7030fa1a20d67adde89c3a59ecc0eee66a48315bacb",
}


@pytest.mark.parametrize("group", sorted(PINNED))
def test_gate_sequences_are_pinned(group, tmp_path):
    assert _digest(_GROUPS[group](tmp_path)) == PINNED[group]


@pytest.mark.parametrize("group", sorted(PINNED_REPORTS))
def test_verification_reports_are_pinned(group, monkeypatch):
    name, _, mode = group.partition("_")
    if mode:
        monkeypatch.setattr(simulator, "_SIM_CAP", 5)
    assert _digest(_REPORTS[name]()) == PINNED_REPORTS[group]
