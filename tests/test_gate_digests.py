"""Gate-order pins.

The other tests pin counts and semantics; these pin the exact gate
sequences (and the study CSV/markdown bytes) by SHA-256, so a refactor
that reorders gates without changing what they compute still shows up.
Each group hashes the concatenated text of every circuit it builds.
"""
import hashlib

import numpy as np
import pytest

from transposynth.harness import TrialConfig, export_stats, run_count_study, sample_transpositions
from transposynth.ir import Gate, GateKind, QubitRole, circuit, mcx, to_text
from transposynth.lowering import LoweringMode, lower_all_toffolis
from transposynth.mcx import (
    McxLayout,
    McxStrategy,
    lower_mcx,
    lower_mcx_auto,
    mcx_borrowed,
    mcx_clean_ladder,
    mcx_single_clean,
)
from transposynth.peephole import remove_redundancies
from transposynth.transposition import SynthesisStrategy, synthesize_transposition

BORROWED = QubitRole.BORROWED_ANCILLA
CLEAN = QubitRole.CLEAN_ANCILLA


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


def _builders():
    for k in range(3, 12):
        controls, target = tuple(range(k)), k
        yield mcx_borrowed(McxLayout(controls, target, tuple(range(k + 1, 2 * k - 1)), BORROWED))
        yield mcx_single_clean(McxLayout(controls, target, (k + 1,), CLEAN))
        yield mcx_clean_ladder(McxLayout(controls, target, tuple(range(k + 1, 2 * k - 1)), CLEAN))


def _lowered_mcx():
    for k in range(3, 12):
        gate = mcx(tuple(range(k)), k)
        ancillas = tuple(range(k + 1, 2 * k - 1))
        data = (QubitRole.DATA,) * (k + 1)
        # Borrowed: from the idle qubits, then from an explicit pool.
        yield lower_mcx(circuit(2 * k - 1, [gate]), McxStrategy.BORROWED)
        yield lower_mcx(circuit(2 * k - 1, [gate]), McxStrategy.BORROWED, ancillas[::-1])
        yield lower_mcx(
            circuit(k + 2, [gate], data + (CLEAN,)), McxStrategy.SINGLE_CLEAN, (k + 1,)
        )
        yield lower_mcx(
            circuit(2 * k - 1, [gate], data + (CLEAN,) * (k - 2)),
            McxStrategy.CLEAN_LADDER,
            ancillas,
        )


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


@pytest.mark.parametrize("group", sorted(PINNED))
def test_gate_sequences_are_pinned(group, tmp_path):
    assert _digest(_GROUPS[group](tmp_path)) == PINNED[group]
