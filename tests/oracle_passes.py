"""Frozen reference copies of rewritten code, for differential tests.

``remove_redundancies`` and ``_pair_second_occurrences`` below are the
forward-scan implementations that the wire-indexed passes in
``transposynth.peephole`` and ``transposynth.lowering`` replaced, kept
verbatim.  They are quadratic in circuit length, so tests run them only on
small and medium circuits.  Do not edit them: they define the gate order
the optimized passes must reproduce.

``_run_branches`` and ``_merge`` are the argsort-based branch engine that
``transposynth.simulator`` replaced with bit-sliced permutation runs and a
sort-free merge, also kept verbatim.  They define the keys and amplitudes
the new engine must reproduce, bit for bit except for the sign of a zero:
the sorted merge adds +0 to an input's amplitudes depending on the other
inputs in its batch, and the engine, which runs inputs in independent
chunks, does not.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from transposynth.ir import Circuit, Gate, GateKind, dagger_kind, s, sdg

_K = GateKind

#: Kinds allowed to look past disjoint-support gates for a partner.
_SLIDING = frozenset({_K.X, _K.T, _K.TDG, _K.S, _K.SDG, _K.CNOT})


def _cancels(g: Gate, other: Gate) -> bool:
    # The inverse kind on the same target and control set; control order
    # does not matter.
    return (
        other.kind is dagger_kind(g.kind)
        and other.target == g.target
        and frozenset(other.controls) == frozenset(g.controls)
    )


def _fuses(g: Gate, other: Gate) -> bool:
    return (
        g.kind in (_K.T, _K.TDG)
        and other.kind is g.kind
        and other.target == g.target
    )


def _partner(gates: list[Gate], sups: list[set[int]], i: int) -> int | None:
    g = gates[i]
    if g.kind not in _SLIDING:
        j = i + 1
        if j < len(gates) and _cancels(g, gates[j]):
            return j
        return None
    sup = sups[i]
    for j in range(i + 1, len(gates)):
        if sups[j].isdisjoint(sup):
            continue
        if _cancels(g, gates[j]) or _fuses(g, gates[j]):
            return j
        return None
    return None


def remove_redundancies(circ: Circuit) -> Circuit:
    gates = list(circ.gates)
    sups = [set(g.qubits) for g in gates]
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(gates):
            j = _partner(gates, sups, i)
            if j is None:
                i += 1
                continue
            if _cancels(gates[i], gates[j]):
                del gates[j], sups[j]
                del gates[i], sups[i]
            else:
                fused = s(gates[i].target) if gates[i].kind is _K.T else sdg(gates[i].target)
                gates[i] = fused
                del gates[j], sups[j]
            changed = True
            if i:
                i -= 1
    return Circuit(circ.roles, tuple(gates))


def _pair_second_occurrences(gates: tuple[Gate, ...]) -> dict[int, tuple[int, int]]:
    """Map each second-of-a-pair Toffoli index to its partner's control
    order: for each Toffoli, the next Toffoli on the same (unordered
    controls, target) triple with only disjoint-support gates in between.
    The inverted copy is instantiated on the partner's control order so the
    two expansions mirror gate-for-gate.  Pairs do not chain -- a second
    occurrence is never also a first."""
    inverted: dict[int, tuple[int, int]] = {}
    consumed: set[int] = set()
    for i, g in enumerate(gates):
        if g.kind is not GateKind.TOFFOLI or i in consumed or i in inverted:
            continue
        sup = frozenset(g.qubits)
        ctrl = frozenset(g.controls)
        for j in range(i + 1, len(gates)):
            other = gates[j]
            if not (frozenset(other.qubits) & sup):
                continue
            if (
                other.kind is GateKind.TOFFOLI
                and other.target == g.target
                and frozenset(other.controls) == ctrl
                and j not in inverted
                and j not in consumed
            ):
                inverted[j] = g.controls
                consumed.add(i)
            break
    return inverted


_SENTINEL = np.uint64(0xFFFFFFFFFFFFFFFF)
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_PHASE = {
    GateKind.T: cmath.exp(0.25j * math.pi),
    GateKind.TDG: cmath.exp(-0.25j * math.pi),
    GateKind.S: 1j,
    GateKind.SDG: -1j,
}


def _merge(keys: np.ndarray, amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    order = np.argsort(keys, axis=1, kind="stable")
    keys = np.take_along_axis(keys, order, axis=1)
    amps = np.take_along_axis(amps, order, axis=1)
    dup = keys[:, 1:] == keys[:, :-1]
    if dup.any():
        amps[:, :-1] += np.where(dup, amps[:, 1:], 0)
        amps[:, 1:] = np.where(dup, 0, amps[:, 1:])
    dead = np.abs(amps) < 1e-14
    amps[dead] = 0
    keys[dead] = _SENTINEL
    if keys.shape[1] > 1:
        order = np.argsort(keys, axis=1, kind="stable")
        keys = np.take_along_axis(keys, order, axis=1)
        amps = np.take_along_axis(amps, order, axis=1)
        width = max(int((amps != 0).sum(axis=1).max()), 1)
        keys = keys[:, :width].copy()
        amps = amps[:, :width].copy()
    return keys, amps


def _run_branches(gates: tuple[Gate, ...], inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    keys = inputs.astype(np.uint64).reshape(-1, 1)
    amps = np.ones_like(keys, dtype=np.complex128)
    for g in gates:
        tbit = np.uint64(1 << g.target)
        if g.kind is GateKind.H:
            live = amps != 0
            sign = np.where((keys & tbit) != 0, -1.0, 1.0)
            k_lo = np.where(live, keys & ~tbit, _SENTINEL)
            k_hi = np.where(live, keys | tbit, _SENTINEL)
            half = amps * _INV_SQRT2
            keys = np.concatenate([k_lo, k_hi], axis=1)
            amps = np.concatenate([half, half * sign], axis=1)
            keys, amps = _merge(keys, amps)
        elif g.kind in _PHASE:
            amps = np.where((keys & tbit) != 0, amps * _PHASE[g.kind], amps)
        else:
            cmask = 0
            for c in g.controls:
                cmask |= 1 << c
            cmask = np.uint64(cmask)
            fire = (keys & cmask) == cmask
            keys = np.where(fire, keys ^ tbit, keys)
    return _merge(keys, amps)
