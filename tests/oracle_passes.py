"""Frozen reference copies of the rewrite passes, for differential tests.

``remove_redundancies`` and ``_pair_second_occurrences`` below are the
forward-scan implementations that the wire-indexed passes in
``transposynth.peephole`` and ``transposynth.lowering`` replaced, kept
verbatim.  They are quadratic in circuit length, so tests run them only on
small and medium circuits.  Do not edit them: they define the gate order
the optimized passes must reproduce.
"""
from __future__ import annotations

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
    return Circuit(circ.num_qubits, circ.roles, tuple(gates))


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
        sup = g.support()
        ctrl = frozenset(g.controls)
        for j in range(i + 1, len(gates)):
            other = gates[j]
            if not (other.support() & sup):
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
