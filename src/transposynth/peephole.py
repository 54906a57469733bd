"""Redundancy removal by inverse-pair cancellation.

Repeatedly sweeps the gate list, cancelling each gate with the nearest
following inverse on the same qubits and fusing T.T -> S (and
Tdg.Tdg -> Sdg), until a full sweep changes nothing.

The matching window is deliberately kind-dependent.  Gates of at most
two qubits that are diagonal or classical (X, T, Tdg, S, Sdg, CNOT) may
slide past any run of gates whose support is disjoint from theirs; the
first overlapping gate either is the partner or blocks the search.  H,
Toffoli and MCX only pair when literally adjacent in the list.  That is
enough to merge the X banks that meet between two projector blocks and
to peel the facing halves of an inverted/standard Toffoli lowering
pair, while never reordering around a basis change or restructuring the
multi-controlled skeleton itself.

Counts never go up: every rewrite removes two gates (cancellation) or
trades two T-type gates for one S-type gate (fusion).
"""
from __future__ import annotations

from .ir import Circuit, Gate, GateKind, dagger_kind, s, sdg

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
