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

The gates live in an ir.WireIndex built once per call: a linked list of
live gates plus per-wire next/previous links.  A sliding gate's first
overlapping gate is the nearest next gate on one of its (at most two)
wires, a non-sliding gate's candidate is the next live gate, and a
rewrite unlinks gates in O(arity).  Each sweep therefore costs time
linear in the live gate count, where a forward scan past disjoint gates
made it quadratic.  The sweep order -- advance on no match, step back
one live gate after a rewrite -- is the order of the plain list pass,
and rewrite order decides the result (T T T on one wire gives S T, not
T S), so the output is gate-for-gate what that pass produced.

Counts never go up: every rewrite removes two gates (cancellation) or
trades two T-type gates for one S-type gate (fusion).
"""
from __future__ import annotations

from .ir import Circuit, Gate, GateKind, WireIndex, dagger_kind, s, sdg

_K = GateKind

#: Kinds allowed to look past disjoint-support gates for a partner.  A
#: tuple, not a set: membership then compares identities instead of
#: calling Enum.__hash__, which is measurable on the per-gate path.
_SLIDING = (_K.X, _K.T, _K.TDG, _K.S, _K.SDG, _K.CNOT)


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


def _partner(gates: list[Gate], index: WireIndex, i: int) -> int | None:
    g = gates[i]
    if g.kind not in _SLIDING:
        # H, Toffoli and MCX are their own inverses: a different kind can
        # never cancel, so skip _cancels (and its dict lookup) outright.
        j = index.next[i]
        if j != index.end and gates[j].kind is g.kind and _cancels(g, gates[j]):
            return j
        return None
    j = index.after(i)
    if j == index.end:
        return None
    other = gates[j]
    # Both rules need the same target; test that before either rule.
    if other.target == g.target and (_cancels(g, other) or _fuses(g, other)):
        return j
    return None


def remove_redundancies(circ: Circuit) -> Circuit:
    gates = list(circ.gates)
    index = WireIndex(gates, circ.num_qubits)
    end, nxt, prv = index.end, index.next, index.prev
    changed = True
    while changed:
        changed = False
        i = nxt[end]
        while i != end:
            j = _partner(gates, index, i)
            if j is None:
                i = nxt[i]
                continue
            if _cancels(gates[i], gates[j]):
                index.unlink(j)
                index.unlink(i)
            else:
                gates[i] = s(gates[i].target) if gates[i].kind is _K.T else sdg(gates[i].target)
                index.unlink(j)
            changed = True
            # Step back one live gate; at the front, resume at the front.
            i = prv[i] if prv[i] != end else nxt[end]
    return Circuit(circ.num_qubits, circ.roles, tuple(gates[k] for k in index.live()))
