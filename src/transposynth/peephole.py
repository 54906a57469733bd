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

The pass holds its own links, built once per call: a linked list of
live gates, and per wire a dict from each live gate to the next live
gate on that wire and one to the previous.  A sliding gate's first
overlapping gate is the nearest next gate on one of its (at most two)
wires, a non-sliding gate's candidate is the next live gate, and a
rewrite unlinks gates in O(arity).  Each sweep therefore costs time
linear in the live gate count, where a forward scan past disjoint gates
made it quadratic.  The sweep order -- advance on no match, step back
one live gate after a rewrite -- is the order of the plain list pass,
and rewrite order decides the result (T T T on one wire gives S T, not
T S), so the output is gate-for-gate what that pass produced.  A single
pass in arrival order that looks backward cannot reproduce it: on
T0 X5 CNOT(1,0) CNOT(1,0) T0 T0 the list pass gives T0 X5 S0, and any
such pass gives S0 X5 T0.

The loop stops without a confirmation sweep.  A gate's partner depends
only on the gate itself, its next live gate and its wire-successors.  A
rewrite pairs gate i with a gate j on the same wires, with nothing
between them on those wires.  So it can change a partner only for the
gate just before i in the list and for i's wire-predecessors.  The
first is where the sweep resumes, so the sweep checks it again, and
every gate after it.  The wire-predecessors may lie far behind, so each
rewrite marks them dirty.  The sweep clears a gate's mark when it checks
the gate, so at the end of a sweep every live gate without a mark is
known to have no partner.  Another full sweep (in the same order) runs
only if a live dirty gate has a partner.  The result is the fixed point
the repeat-until-unchanged loop reaches, without the last sweep that
rewrites nothing.

Counts never go up: every rewrite removes two gates (cancellation) or
trades two T-type gates for one S-type gate (fusion).
"""
from __future__ import annotations

from .ir import _INVERSE_KIND, Circuit, Gate, GateKind, _circuit, _gate, _require

_K = GateKind

#: Kinds allowed to look past disjoint-support gates for a partner.  A
#: frozenset: GateKind hashes by identity, so a lookup is one C-level
#: hash, where a tuple compares with == member by member on a miss.
_SLIDING = frozenset((_K.X, _K.T, _K.TDG, _K.S, _K.SDG, _K.CNOT))

#: Kinds that fuse in pairs, and what the pair becomes: T.T -> S,
#: Tdg.Tdg -> Sdg.
_FUSED = {_K.T: _K.S, _K.TDG: _K.SDG}


def _partner(
    gates: list[Gate | None], nxt: list[int], wnext: list[dict[int, int]], i: int
) -> int | None:
    g = gates[i]
    kind = g.kind
    if kind not in _SLIDING:
        # H, Toffoli and MCX are their own inverses: the partner is the
        # next live gate if it has the same kind, target and control set
        # (control order does not matter).
        j = nxt[i]
        if j == len(gates):
            return None
        other = gates[j]
        if (
            other.kind is kind
            and other.target == g.target
            and (other.controls == g.controls or frozenset(other.controls) == frozenset(g.controls))
        ):
            return j
        return None
    # The first overlapping gate: the nearest next gate on one of g's wires.
    j = wnext[g.target][i]
    for q in g.controls:
        k = wnext[q][i]
        if k < j:
            j = k
    if j == len(gates):
        return None
    other = gates[j]
    # Both rules need the same target; test that before either rule.
    if other.target != g.target:
        return None
    if other.kind is _INVERSE_KIND[kind]:
        # Cancellation.  A sliding gate has at most one control, so the
        # control sets agree exactly when the tuples do.
        return j if other.controls == g.controls else None
    # Fusion: T.T -> S and Tdg.Tdg -> Sdg.
    return j if other.kind is kind and kind in _FUSED else None


def remove_redundancies(circ: Circuit) -> Circuit:
    _require("circ", circ, Circuit)
    gates: list[Gate | None] = list(circ.gates)
    end = len(gates)
    # The live gates form a circular doubly linked list through nxt / prv
    # whose sentinel is end: nxt[end] is the first live gate, prv[end] the
    # last.  One int object per position, shared by every link below.
    ids = list(range(end + 1))
    nxt = ids[1:] + ids[:1]
    prv = ids[-1:] + ids[:-1]
    # Per wire, each live gate's next and previous live gate on that wire,
    # with end at both ends.
    wnext: list[dict[int, int]] = [{} for _ in range(circ.num_qubits)]
    wprev: list[dict[int, int]] = [{} for _ in range(circ.num_qubits)]
    last = [end] * circ.num_qubits  # latest gate on each wire so far
    for k, g in zip(ids, gates):
        for q in g.controls + (g.target,):  # g.qubits, without the call
            p = last[q]
            wnext[q][p] = k
            wprev[q][k] = p
            last[q] = k
    for q, k in enumerate(last):
        wnext[q][k] = end
    dirty: set[int] = set()  # gates whose partner may have changed since checked
    while True:
        i = nxt[end]
        while i != end:
            dirty.discard(i)
            j = _partner(gates, nxt, wnext, i)
            if j is None:
                i = nxt[i]
                continue
            g = gates[i]
            # The gates just before i on its wires are about to see another
            # wire-successor, or another gate in its place.
            dirty.update([wprev[q][i] for q in g.qubits])
            fuses = g.kind in _FUSED and gates[j].kind is g.kind
            for k in (j,) if fuses else (j, i):
                # Unlink k from the gate list and from each of its wires.
                a, b = prv[k], nxt[k]
                nxt[a] = b
                prv[b] = a
                for q in gates[k].qubits:
                    a, b = wprev[q][k], wnext[q][k]
                    wnext[q][a] = b
                    wprev[q][b] = a
                gates[k] = None
            if fuses:
                # Trusted: the wire of a validated gate.
                gates[i] = _gate(_FUSED[g.kind], (), g.target)
            # Step back one live gate; at the front, resume at the front.
            i = prv[i] if prv[i] != end else nxt[end]
        dirty.discard(end)
        if not any(
            gates[k] is not None and _partner(gates, nxt, wnext, k) is not None for k in dirty
        ):
            break
        dirty.clear()  # the next sweep checks every gate
    return _circuit(circ.num_qubits, circ.roles, tuple(g for g in gates if g is not None))
