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
live gates, and per wire the positions of its gates in order, between
the sentinels -1 and the gate count.  A position list is built with one
append per gate on the wire and never edited; a gate that dies keeps its
slot.  The next live gate on a wire after gate i is in the slot that
bisect_right finds for i, the previous one in the slot before
bisect_left's, unless that slot is dead.  Dead slots are skipped through
two skip lists per wire, one per direction, with path halving (Tarjan
and van Leeuwen, JACM 1984).  A wire gets them the first time it loses a
gate, so a wire that never loses one costs no skip list and no skip
step.  That is most wires: of the wires that carry a gate, 84 % never
lose one in the 6708 circuits of the two 200-trial count tables, and
83 % in the five wide compiles of the benchmark.  Making the skip lists
for every wire up front made the pass 8-17 % slower on the table
circuits (minimum time) and made no clear difference on the wide compiles.

A sliding gate's first overlapping gate is the nearest next live gate on
one of its (at most two) wires, a non-sliding gate's candidate is the
next live gate, and a rewrite marks one slot dead per wire of each gate
it removes.  Each sweep therefore costs O(G log L) for G live gates and
L the longest position list, plus skip steps that path halving keeps
near-constant amortized, where a forward scan past disjoint gates made
it quadratic.  Deleting dead slots from the lists instead would move the
rest of a list at every removal, which is quadratic on one long wire.

The sweep order -- advance on no match, step back one live gate after a
rewrite -- is the order of the plain list pass, and rewrite order
decides the result (T T T on one wire gives S T, not T S), so the output
is gate-for-gate what that pass produced.  A single pass in arrival
order that looks backward cannot reproduce it: on
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

from bisect import bisect_left, bisect_right

from .ir import _INVERSE_KIND, Circuit, Gate, GateKind, _circuit, _require, _shared

_K = GateKind

#: Kinds allowed to look past disjoint-support gates for a partner.  A
#: frozenset: GateKind hashes by identity, so a lookup is one C-level
#: hash, where a tuple compares with == member by member on a miss.
_SLIDING = frozenset((_K.X, _K.T, _K.TDG, _K.S, _K.SDG, _K.CNOT))

#: Kinds that fuse in pairs, and what the pair becomes: T.T -> S,
#: Tdg.Tdg -> Sdg.
_FUSED = {_K.T: _K.S, _K.TDG: _K.SDG}


def _skip(links: list[int], s: int) -> int:
    """The first live slot from slot s along links, where a live slot links
    to itself and a dead one towards its neighbour.  Path halving: each
    dead slot passed is relinked to the slot two links on."""
    while links[s] != s:
        links[s] = s = links[links[s]]
    return s


def _partner(
    gates: list[Gate | None],
    nxt: list[int],
    wires: list[list[int]],
    ahead: list[list[int] | None],
    i: int,
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
    # The first overlapping gate: the nearest next live gate on one of g's
    # wires.  The slot after i on a wire holds its next gate, live unless
    # the wire has lost one.
    q = g.target
    wire = wires[q]
    s = bisect_right(wire, i)
    if ahead[q] is not None:
        s = _skip(ahead[q], s)
    j = wire[s]
    for q in g.controls:
        wire = wires[q]
        s = bisect_right(wire, i)
        if ahead[q] is not None:
            s = _skip(ahead[q], s)
        if wire[s] < j:
            j = wire[s]
    # Both rules need the same target; test that before either rule.
    if j == len(gates) or gates[j].target != g.target:
        return None
    other = gates[j]
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
    # Per wire, the positions of its gates in order, between the sentinels
    # -1 and end.  Never edited: a dead gate keeps its slot.
    wires = [[-1] for _ in range(circ.num_qubits)]
    for k, g in zip(ids, gates):
        wires[g.target].append(k)
        for q in g.controls:
            wires[q].append(k)
    for wire in wires:
        wire.append(end)
    # Per wire, from the first time it loses a gate, one skip list per
    # direction over its slots: a live slot links to itself, a dead one
    # towards the next (ahead) or previous (behind) slot.
    ahead: list[list[int] | None] = [None] * circ.num_qubits
    behind = ahead[:]
    dirty: set[int] = set()  # gates whose partner may have changed since checked
    while True:
        i = nxt[end]
        while i != end:
            dirty.discard(i)
            j = _partner(gates, nxt, wires, ahead, i)
            if j is None:
                i = nxt[i]
                continue
            g = gates[i]
            fuses = g.kind in _FUSED and gates[j].kind is g.kind
            dead = (j,) if fuses else (j, i)
            for q in g.qubits:  # j's wires too
                wire = wires[q]
                if ahead[q] is None:
                    ahead[q], behind[q] = list(range(len(wire))), list(range(len(wire)))
                # The gate just before i is about to see another
                # wire-successor, or another gate in its place.
                dirty.add(wire[_skip(behind[q], bisect_left(wire, i) - 1)])
                for k in dead:
                    s = bisect_left(wire, k)
                    ahead[q][s] = s + 1
                    behind[q][s] = s - 1
            for k in dead:
                a, b = prv[k], nxt[k]
                nxt[a] = b
                prv[b] = a
                gates[k] = None
            if fuses:
                gates[i] = _shared(_FUSED[g.kind], (), g.target)
            # Step back one live gate; at the front, resume at the front.
            i = prv[i] if prv[i] != end else nxt[end]
        dirty.discard(-1)  # the wires' front sentinel
        if not any(
            gates[k] is not None and _partner(gates, nxt, wires, ahead, k) is not None
            for k in dirty
        ):
            break
        dirty.clear()  # the next sweep checks every gate
    return _circuit(circ.roles, tuple(filter(None, gates)))
