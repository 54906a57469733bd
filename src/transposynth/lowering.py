"""Lowering Toffoli gates to the Clifford+T alphabet {H, T, Tdg, S, Sdg, CNOT}.

A Toffoli costs 6 CNOT, 2 H, 7 T-type and 1 S-type gates here.  Two
orientations of the same decomposition are provided; they are exact
inverses of each other, so when a circuit contains a repeated Toffoli
with nothing in between acting on shared qubits, lowering the second
occurrence in the inverted orientation lets a later redundancy pass
cancel the facing halves.  lower_all_toffolis' inverse_aware mode finds
such pairs; naive mode lowers everything in the standard orientation.

Two Toffolis on the same three wires have nothing between them on those
wires exactly when, seen from the second, each wire's latest gate is the
first.  So one forward pass that keeps each wire's latest gate finds
every pair, in time linear in the total gate arity.

A lowered circuit repeats the same few Toffolis many times (thm3_b at
n=400 has 1594 Toffolis over 399 distinct ones), so lower_all_toffolis
builds each block once per call, keyed by (control order, target,
orientation), and reuses the tuple; gates are immutable, so sharing them
is safe.  Template gates go through the trusted ir._gate: their wires
are the three distinct wires of a validated Toffoli.
"""
from __future__ import annotations

from enum import Enum

from .ir import Circuit, Gate, GateKind, _circuit, _gate, dagger_kind

_K = GateKind

# Template over slots: 0 and 1 are the controls, 2 the target.
_STANDARD: tuple[tuple, ...] = (
    (_K.H, 2),
    (_K.CNOT, 1, 2),
    (_K.TDG, 2),
    (_K.CNOT, 0, 2),
    (_K.T, 2),
    (_K.CNOT, 1, 2),
    (_K.TDG, 2),
    (_K.CNOT, 0, 2),
    (_K.TDG, 1),
    (_K.T, 2),
    (_K.CNOT, 0, 1),
    (_K.H, 2),
    (_K.TDG, 1),
    (_K.CNOT, 0, 1),
    (_K.T, 0),
    (_K.S, 1),
)


class ToffoliOrientation(Enum):
    STANDARD = "standard"
    INVERTED = "inverted"


class LoweringMode(Enum):
    NAIVE = "naive"
    INVERSE_AWARE = "inverse_aware"


# The inverted orientation: the standard one reversed, each gate daggered.
_INVERTED = tuple((dagger_kind(kind), *slots) for kind, *slots in reversed(_STANDARD))


def _block(c1: int, c2: int, target: int, orientation: ToffoliOrientation) -> tuple[Gate, ...]:
    # Trusted: the three wires are those of a validated Toffoli.
    qubits = (c1, c2, target)
    template = _INVERTED if orientation is ToffoliOrientation.INVERTED else _STANDARD
    return tuple(
        _gate(kind, tuple(qubits[s] for s in slots[:-1]), qubits[slots[-1]])
        for kind, *slots in template
    )


def lower_toffoli(g: Gate, orientation: ToffoliOrientation) -> list[Gate]:
    """Expand one Toffoli into 16 one- and two-qubit gates."""
    if g.kind is not GateKind.TOFFOLI:
        raise ValueError(f"expected a Toffoli, got {g.kind.value}")
    return list(_block(g.controls[0], g.controls[1], g.target, orientation))


def _pair_second_occurrences(circ: Circuit) -> dict[int, tuple[int, int]]:
    """Map each second-of-a-pair Toffoli index to its partner's control
    order: for each Toffoli, the next Toffoli on the same (unordered
    controls, target) triple with only disjoint-support gates in between.
    The inverted copy is instantiated on the partner's control order so the
    two expansions mirror gate-for-gate.  Pairs do not chain -- a second
    occurrence is never also a first."""
    gates = circ.gates
    last = [-1] * circ.num_qubits  # latest gate on each wire so far
    inverted: dict[int, tuple[int, int]] = {}
    for j, g in enumerate(gates):
        if g.kind is GateKind.TOFFOLI:
            i = last[g.target]
            if i >= 0 and last[g.controls[0]] == last[g.controls[1]] == i and i not in inverted:
                first = gates[i]
                if first.kind is GateKind.TOFFOLI and first.target == g.target:
                    inverted[j] = first.controls
        for q in g.qubits:
            last[q] = j
    return inverted


def lower_all_toffolis(circ: Circuit, mode: LoweringMode) -> Circuit:
    """Lower every Toffoli in circ.  MCX must already be lowered."""
    if any(g.kind is GateKind.MCX for g in circ.gates):
        raise ValueError("circuit still contains MCX; lower those first")
    inverted = (
        _pair_second_occurrences(circ)
        if mode is LoweringMode.INVERSE_AWARE
        else {}
    )
    blocks: dict[tuple, tuple[Gate, ...]] = {}
    out: list[Gate] = []
    for i, g in enumerate(circ.gates):
        if g.kind is not GateKind.TOFFOLI:
            out.append(g)
            continue
        if i in inverted:
            key = (*inverted[i], g.target, ToffoliOrientation.INVERTED)
        else:
            key = (*g.controls, g.target, ToffoliOrientation.STANDARD)
        block = blocks.get(key)
        if block is None:
            block = blocks[key] = _block(*key)
        out.extend(block)
    return _circuit(circ.num_qubits, circ.roles, tuple(out))
