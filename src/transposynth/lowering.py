"""Lowering Toffoli gates to the Clifford+T alphabet {H, T, Tdg, S, Sdg, CNOT},
and raising the lowered blocks back.

This module is the one owner of the Toffoli block: the 16-gate template,
its two orientations, the inverse-aware pairing and the raising the
verifier relies on all read the same slot tuples below.

A Toffoli costs 6 CNOT, 2 H, 7 T-type and 1 S-type gates here.  Two
orientations of the same decomposition are provided; they are exact
inverses of each other, so when a circuit contains a repeated Toffoli
with nothing in between acting on shared qubits, lowering the second
occurrence in the inverted orientation lets a later redundancy pass
cancel the facing halves.  lower_all_toffolis' inverse_aware mode finds
such pairs; naive mode lowers everything in the standard orientation.

Two Toffolis on the same three wires have nothing between them on those
wires exactly when, seen from the second, each wire's latest gate is the
first.  So the walk that emits the blocks also finds every pair, in time
linear in the total gate arity: it keeps each wire's latest gate, and a
Toffoli is the second of a pair when its three wires last saw the same
Toffoli, on the same target, and that Toffoli is not itself a second.
The second block is built on the first's control order, so the two
expansions mirror gate for gate.

A lowered circuit repeats the same few Toffolis many times (thm3_b at
n=400 has 1594 Toffolis over 399 distinct ones), so lower_all_toffolis
builds each block once per call, keyed by (control order, target,
orientation), and reuses the tuple; gates are immutable, so sharing them
is safe.

Template gates are the one gate build in the package that skips
validation: _block writes their fields itself, since their wires are the
three distinct wires of a validated Toffoli, and so this module, the
owner of the block format, decides which gates go unchecked.  Every
other gate, the Toffolis raising puts back included, comes from the
validated, interned ir._shared.

_raise_toffolis undoes the lowering: every 16-gate window that equals a
block, in either orientation and control order, becomes the one Toffoli
it implements.  This is exact, since a block is the Toffoli unitary.  The
verifier raises before it runs its branch engine, where each H costs a
split and a merge over every input and a Toffoli is one big-int step.
Where a block opens (H on the target standard, Sdg on c2 inverted) and
where it first names c1, c2 and the target come from the slot tuples;
each of those first namings is the gate's first operand.

The peephole keeps most blocks intact, but not all.  When a gate on
other wires sits between the two H of an inverse-aware pair's facing
halves, it cancels the gates that slide past that gate and leaves both
H, so neither block of the pair matches any more and both stay lowered.
thm3_b at n=3, a=111, b=110, inverse-aware plus the peephole, is such a
case: 90 gates with 14 H, and 30 with 6 H once raised.  Raising stays
exact there; it just leaves the engine more H.
"""
from __future__ import annotations

from enum import Enum
from functools import lru_cache

from .ir import Circuit, Gate, GateKind, _circuit, _require, _shared, dagger_kind

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

_TEMPLATES = {ToffoliOrientation.STANDARD: _STANDARD, ToffoliOrientation.INVERTED: _INVERTED}
_BLOCK_LEN = len(_STANDARD)


_new = object.__new__


def _block(c1: int, c2: int, target: int, orientation: ToffoliOrientation) -> tuple[Gate, ...]:
    # Trusted: the three wires are those of a validated Toffoli, so each
    # gate's fields are written without Gate's check.  The writes give
    # every block gate an instance dict, which reads slower than _shared's
    # inline values.  They stay until the benchmark's speed sampler can
    # time the faster compile ops that _shared would give (ROADMAP, "One
    # gate constructor").
    qubits = (c1, c2, target)
    block = []
    for kind, *slots in _TEMPLATES[orientation]:
        g = _new(Gate)
        fields = g.__dict__
        fields["kind"] = kind
        fields["controls"] = tuple(qubits[s] for s in slots[:-1])
        fields["target"] = qubits[slots[-1]]
        block.append(g)
    return tuple(block)


def lower_all_toffolis(circ: Circuit, mode: LoweringMode) -> Circuit:
    """Lower every Toffoli in circ.  MCX must already be lowered."""
    _require("circ", circ, Circuit)
    if type(mode) is not LoweringMode:
        raise ValueError(f"mode must be a LoweringMode, got {mode!r}")
    if any(g.kind is GateKind.MCX for g in circ.gates):
        raise ValueError("circuit still contains MCX; lower those first")
    aware = mode is LoweringMode.INVERSE_AWARE
    gates = circ.gates
    # Inverse-aware only: the index of each wire's latest gate while that
    # gate is a Toffoli that may still open a pair, and -1 otherwise.
    last = [-1] * circ.num_qubits
    blocks: dict[tuple, tuple[Gate, ...]] = {}
    out: list[Gate] = []
    for j, g in enumerate(gates):
        if g.kind is not GateKind.TOFFOLI:
            out.append(g)
            if aware:
                for q in g.qubits:
                    last[q] = -1
            continue
        c1, c2 = g.controls
        t = g.target
        key = (c1, c2, t, ToffoliOrientation.STANDARD)
        if aware:
            i = last[t]
            if i >= 0 and last[c1] == last[c2] == i and gates[i].target == t:
                key = (*gates[i].controls, t, ToffoliOrientation.INVERTED)
                i = -1  # a second never opens another pair
            else:
                i = j
            last[c1] = last[c2] = last[t] = i
        block = blocks.get(key)
        if block is None:
            block = blocks[key] = _block(*key)
        out.extend(block)
    return _circuit(circ.num_qubits, circ.roles, tuple(out))


#: Blocks built once per (c1, c2, target, orientation); each window that
#: might be one is compared with this tuple gate for gate.
_known_block = lru_cache(maxsize=4096)(_block)


def _first_namings(template: tuple[tuple, ...]) -> tuple[int, int, int]:
    """The window index of the gate that first names c1, c2 and the target."""
    return tuple(next(i for i, (_, *slots) in enumerate(template) if s in slots) for s in range(3))


#: A block's first gate kind -> its orientation and where it first names
#: its wires.
_OPENERS = {
    template[0][0]: (orientation, _first_namings(template))
    for orientation, template in _TEMPLATES.items()
}


def _raise_toffolis(gates: tuple[Gate, ...]) -> tuple[Gate, ...]:
    """gates with every window that equals a block, in either orientation
    and control order, replaced by the Toffoli it implements; gates itself
    when there is none.  Exact: each block is the Toffoli unitary."""
    out: list[Gate] = []
    last = len(gates) - _BLOCK_LEN
    i = 0
    while i < len(gates):
        opener = _OPENERS.get(gates[i].kind) if i <= last else None
        if opener is not None:
            orientation, named = opener
            c1, c2, t = (gates[i + at].qubits[0] for at in named)
            if len({c1, c2, t}) == 3 and gates[i : i + _BLOCK_LEN] == _known_block(
                c1, c2, t, orientation
            ):
                out.append(_shared(GateKind.TOFFOLI, (c1, c2), t))
                i += _BLOCK_LEN
                continue
        out.append(gates[i])
        i += 1
    return gates if len(out) == len(gates) else tuple(out)
