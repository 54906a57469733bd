"""Gate-level circuit IR.

Immutable gates and circuits over the fixed alphabet {H, X, T, Tdg, S,
Sdg, CNOT, Toffoli, MCX}.  MCX (an X with any number of controls) is a
first-class gate so that multi-controlled constructions can be counted
and lowered explicitly instead of disappearing into a library call.

Contains:
  * GateKind / Gate and small constructor helpers (h, x, cnot, ...)
  * QubitRole and Circuit (a fixed register plus a gate sequence)
  * _gate / _circuit -- trusted constructors for the compile passes
  * GateCounts / count_gates
  * label_to_int / int_to_label -- the one basis-label convention
  * inverse / concat / append_gate
  * WireIndex -- per-wire next/previous links over a gate list, for the
    peephole
  * text and OpenQASM 2 serialization

Convention: qubit i carries bit i of a basis label, and labels are
written lowest index first, so "011" means qubit 0 in |0>, qubits 1 and
2 in |1>.  All transforms return new values; nothing here mutates.

Trusted constructors: Gate(...) and Circuit(...) validate every field,
which is most of the cost of building one.  The private _gate and
_circuit fill the fields without that check.  They are for passes that
build values only from values that were already validated: a gate whose
qubits are distinct wires of a validated gate (a Toffoli's template
gates, a gate's inverse, an MCX ladder over a validated ancilla pool),
a gate of the flag circuit of a validated transposition spec (wires
0..n by construction), or a circuit over a register whose gates are
known to fit it (that flag circuit, and the circuits lower_mcx,
lower_all_toffolis and remove_redundancies return).
Everything public -- Gate, circuit, from_text -- still checks in full.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class GateKind(Enum):
    H = "H"
    X = "X"
    T = "T"
    TDG = "TDG"
    S = "S"
    SDG = "SDG"
    CNOT = "CNOT"
    TOFFOLI = "TOFFOLI"
    MCX = "MCX"

    # Members are singletons compared by identity, so the identity hash
    # is consistent with ==.  Enum's own hash is a Python-level call,
    # measurable on every per-gate dict lookup and Gate hash.
    __hash__ = object.__hash__


# Controls each kind expects; None means "one or more" (MCX).
_CONTROL_ARITY: dict[GateKind, int | None] = {
    GateKind.H: 0,
    GateKind.X: 0,
    GateKind.T: 0,
    GateKind.TDG: 0,
    GateKind.S: 0,
    GateKind.SDG: 0,
    GateKind.CNOT: 1,
    GateKind.TOFFOLI: 2,
    GateKind.MCX: None,
}

_DAGGER = {
    GateKind.T: GateKind.TDG,
    GateKind.TDG: GateKind.T,
    GateKind.S: GateKind.SDG,
    GateKind.SDG: GateKind.S,
}

#: Kinds whose action permutes basis states (no phases, no superposition).
PERMUTATION_KINDS = frozenset(
    {GateKind.X, GateKind.CNOT, GateKind.TOFFOLI, GateKind.MCX}
)


class QubitRole(Enum):
    DATA = "data"
    CLEAN_ANCILLA = "clean"
    BORROWED_ANCILLA = "borrowed"


@dataclass(frozen=True)
class Gate:
    """One gate: a kind, an ordered control tuple and a target qubit."""

    kind: GateKind
    controls: tuple[int, ...]
    target: int

    def __post_init__(self) -> None:
        if type(self.kind) is not GateKind:
            raise ValueError(f"gate kind must be a GateKind, got {self.kind!r}")
        if type(self.controls) is not tuple:
            raise ValueError(f"controls must be a tuple, got {self.controls!r}")
        arity = _CONTROL_ARITY[self.kind]
        if arity is None:
            if not self.controls:
                raise ValueError("MCX requires at least one control")
        elif len(self.controls) != arity:
            raise ValueError(
                f"{self.kind.value} takes {arity} control(s), got {len(self.controls)}"
            )
        qubits = self.controls + (self.target,)
        for q in qubits:
            # type() and not isinstance(): a bool or an int subclass would
            # print as something from_text cannot read back.
            if type(q) is not int:
                raise ValueError(f"qubit indices must be ints, got {qubits}")
            if q < 0:
                raise ValueError(f"negative qubit index in {qubits}")
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"duplicate qubit in {self.kind.value} gate: {qubits}")

    @property
    def qubits(self) -> tuple[int, ...]:
        return self.controls + (self.target,)

    def support(self) -> frozenset[int]:
        return frozenset(self.qubits)


_new = object.__new__


def _gate(kind: GateKind, controls: tuple[int, ...], target: int) -> Gate:
    """A Gate built without validation.  Only for fields taken from
    validated values; see the module docstring."""
    g = _new(Gate)
    fields = g.__dict__
    fields["kind"] = kind
    fields["controls"] = controls
    fields["target"] = target
    return g


def h(q: int) -> Gate:
    return Gate(GateKind.H, (), q)


def x(q: int) -> Gate:
    return Gate(GateKind.X, (), q)


def t(q: int) -> Gate:
    return Gate(GateKind.T, (), q)


def tdg(q: int) -> Gate:
    return Gate(GateKind.TDG, (), q)


def s(q: int) -> Gate:
    return Gate(GateKind.S, (), q)


def sdg(q: int) -> Gate:
    return Gate(GateKind.SDG, (), q)


def cnot(control: int, target: int) -> Gate:
    return Gate(GateKind.CNOT, (control,), target)


def toffoli(c1: int, c2: int, target: int) -> Gate:
    return Gate(GateKind.TOFFOLI, (c1, c2), target)


def mcx(controls: tuple[int, ...] | list[int], target: int) -> Gate:
    return Gate(GateKind.MCX, tuple(controls), target)


def label_to_int(bits: str, width: int) -> int:
    """The basis index of a width-bit label; character i is qubit i."""
    if len(bits) != width or not bits or set(bits) - {"0", "1"}:
        raise ValueError(f"{bits!r} is not a {width}-bit label")
    return int(bits[::-1], 2)


def int_to_label(value: int, width: int) -> str:
    """The width-bit label of basis index value, qubit 0 first."""
    if width < 1 or not 0 <= value < 1 << width:
        raise ValueError(f"{value} is not a {width}-bit basis index")
    return format(value, f"0{width}b")[::-1]


def dagger_kind(kind: GateKind) -> GateKind:
    """The kind of a gate's inverse; every kind but T/Tdg/S/Sdg is its own."""
    return _DAGGER.get(kind, kind)


def inverse_gate(g: Gate) -> Gate:
    # Same wires as a validated gate, so nothing to re-check.
    return _gate(dagger_kind(g.kind), g.controls, g.target)


@dataclass(frozen=True)
class GateCounts:
    """Per-kind gate tally.  T/Tdg share t_type; S/Sdg share s_type."""

    h: int = 0
    x: int = 0
    cnot: int = 0
    toffoli: int = 0
    mcx: int = 0
    t_type: int = 0
    s_type: int = 0

    @property
    def total(self) -> int:
        return self.h + self.x + self.cnot + self.toffoli + self.mcx + self.t_type + self.s_type

    def __add__(self, other: GateCounts) -> GateCounts:
        return GateCounts(
            self.h + other.h,
            self.x + other.x,
            self.cnot + other.cnot,
            self.toffoli + other.toffoli,
            self.mcx + other.mcx,
            self.t_type + other.t_type,
            self.s_type + other.s_type,
        )

    def summary(self) -> str:
        return (
            f"h={self.h} x={self.x} cnot={self.cnot} toffoli={self.toffoli} "
            f"mcx={self.mcx} t={self.t_type} s={self.s_type} total={self.total}"
        )


_COUNT_FIELD = {
    GateKind.H: "h",
    GateKind.X: "x",
    GateKind.CNOT: "cnot",
    GateKind.TOFFOLI: "toffoli",
    GateKind.MCX: "mcx",
    GateKind.T: "t_type",
    GateKind.TDG: "t_type",
    GateKind.S: "s_type",
    GateKind.SDG: "s_type",
}


@dataclass(frozen=True)
class Circuit:
    """A register of num_qubits qubits (with roles) and a gate sequence."""

    num_qubits: int
    roles: tuple[QubitRole, ...]
    gates: tuple[Gate, ...] = ()

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        if len(self.roles) != self.num_qubits:
            raise ValueError(
                f"got {len(self.roles)} roles for {self.num_qubits} qubits"
            )
        for g in self.gates:
            if max(g.qubits) >= self.num_qubits:
                raise ValueError(f"gate {g} outside register of {self.num_qubits}")

    def data_qubits(self) -> tuple[int, ...]:
        return tuple(i for i, r in enumerate(self.roles) if r is QubitRole.DATA)

    def __len__(self) -> int:
        return len(self.gates)


def _circuit(
    num_qubits: int, roles: tuple[QubitRole, ...], gates: tuple[Gate, ...]
) -> Circuit:
    """A Circuit built without validation.  Only for a register and gates
    already known to fit each other; see the module docstring."""
    c = _new(Circuit)
    fields = c.__dict__
    fields["num_qubits"] = num_qubits
    fields["roles"] = roles
    fields["gates"] = gates
    return c


def circuit(
    num_qubits: int,
    gates: tuple[Gate, ...] | list[Gate] = (),
    roles: tuple[QubitRole, ...] | None = None,
) -> Circuit:
    """Build a circuit; roles default to all-data."""
    if roles is None:
        roles = (QubitRole.DATA,) * num_qubits
    return Circuit(num_qubits, tuple(roles), tuple(gates))


def append_gate(circ: Circuit, g: Gate) -> Circuit:
    return Circuit(circ.num_qubits, circ.roles, circ.gates + (g,))


def concat(first: Circuit, second: Circuit) -> Circuit:
    """Run first, then second.  Both must share the exact same register."""
    if first.num_qubits != second.num_qubits or first.roles != second.roles:
        raise ValueError("cannot concat circuits over different registers")
    return Circuit(first.num_qubits, first.roles, first.gates + second.gates)


def inverse(circ: Circuit) -> Circuit:
    """Reverse the gate order and dagger each gate."""
    return Circuit(
        circ.num_qubits,
        circ.roles,
        tuple(inverse_gate(g) for g in reversed(circ.gates)),
    )


def count_gates(circ: Circuit) -> GateCounts:
    tally = {name: 0 for name in ("h", "x", "cnot", "toffoli", "mcx", "t_type", "s_type")}
    for g in circ.gates:
        tally[_COUNT_FIELD[g.kind]] += 1
    return GateCounts(**tally)


# --- wire index ------------------------------------------------------------


class WireIndex:
    """Per-wire links over a gate list, for passes that ask "which later
    gate is the next one on my wires?" and delete gates as they go.

    Gate k keeps list position k for life.  The live gates form a circular
    doubly linked list through ``next``/``prev`` whose sentinel is
    ``end == len(gates)``: ``next[end]`` is the first live gate and
    ``prev[end]`` the last.  Each (gate, wire) pair is a slot with its own
    next and previous slot on that wire, so ``unlink`` costs O(arity) and
    ``after`` is a minimum over the gate's slots.  Slot 0 is a shared
    sentinel owned by ``end``: it stands for "no gate" at both ends of
    every wire.  All links are flat int lists -- no per-gate set or dict --
    because the index of a 100k-gate circuit must not dominate memory.
    """

    __slots__ = ("end", "next", "prev", "_first", "_owner", "_wnext", "_wprev")

    def __init__(self, gates: list[Gate] | tuple[Gate, ...], num_qubits: int) -> None:
        end = len(gates)
        first = [0] * (end + 1)  # gate k owns slots first[k] .. first[k + 1] - 1
        owner = [end]
        wnext = [0]
        wprev = [0]
        last = [0] * num_qubits  # latest slot on each wire so far
        # One int object per position, shared by every list below.
        ids = list(range(end + 1))
        for k, g in zip(ids, gates):
            first[k] = len(owner)
            for q in g.qubits:
                s = len(owner)
                p = last[q]
                wnext[p] = s
                wnext.append(0)
                wprev.append(p)
                owner.append(k)
                last[q] = s
        first[end] = len(owner)
        self.end = end
        self.next = ids[1:] + ids[:1]
        self.prev = ids[-1:] + ids[:-1]
        self._first = first
        self._owner = owner
        self._wnext = wnext
        self._wprev = wprev

    def after(self, k: int) -> int:
        """The lowest-indexed live gate after gate k that shares a wire
        with it, or end.  Gate k itself must be live."""
        owner, wnext = self._owner, self._wnext
        j = self.end
        for s in range(self._first[k], self._first[k + 1]):
            o = owner[wnext[s]]
            if o < j:
                j = o
        return j

    def before(self, k: int) -> list[int]:
        """The live gate just before gate k on each of its wires, or end
        where k is the first.  Gate k itself must be live."""
        owner, wprev = self._owner, self._wprev
        return [owner[wprev[s]] for s in range(self._first[k], self._first[k + 1])]

    def unlink(self, k: int) -> None:
        """Delete live gate k from the gate list and from each of its wires."""
        nxt, prv = self.next, self.prev
        a, b = prv[k], nxt[k]
        nxt[a] = b
        prv[b] = a
        wnext, wprev = self._wnext, self._wprev
        for s in range(self._first[k], self._first[k + 1]):
            a, b = wprev[s], wnext[s]
            wnext[a] = b
            wprev[b] = a

    def live(self) -> list[int]:
        """Positions of the live gates, in list order."""
        nxt, end = self.next, self.end
        out = []
        k = nxt[end]
        while k != end:
            out.append(k)
            k = nxt[k]
        return out


# --- serialization ---------------------------------------------------------

_ROLE_NAME = {
    QubitRole.DATA: "data",
    QubitRole.CLEAN_ANCILLA: "clean",
    QubitRole.BORROWED_ANCILLA: "borrowed",
}
_NAME_ROLE = {v: k for k, v in _ROLE_NAME.items()}


def to_text(circ: Circuit) -> str:
    """Plain-text form: a qubits line, one role line per qubit, one gate
    line per gate (KIND, controls in order, target last)."""
    lines = [f"qubits {circ.num_qubits}"]
    for i, role in enumerate(circ.roles):
        lines.append(f"role {i} {_ROLE_NAME[role]}")
    for g in circ.gates:
        lines.append(" ".join([g.kind.value, *map(str, g.qubits)]))
    return "\n".join(lines) + "\n"


def from_text(text: str) -> Circuit:
    num_qubits = None
    roles: dict[int, QubitRole] = {}
    gates: list[Gate] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "qubits":
                if num_qubits is not None:
                    raise ValueError("duplicate qubits line")
                num_qubits = int(parts[1])
            elif parts[0] == "role":
                idx = int(parts[1])
                if idx in roles:
                    raise ValueError(f"duplicate role for qubit {idx}")
                roles[idx] = _NAME_ROLE[parts[2]]
            else:
                kind = GateKind(parts[0])
                qubits = [int(p) for p in parts[1:]]
                if not qubits:
                    raise ValueError("gate line without qubits")
                gates.append(Gate(kind, tuple(qubits[:-1]), qubits[-1]))
        except (KeyError, ValueError, IndexError) as exc:
            raise ValueError(f"line {lineno}: cannot parse {raw!r}: {exc}") from exc
    if num_qubits is None:
        raise ValueError("missing qubits line")
    # Count first: a huge qubits line must not build a huge range.
    if len(roles) != num_qubits or sorted(roles) != list(range(num_qubits)):
        raise ValueError("need exactly one role line per qubit")
    return Circuit(num_qubits, tuple(roles[i] for i in range(num_qubits)), tuple(gates))


_QASM_NAME = {
    GateKind.H: "h",
    GateKind.X: "x",
    GateKind.T: "t",
    GateKind.TDG: "tdg",
    GateKind.S: "s",
    GateKind.SDG: "sdg",
    GateKind.CNOT: "cx",
    GateKind.TOFFOLI: "ccx",
}


def to_qasm2(circ: Circuit) -> str:
    """OpenQASM 2 over qelib1.  MCX has no qelib1 gate, so lower it first."""
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{circ.num_qubits}];",
    ]
    wire = [f"q[{q}]" for q in range(circ.num_qubits)]
    for g in circ.gates:
        name = _QASM_NAME.get(g.kind)
        if name is None:
            raise ValueError("cannot emit MCX as OpenQASM 2; lower it first")
        if g.controls:
            lines.append(f"{name} {','.join([wire[q] for q in g.controls])},{wire[g.target]};")
        else:
            lines.append(f"{name} {wire[g.target]};")
    return "\n".join(lines) + "\n"
