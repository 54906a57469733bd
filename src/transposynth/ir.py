"""Gate-level circuit IR.

Immutable gates and circuits over the fixed alphabet {H, X, T, Tdg, S,
Sdg, CNOT, Toffoli, MCX}.  MCX (an X with any number of controls) is a
first-class gate so that multi-controlled constructions can be counted
and lowered explicitly instead of disappearing into a library call.

Contains:
  * GateKind / Gate and small constructor helpers (h, x, cnot, ...)
  * QubitRole and Circuit (a register of roles plus a gate sequence)
  * _shared -- one validated Gate per (kind, controls, target)
  * _circuit -- the trusted circuit constructor for the compile passes
  * _require / _require_int -- the argument checks of the public entry
    points: a value of a type, and an int in a range
  * GateCounts / count_gates
  * label_to_int / int_to_label -- the one basis-label convention
  * dagger_kind -- the kind of a gate's inverse
  * text and OpenQASM 2 serialization

Convention: qubit i carries bit i of a basis label, and labels are
written lowest index first, so "011" means qubit 0 in |0>, qubits 1 and
2 in |1>.  All transforms return new values; nothing here mutates.

Gate(...) and Circuit(...) validate every field, which is most of the
cost of building one.  Everything public -- Gate, circuit, from_text --
checks in full, and so does every gate this module builds: it offers no
unvalidated gate constructor.

Shared gates: the passes outside lowering's Toffoli template -- the
projectors, the flag circuit's H and bit-flip CNOTs, the MCX networks,
the peephole's fused S/Sdg and the Toffolis raising puts back -- take
their gates from _shared, a bounded cache of Gate itself.  Each distinct
(kind, controls, target) is validated once, on first use, and the same
Gate is then handed to every circuit that holds it; Gate is frozen, so
sharing it is safe.  The point is the reads rather than the build: on
CPython 3.11 a Gate built by Gate(...) keeps its fields as inline
values, while writing the fields through __dict__ gives a gate a real
instance dict, and reading three fields through that dict takes about
three times as long.  The peephole, the count and the verifier read
every field of every gate.  The one gate build that skips validation is
private to lowering._block, the owner of the block format.

Trusted circuits: the private _circuit(roles, gates) fills a Circuit's
two fields without the check.  It is for a register whose gates are
known to fit it (the flag and gray circuits, and the circuits
lower_mcx, lower_all_toffolis and remove_redundancies return).  A
Circuit stores no width of its own: num_qubits is len(roles), so no
build, trusted or not, can return a register whose width and roles
disagree.
"""
from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from operator import attrgetter


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

#: Each kind's inverse kind; every kind but T/Tdg/S/Sdg is its own.
_INVERSE_KIND = {
    **{kind: kind for kind in GateKind},
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

    # Identity hash, as for GateKind: a register's roles tuple is a cache
    # key of the verifier.
    __hash__ = object.__hash__


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


def _require(name: str, value: object, cls: type) -> None:
    """Refuse an argument that is not a cls, with a ValueError naming it."""
    if not isinstance(value, cls):
        what = getattr(cls, "__name__", cls)
        article = "an" if str(what)[0] in "AEIOU" else "a"
        raise ValueError(f"{name} must be {article} {what}, got {value!r}")


def _require_int(name: str, value: object, lo: int, hi: int | None = None) -> None:
    """Refuse an argument that is not an int in lo..hi (at least lo when hi
    is None), with a ValueError naming it.  type() and not isinstance(): a
    bool is an int subclass, and True would pass as 1."""
    if type(value) is not int or value < lo or hi is not None and value > hi:
        span = f"of at least {lo}" if hi is None else f"in {lo}..{hi}"
        raise ValueError(f"{name} must be an int {span}, got {value!r}")


#: Gate(kind, controls, target), built and validated once per distinct
#: argument triple and then shared; see the module docstring.
_shared = lru_cache(maxsize=1 << 16)(Gate)


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
    _require("controls", controls, Iterable)
    return Gate(GateKind.MCX, tuple(controls), target)


def label_to_int(bits: str, width: int) -> int:
    """The basis index of a width-bit label; character i is qubit i."""
    if type(width) is not int or type(bits) is not str:
        raise ValueError(f"need a str label and an int width, got {bits!r} and {width!r}")
    if len(bits) != width or not bits or set(bits) - {"0", "1"}:
        raise ValueError(f"{bits!r} is not a {width}-bit label")
    return int(bits[::-1], 2)


def int_to_label(value: int, width: int) -> str:
    """The width-bit label of basis index value, qubit 0 first."""
    if type(value) is not int or type(width) is not int:
        raise ValueError(f"need an int value and an int width, got {value!r} and {width!r}")
    if width < 1 or not 0 <= value < 1 << width:
        raise ValueError(f"{value} is not a {width}-bit basis index")
    return format(value, f"0{width}b")[::-1]


def dagger_kind(kind: GateKind) -> GateKind:
    """The kind of a gate's inverse; every kind but T/Tdg/S/Sdg is its own."""
    return _INVERSE_KIND[kind]


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

    def summary(self) -> str:
        return (
            f"h={self.h} x={self.x} cnot={self.cnot} toffoli={self.toffoli} "
            f"mcx={self.mcx} t={self.t_type} s={self.s_type} total={self.total}"
        )


@dataclass(frozen=True)
class Circuit:
    """A register, one role per qubit, and a gate sequence on it.  The
    roles set the width: num_qubits is len(roles)."""

    roles: tuple[QubitRole, ...]
    gates: tuple[Gate, ...] = ()

    def __post_init__(self) -> None:
        roles = self.roles
        if type(roles) is not tuple or not roles or any(type(r) is not QubitRole for r in roles):
            raise ValueError(f"roles must be a tuple of QubitRole members, at least one, got {roles!r}")
        width = len(roles)
        if type(self.gates) is not tuple:
            raise ValueError(f"gates must be a tuple of Gate values, got {self.gates!r}")
        for g in self.gates:
            if type(g) is not Gate:
                raise ValueError(f"gates must be a tuple of Gate values, got member {g!r}")
            if max(g.qubits) >= width:
                raise ValueError(f"gate {g} outside register of {width}")

    @property
    def num_qubits(self) -> int:
        return len(self.roles)


def _circuit(roles: tuple[QubitRole, ...], gates: tuple[Gate, ...]) -> Circuit:
    """A Circuit built without validation.  Only for roles and gates
    already known to fit each other; see the module docstring."""
    c = object.__new__(Circuit)
    fields = c.__dict__
    fields["roles"] = roles
    fields["gates"] = gates
    return c


def circuit(
    num_qubits: int,
    gates: tuple[Gate, ...] | list[Gate] = (),
    roles: tuple[QubitRole, ...] | None = None,
) -> Circuit:
    """Build a circuit on num_qubits qubits; roles default to all-data.
    gates and roles may be any iterables."""
    _require_int("num_qubits", num_qubits, 1)
    if roles is None:
        roles = (QubitRole.DATA,) * num_qubits
    _require("gates", gates, Iterable)
    _require("roles", roles, Iterable)
    roles = tuple(roles)
    if len(roles) != num_qubits:
        raise ValueError(f"got {len(roles)} roles for {num_qubits} qubits")
    return Circuit(roles, tuple(gates))


def count_gates(circ: Circuit) -> GateCounts:
    _require("circ", circ, Circuit)
    n = Counter(map(attrgetter("kind"), circ.gates))
    K = GateKind
    return GateCounts(
        h=n[K.H], x=n[K.X], cnot=n[K.CNOT], toffoli=n[K.TOFFOLI], mcx=n[K.MCX],
        t_type=n[K.T] + n[K.TDG], s_type=n[K.S] + n[K.SDG],
    )


# --- serialization ---------------------------------------------------------

def to_text(circ: Circuit) -> str:
    """Plain-text form: a qubits line, one role line per qubit, one gate
    line per gate (KIND, controls in order, target last)."""
    _require("circ", circ, Circuit)
    lines = [f"qubits {circ.num_qubits}"]
    for i, role in enumerate(circ.roles):
        lines.append(f"role {i} {role.value}")
    for g in circ.gates:
        lines.append(" ".join([g.kind.value, *map(str, g.qubits)]))
    return "\n".join(lines) + "\n"


def from_text(text: str) -> Circuit:
    """The circuit of to_text's form; # starts a comment.  A line with a
    field missing or left over is a ValueError."""
    _require("text", text, str)
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
                _, count = parts
                num_qubits = int(count)
            elif parts[0] == "role":
                _, idx, role = parts
                idx = int(idx)
                if idx in roles:
                    raise ValueError(f"duplicate role for qubit {idx}")
                roles[idx] = QubitRole(role)
            else:
                kind = GateKind(parts[0])
                qubits = [int(p) for p in parts[1:]]
                if not qubits:
                    raise ValueError("gate line without qubits")
                gates.append(Gate(kind, tuple(qubits[:-1]), qubits[-1]))
        except (ValueError, IndexError) as exc:
            raise ValueError(f"line {lineno}: cannot parse {raw!r}: {exc}") from exc
    if num_qubits is None:
        raise ValueError("missing qubits line")
    # Count first: a huge qubits line must not build a huge range.
    if len(roles) != num_qubits or sorted(roles) != list(range(num_qubits)):
        raise ValueError("need exactly one role line per qubit")
    return circuit(num_qubits, gates, [roles[i] for i in range(num_qubits)])


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
    _require("circ", circ, Circuit)
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
