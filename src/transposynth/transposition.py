"""Synthesis of basis-state transpositions.

A transposition swaps two n-bit basis states a and b and fixes every
other basis state.  The main construction sandwiches a pair of
projector-controlled X gates between two copies of a flag-controlled
bit-flip block:

    H(flag)
    CNOT(flag -> data_i)  for every bit where a and b differ
    X-sandwiched MCX(data -> flag) matching a
    X-sandwiched MCX(data -> flag) matching b
    CNOT(flag -> data_i)  again
    H(flag)

The two MCX gates are the whole cost, and the synthesis strategy picks
how mcx.lower_mcx lowers them, which also sizes the register: thm3_a
(single_clean) adds one clean qubit beyond the flag (n+2 total for
n >= 3), thm3_b (clean_ladder) adds n-2 (2n-1 total) for a shorter
Toffoli count.  Below 3 data qubits the MCX gates degenerate to CNOT /
Toffoli and the register is the n data qubits plus the flag.  The gray
strategy instead walks a to b one bit flip at a time using
projector-controlled X gates only, with no ancillas, keeping MCX as a
first-class gate.

A spec parses its labels once, when it is made, into the basis indices
a_int / b_int; everything downstream works from those ints.  Every gate
comes from ir._shared, which validates each distinct gate once and then
shares it, so two specs at one n hold the same H, the same X flips and
CNOTs on the wires they have in common, and the same MCX gates.  Both
strategies build their circuits with the trusted ir._circuit: the spec
is validated, and every wire is a data qubit 0..n-1 or the flag at n by
construction.  lower_mcx then shares one network per MCX shape, and both
MCX gates of every flag circuit at a given n have the same shape.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .ir import Circuit, Gate, GateKind, QubitRole, _circuit, _require, _shared, label_to_int
from .mcx import McxStrategy, lower_mcx


#: Kinds the projectors emit per wire.  A module global loads in a tenth
#: of the time of an Enum member lookup.
_X, _CNOT, _MCX = GateKind.X, GateKind.CNOT, GateKind.MCX


class SynthesisStrategy(Enum):
    THM3_A = "thm3_a"
    THM3_B = "thm3_b"
    GRAY_CODE = "gray"


@dataclass(frozen=True)
class TranspositionSpec:
    """The pair of n-bit basis labels to swap.  Bit i belongs to qubit i.

    a_int / b_int are the labels' basis indices, parsed once here; they
    are derived, so equality, hashing and repr ignore them."""

    n: int
    a: str
    b: str
    a_int: int = field(init=False, repr=False, compare=False)
    b_int: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if type(self.n) is not int or self.n < 1:
            raise ValueError(f"n must be an int of at least 1, got {self.n!r}")
        a_int = label_to_int(self.a, self.n)
        b_int = label_to_int(self.b, self.n)
        if a_int == b_int:
            raise ValueError("a and b must differ")
        object.__setattr__(self, "a_int", a_int)
        object.__setattr__(self, "b_int", b_int)

    def differing_bits(self) -> tuple[int, ...]:
        diff = self.a_int ^ self.b_int
        return tuple(i for i in range(self.n) if diff >> i & 1)

    def hamming_distance(self) -> int:
        return len(self.differing_bits())


def _projector(state: int, controls: tuple[int, ...], target: int) -> list[Gate]:
    """X on target iff the controls match their bits of the basis index
    state: an MCX conjugated by X on every control whose bit is 0, or a
    bare X with no controls.  Its gates are the shared ones."""
    if not controls:
        return [_shared(_X, (), target)]
    flips = [_shared(_X, (), q) for q in controls if not state >> q & 1]
    return flips + [_shared(_MCX, controls, target)] + flips


def _flag_circuit(spec: TranspositionSpec) -> Circuit:
    """The flag construction with both MCX gates left as composites, on
    n+1 qubits: data 0..n-1 and the clean flag at n."""
    n = spec.n
    flag = n
    data = tuple(range(n))
    bitflips = [_shared(_CNOT, (flag,), i) for i in spec.differing_bits()]
    gates = [_shared(GateKind.H, (), flag), *bitflips]
    gates += _projector(spec.a_int, data, flag)
    gates += _projector(spec.b_int, data, flag)
    gates += bitflips
    gates.append(_shared(GateKind.H, (), flag))
    return _circuit(n + 1, (QubitRole.DATA,) * n + (QubitRole.CLEAN_ANCILLA,), tuple(gates))


#: How each flag strategy lowers its two projector MCX gates.
_MCX_STRATEGY = {
    SynthesisStrategy.THM3_A: McxStrategy.SINGLE_CLEAN,
    SynthesisStrategy.THM3_B: McxStrategy.CLEAN_LADDER,
}


def synthesize_transposition(spec: TranspositionSpec, strategy: SynthesisStrategy) -> Circuit:
    """Synthesize the swap of spec.a and spec.b.

    thm3_a / thm3_b return Toffoli-level circuits (data qubits 0..n-1,
    flag at n, the clean ancillas lower_mcx adds above); gray returns an
    ancilla-free circuit with MCX composites.
    """
    _require("spec", spec, TranspositionSpec)
    if type(strategy) is not SynthesisStrategy:
        raise ValueError(f"strategy must be a SynthesisStrategy, got {strategy!r}")
    if strategy is SynthesisStrategy.GRAY_CODE:
        return _gray_code(spec)
    return lower_mcx(_flag_circuit(spec), _MCX_STRATEGY[strategy])


def _gray_code(spec: TranspositionSpec) -> Circuit:
    """Swap a and b by chaining projector-controlled X gates; the gray
    strategy of synthesize_transposition.

    With m differing bits the walk takes 2m-1 projector steps: m-1 steps
    carry a to the neighbour of b one bit flip at a time, one step swaps
    that neighbour with b, and the m-1 steps run again in reverse to
    carry it back.  Uses no ancillas.
    """
    n = spec.n
    diffs = spec.differing_bits()
    states = [spec.a_int]
    for i in diffs[:-1]:
        states.append(states[-1] ^ (1 << i))

    def step(state: int, flip_bit: int) -> list[Gate]:
        return _projector(state, tuple(q for q in range(n) if q != flip_bit), flip_bit)

    walk = [step(states[k], diffs[k]) for k in range(len(diffs) - 1)]
    core = step(states[-1], diffs[-1])
    gates: list[Gate] = []
    for block in walk:
        gates += block
    gates += core
    for block in reversed(walk):
        gates += block
    return _circuit(n, (QubitRole.DATA,) * n, tuple(gates))


def cnot_bound(n: int) -> int:
    """Cap on CNOT count for the flag construction: 2n, except 4 at n=1
    where the projector MCX gates also degenerate to CNOTs."""
    if type(n) is not int or n < 1:
        raise ValueError(f"n must be an int of at least 1, got {n!r}")
    return 4 if n == 1 else 2 * n


def toffoli_bound(strategy: SynthesisStrategy, n: int) -> int | None:
    """Cap on Toffoli count after synthesis.  None for gray (MCX level)."""
    if type(strategy) is not SynthesisStrategy:
        raise ValueError(f"strategy must be a SynthesisStrategy, got {strategy!r}")
    if type(n) is not int or n < 1:
        raise ValueError(f"n must be an int of at least 1, got {n!r}")
    if strategy is SynthesisStrategy.GRAY_CODE:
        return None
    if n == 1:
        return 0
    if n == 2:
        return 2
    if n == 3:
        return 6
    if strategy is SynthesisStrategy.THM3_A:
        return 12 * n - 36
    return 4 * n - 6
