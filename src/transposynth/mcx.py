"""Lowering multi-controlled X gates to Toffoli networks.

lower_mcx is the one way to build an MCX network and the one place that
sizes the register for it: it replaces every MCX in a circuit by one of
three interchangeable constructions for an n-control X (n >= 3), trading
ancilla requirements against Toffoli count (Barenco et al.,
arXiv:quant-ph/9503016, Lemmas 7.2-7.3):

  * borrowed     -- n-2 ancillas in *arbitrary* state, restored bit for
                    bit; exactly 4n-8 Toffolis.  The network is its own
                    inverse.
  * single_clean -- one ancilla known to be |0> (returned to |0>);
                    splits the controls in half and borrows idle qubits
                    for the two halves.  3 Toffolis at n=3, 6 at n=4,
                    and at most 6n-18 from n=5 on.
  * clean_ladder -- n-2 ancillas known to be |0>; a compute/uncompute
                    ladder of exactly 2n-3 Toffolis.

Ancillas come from an explicit pool, then (borrowed construction only)
from idle qubits.  When the widest MCX still lacks some, the register
grows by that many wires carrying the strategy's role (clean or
borrowed), and they join the pool.  So a one-gate circuit lowered with
an empty pool places one network on a register sized for it.
lower_mcx_auto is the borrowed lowering under another name.  The
*_toffoli_count functions give each construction's exact Toffoli count.

lower_mcx checks the strategy and the pool before it builds anything
(ints, no duplicates, inside the register, clear of every MCX).  Each
ladder gate then takes distinct wires from a validated MCX and that
pool, so the networks are built with the trusted ir._gate and the result
with ir._circuit.

A network depends only on its strategy, controls, target and the
ancillas it uses, and a study lowers the same few shapes over and over
(both MCX gates of every thm3 trial at one n share one).  So each
distinct shape is built once and its gate tuple shared by every circuit
that contains it, from a bounded module cache (_network).  Gates are
immutable, so sharing them is safe.
"""
from __future__ import annotations

from collections.abc import Sequence
from enum import Enum
from functools import lru_cache

from .ir import Circuit, Gate, GateKind, QubitRole, _circuit, _gate


def _toffoli(c1: int, c2: int, target: int) -> Gate:
    # Trusted: callers pass distinct wires of a validated MCX and pool.
    return _gate(GateKind.TOFFOLI, (c1, c2), target)


class McxStrategy(Enum):
    BORROWED = "borrowed"
    SINGLE_CLEAN = "single_clean"
    CLEAN_LADDER = "clean_ladder"


def _borrowed_gates(
    controls: tuple[int, ...], target: int, ancillas: tuple[int, ...]
) -> list[Gate]:
    # Two identical half-blocks.  Each half sweeps a Toffoli ladder down
    # from the target through the ancillas and back up; running it twice
    # cancels every stray AND deposited on a borrowed ancilla.
    n = len(controls)
    half = [_toffoli(ancillas[n - 3], controls[n - 1], target)]
    for j in range(n - 2, 1, -1):
        half.append(_toffoli(ancillas[j - 2], controls[j], ancillas[j - 1]))
    half.append(_toffoli(controls[0], controls[1], ancillas[0]))
    for j in range(2, n - 1):
        half.append(_toffoli(ancillas[j - 2], controls[j], ancillas[j - 1]))
    return half + half


def _clean_ladder_gates(
    controls: tuple[int, ...], target: int, ancillas: tuple[int, ...]
) -> list[Gate]:
    # Compute partial ANDs up the ladder, flip the target, uncompute.
    n = len(controls)
    up = [_toffoli(controls[0], controls[1], ancillas[0])]
    for j in range(1, n - 2):
        up.append(_toffoli(ancillas[j - 1], controls[j + 1], ancillas[j]))
    up.append(_toffoli(ancillas[n - 3], controls[n - 1], target))
    return up + up[-2::-1]


def _single_clean_gates(
    controls: tuple[int, ...], target: int, ancilla: int
) -> list[Gate]:
    # Split controls into halves x|y.  AND(x) lands on the clean ancilla,
    # then an X on the target controlled by y plus the ancilla, then the
    # first block again to return the ancilla to |0>.  Each block borrows
    # the lowest-indexed qubits it does not itself touch.
    n = len(controls)
    n_first = (n + 1) // 2
    x_block, y_block = controls[:n_first], controls[n_first:]
    first = _mcx_gates(McxStrategy.BORROWED, x_block, ancilla, sorted(y_block + (target,)))
    second = _mcx_gates(McxStrategy.BORROWED, y_block + (ancilla,), target, sorted(x_block))
    return first + second + first


def _ancillas_needed(strategy: McxStrategy, k: int) -> int:
    """Ancillas a k-control X takes under strategy; none below 3 controls."""
    if k < 3:
        return 0
    return 1 if strategy is McxStrategy.SINGLE_CLEAN else k - 2


def _mcx_gates(
    strategy: McxStrategy,
    controls: tuple[int, ...],
    target: int,
    ancillas: Sequence[int],
) -> list[Gate]:
    """The network for one k-control X: CNOT / Toffoli below 3 controls,
    else the strategy's ladder on the first ancillas it needs (the caller
    supplies at least that many)."""
    k = len(controls)
    if k == 1:
        return [_gate(GateKind.CNOT, controls, target)]
    if k == 2:
        return [_toffoli(controls[0], controls[1], target)]
    if strategy is McxStrategy.BORROWED:
        return _borrowed_gates(controls, target, ancillas)
    if strategy is McxStrategy.SINGLE_CLEAN:
        return _single_clean_gates(controls, target, ancillas[0])
    return _clean_ladder_gates(controls, target, ancillas)


@lru_cache(maxsize=256)
def _network(
    strategy: McxStrategy, controls: tuple[int, ...], target: int, ancillas: tuple[int, ...]
) -> tuple[Gate, ...]:
    """_mcx_gates, built once per shape.  ancillas is exactly the prefix
    the network uses, so equal shapes share one entry."""
    return tuple(_mcx_gates(strategy, controls, target, ancillas))


def borrowed_toffoli_count(n: int) -> int:
    """Toffolis in the borrowed network for n >= 3 controls."""
    if n < 3:
        raise ValueError("defined for n >= 3")
    return 4 * n - 8


def clean_ladder_toffoli_count(n: int) -> int:
    """Toffolis in the clean_ladder network for n >= 3 controls."""
    if n < 3:
        raise ValueError("defined for n >= 3")
    return 2 * n - 3


def single_clean_toffoli_count(n: int) -> int:
    """Toffolis in the single_clean network for n >= 3 controls."""
    if n < 3:
        raise ValueError("defined for n >= 3")
    n_first = (n + 1) // 2
    n_second = n - n_first

    def cost(k: int) -> int:
        return 1 if k == 2 else 4 * k - 8

    return 2 * cost(n_first) + cost(n_second + 1)


def lower_mcx(
    circ: Circuit,
    strategy: McxStrategy,
    ancilla_pool: tuple[int, ...] = (),
) -> Circuit:
    """Replace every MCX in circ by the chosen Toffoli construction.

    Each MCX takes its ancillas from ancilla_pool first; the borrowed
    strategy then tops up with idle qubits (lowest index first).  Clean
    strategies require every pool qubit to have the clean role, and trust
    the caller that those qubits are |0> whenever an MCX fires.  If the
    widest MCX still lacks k ancillas, k wires with the strategy's role
    are appended to the register and join the pool.
    One- and two-control MCX degenerate to CNOT / Toffoli.
    """
    if type(strategy) is not McxStrategy:
        raise ValueError(f"strategy must be an McxStrategy, got {strategy!r}")
    pool = tuple(ancilla_pool)
    borrowed = strategy is McxStrategy.BORROWED
    width = circ.num_qubits
    # type() and not isinstance(): True would silently mean qubit 1.
    if any(type(q) is not int for q in pool):
        raise ValueError(f"ancilla pool entries must be ints, got {pool}")
    if len(set(pool)) != len(pool):
        raise ValueError(f"duplicate qubit in ancilla pool {pool}")
    if any(not 0 <= q < width for q in pool):
        raise ValueError(f"ancilla pool {pool} outside a register of {width} qubits")
    if not borrowed and any(circ.roles[q] is not QubitRole.CLEAN_ANCILLA for q in pool):
        raise ValueError(f"{strategy.value} needs clean-role ancillas, got pool {pool}")
    pool_set = set(pool)
    shortfall = 0
    for g in circ.gates:
        if g.kind is GateKind.MCX:
            if not pool_set.isdisjoint(g.qubits):
                raise ValueError(f"ancilla pool {pool} overlaps gate qubits {sorted(g.qubits)}")
            have = width - len(g.qubits) if borrowed else len(pool)
            shortfall = max(shortfall, _ancillas_needed(strategy, len(g.controls)) - have)
    role = QubitRole.BORROWED_ANCILLA if borrowed else QubitRole.CLEAN_ANCILLA
    pool += tuple(range(width, width + shortfall))
    width += shortfall
    out: list[Gate] = []
    for g in circ.gates:
        if g.kind is not GateKind.MCX:
            out.append(g)
            continue
        ancillas = pool
        if borrowed:
            taken = set(g.qubits).union(pool)
            ancillas += tuple(q for q in range(width) if q not in taken)
        used = ancillas[: _ancillas_needed(strategy, len(g.controls))]
        out.extend(_network(strategy, g.controls, g.target, used))
    return _circuit(width, circ.roles + (role,) * shortfall, tuple(out))


def lower_mcx_auto(circ: Circuit) -> Circuit:
    """The borrowed lowering, growing the register when no qubit is idle."""
    return lower_mcx(circ, McxStrategy.BORROWED)
