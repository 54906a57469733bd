"""Lowering multi-controlled X gates to Toffoli networks.

lower_mcx is the one way to build an MCX network: it replaces every
MCX in a circuit by one of three interchangeable constructions for an
n-control X (n >= 3), trading ancilla requirements against Toffoli
count (Barenco et al., arXiv:quant-ph/9503016, Lemmas 7.2-7.3):

  * borrowed     -- n-2 ancillas in *arbitrary* state, restored bit for
                    bit; exactly 4n-8 Toffolis.  The network is its own
                    inverse.
  * single_clean -- one ancilla known to be |0> (returned to |0>);
                    splits the controls in half and borrows idle qubits
                    for the two halves.  3 Toffolis at n=3, 6 at n=4,
                    and at most 6n-18 from n=5 on.
  * clean_ladder -- n-2 ancillas known to be |0>; a compute/uncompute
                    ladder of exactly 2n-3 Toffolis.

Ancillas come from an explicit pool (plus idle qubits, for the borrowed
construction); to place one network, lower a one-gate circuit whose
ancilla wires carry the clean or borrowed role.  lower_mcx_auto grows
the register with borrowed ancillas when a circuit has no idle qubits
to offer.  The *_toffoli_count functions give each construction's
exact Toffoli count.
"""
from __future__ import annotations

from collections.abc import Sequence
from enum import Enum

from .ir import (
    Circuit,
    Gate,
    GateKind,
    QubitRole,
    cnot,
    toffoli,
)


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
    half = [toffoli(ancillas[n - 3], controls[n - 1], target)]
    for j in range(n - 2, 1, -1):
        half.append(toffoli(ancillas[j - 2], controls[j], ancillas[j - 1]))
    half.append(toffoli(controls[0], controls[1], ancillas[0]))
    for j in range(2, n - 1):
        half.append(toffoli(ancillas[j - 2], controls[j], ancillas[j - 1]))
    return half + half


def _clean_ladder_gates(
    controls: tuple[int, ...], target: int, ancillas: tuple[int, ...]
) -> list[Gate]:
    # Compute partial ANDs up the ladder, flip the target, uncompute.
    n = len(controls)
    up = [toffoli(controls[0], controls[1], ancillas[0])]
    for j in range(1, n - 2):
        up.append(toffoli(ancillas[j - 1], controls[j + 1], ancillas[j]))
    up.append(toffoli(ancillas[n - 3], controls[n - 1], target))
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
    else the strategy's ladder on the first ancillas it needs."""
    k = len(controls)
    need = _ancillas_needed(strategy, k)
    if len(ancillas) < need:
        raise ValueError(
            f"{strategy.value} needs {need} ancillas for {k} controls, "
            f"only {len(ancillas)} available"
        )
    ancillas = tuple(ancillas[:need])
    if k == 1:
        return [cnot(controls[0], target)]
    if k == 2:
        return [toffoli(controls[0], controls[1], target)]
    if strategy is McxStrategy.BORROWED:
        return _borrowed_gates(controls, target, ancillas)
    if strategy is McxStrategy.SINGLE_CLEAN:
        return _single_clean_gates(controls, target, ancillas[0])
    return _clean_ladder_gates(controls, target, ancillas)


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


def _lower_one(
    g: Gate, strategy: McxStrategy, pool: tuple[int, ...], register: int
) -> list[Gate]:
    used = set(g.qubits)
    if used & set(pool):
        raise ValueError(f"ancilla pool {pool} overlaps gate qubits {sorted(used)}")
    if strategy is McxStrategy.BORROWED:
        # Any idle qubit will do for a borrowed slot.
        taken = used | set(pool)
        pool += tuple(q for q in range(register) if q not in taken)
    return _mcx_gates(strategy, g.controls, g.target, pool)


def lower_mcx(
    circ: Circuit,
    strategy: McxStrategy,
    ancilla_pool: tuple[int, ...] = (),
) -> Circuit:
    """Replace every MCX in circ by the chosen Toffoli construction.

    Clean strategies take ancillas from ancilla_pool only, require every
    pool qubit to have the clean role, and trust the caller that those
    qubits are |0> whenever an MCX fires.  The borrowed strategy tops the
    pool up with idle qubits (lowest index first).
    One- and two-control MCX degenerate to CNOT / Toffoli.
    """
    pool = tuple(ancilla_pool)
    if strategy is not McxStrategy.BORROWED and any(
        q >= circ.num_qubits or circ.roles[q] is not QubitRole.CLEAN_ANCILLA for q in pool
    ):
        raise ValueError(f"{strategy.value} needs clean-role ancillas, got pool {pool}")
    out: list[Gate] = []
    for g in circ.gates:
        if g.kind is GateKind.MCX:
            out.extend(_lower_one(g, strategy, pool, circ.num_qubits))
        else:
            out.append(g)
    return Circuit(circ.num_qubits, circ.roles, tuple(out))


def lower_mcx_auto(circ: Circuit) -> Circuit:
    """Borrowed lowering that grows the register when no qubit is idle.

    Appends just enough borrowed-role ancillas to cover the widest MCX,
    then lowers every MCX with the borrowed construction.
    """
    shortfall = 0
    for g in circ.gates:
        if g.kind is GateKind.MCX:
            idle = circ.num_qubits - len(g.qubits)
            need = _ancillas_needed(McxStrategy.BORROWED, len(g.controls))
            shortfall = max(shortfall, need - idle)
    if shortfall == 0:
        return lower_mcx(circ, McxStrategy.BORROWED)
    extra = tuple(range(circ.num_qubits, circ.num_qubits + shortfall))
    grown = Circuit(
        circ.num_qubits + shortfall,
        circ.roles + (QubitRole.BORROWED_ANCILLA,) * shortfall,
        circ.gates,
    )
    return lower_mcx(grown, McxStrategy.BORROWED, extra)
