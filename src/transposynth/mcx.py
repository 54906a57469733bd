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

One ancilla rule serves every strategy.  The borrowed construction
borrows each MCX's idle wires, lowest index first.  Whatever the widest
MCX still lacks is appended to the register as wires carrying the
strategy's role (clean or borrowed), and every MCX takes those first.
So a clean ancilla is always an appended wire that no other gate
touches, and is |0> whenever an MCX fires; a borrowed one may hold
anything, because its network restores it.  A one-gate circuit thus
lowers to one network on a register sized for it.  lower_mcx_auto is the
borrowed lowering under another name and is not a package export; it
stays in this module only because the benchmark's tracer
(perfbench/tracing.py) wraps the name where cli and harness import it,
until one compile pipeline replaces it (ROADMAP, "One compile
pipeline").  No function restates the Toffoli counts above: the tests
count the networks that lower_mcx builds.

lower_mcx checks the circuit and the strategy before it builds anything.
Each ladder gate then takes distinct wires from a validated MCX, its
idle wires and the appended ones, so the result is built with the
trusted ir._circuit.  The ladder gates themselves come from ir._shared:
each distinct Toffoli or CNOT is validated once and then shared by every
network that holds it.

A network depends only on its strategy, controls, target and the
ancillas it uses, and a study lowers the same few shapes over and over
(both MCX gates of every thm3 trial at one n share one).  So _network,
the one dispatcher, builds each distinct shape once behind a bounded
module cache and shares its gate tuple with every circuit that contains
it; the single_clean network's two borrowed halves are shapes of their
own there.  Gates are immutable, so sharing them is safe.
"""
from __future__ import annotations

from enum import Enum
from functools import lru_cache

from .ir import Circuit, Gate, GateKind, QubitRole, _circuit, _require, _shared


#: lower_mcx tests every gate's kind against this.  A module global loads
#: in a tenth of the time of an Enum member lookup.
_MCX = GateKind.MCX


def _toffoli(c1: int, c2: int, target: int) -> Gate:
    return _shared(GateKind.TOFFOLI, (c1, c2), target)


class McxStrategy(Enum):
    BORROWED = "borrowed"
    SINGLE_CLEAN = "single_clean"
    CLEAN_LADDER = "clean_ladder"


def _borrowed_gates(
    controls: tuple[int, ...], target: int, ancillas: tuple[int, ...]
) -> tuple[Gate, ...]:
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
    return tuple(half + half)


def _clean_ladder_gates(
    controls: tuple[int, ...], target: int, ancillas: tuple[int, ...]
) -> tuple[Gate, ...]:
    # Compute partial ANDs up the ladder, flip the target, uncompute.
    n = len(controls)
    up = [_toffoli(controls[0], controls[1], ancillas[0])]
    for j in range(1, n - 2):
        up.append(_toffoli(ancillas[j - 1], controls[j + 1], ancillas[j]))
    up.append(_toffoli(ancillas[n - 3], controls[n - 1], target))
    return tuple(up + up[-2::-1])


def _single_clean_gates(
    controls: tuple[int, ...], target: int, ancilla: int
) -> tuple[Gate, ...]:
    # Split controls into halves x|y.  AND(x) lands on the clean ancilla,
    # then an X on the target controlled by y plus the ancilla, then the
    # first block again to return the ancilla to |0>.  Each block is a
    # borrowed network on the lowest-indexed qubits it does not itself
    # touch, taking only as many as it uses.
    n_first = (len(controls) + 1) // 2
    x_block, y_block = controls[:n_first], controls[n_first:]
    first = _borrowed_half(x_block, ancilla, y_block + (target,))
    second = _borrowed_half(y_block + (ancilla,), target, x_block)
    return first + second + first


def _borrowed_half(
    controls: tuple[int, ...], target: int, idle: tuple[int, ...]
) -> tuple[Gate, ...]:
    used = tuple(sorted(idle))[: _ancillas_needed(McxStrategy.BORROWED, len(controls))]
    return _network(McxStrategy.BORROWED, controls, target, used)


def _ancillas_needed(strategy: McxStrategy, k: int) -> int:
    """Ancillas a k-control X takes under strategy; none below 3 controls."""
    if k < 3:
        return 0
    return 1 if strategy is McxStrategy.SINGLE_CLEAN else k - 2


@lru_cache(maxsize=256)
def _network(
    strategy: McxStrategy, controls: tuple[int, ...], target: int, ancillas: tuple[int, ...]
) -> tuple[Gate, ...]:
    """The network for one k-control X, built once per shape: a CNOT or
    Toffoli below 3 controls, else the strategy's ladder.  ancillas is
    exactly the ones the network uses, so equal shapes share one entry."""
    k = len(controls)
    if k == 1:
        return (_shared(GateKind.CNOT, controls, target),)
    if k == 2:
        return (_toffoli(controls[0], controls[1], target),)
    if strategy is McxStrategy.BORROWED:
        return _borrowed_gates(controls, target, ancillas)
    if strategy is McxStrategy.SINGLE_CLEAN:
        return _single_clean_gates(controls, target, ancillas[0])
    return _clean_ladder_gates(controls, target, ancillas)


def lower_mcx(circ: Circuit, strategy: McxStrategy) -> Circuit:
    """Replace every MCX in circ by the chosen Toffoli construction.

    If the widest MCX lacks k ancillas, k wires with the strategy's role
    are appended to the register, and each MCX takes its ancillas from
    them first; the borrowed strategy then tops up with the MCX's idle
    wires (lowest index first).  Clean ancillas are only ever appended
    wires, so no other gate touches them.
    One- and two-control MCX degenerate to CNOT / Toffoli.
    """
    _require("circ", circ, Circuit)
    _require("strategy", strategy, McxStrategy)
    borrowed = strategy is McxStrategy.BORROWED
    width = circ.num_qubits
    shortfall = 0
    for g in circ.gates:
        if g.kind is _MCX:
            have = width - len(g.qubits) if borrowed else 0
            shortfall = max(shortfall, _ancillas_needed(strategy, len(g.controls)) - have)
    role = QubitRole.BORROWED_ANCILLA if borrowed else QubitRole.CLEAN_ANCILLA
    grown = tuple(range(width, width + shortfall))
    out: list[Gate] = []
    for g in circ.gates:
        if g.kind is not _MCX:
            out.append(g)
            continue
        ancillas = grown
        if borrowed:
            taken = set(g.qubits)
            ancillas += tuple(q for q in range(width) if q not in taken)
        used = ancillas[: _ancillas_needed(strategy, len(g.controls))]
        out.extend(_network(strategy, g.controls, g.target, used))
    return _circuit(width + shortfall, circ.roles + (role,) * shortfall, tuple(out))


def lower_mcx_auto(circ: Circuit) -> Circuit:
    """The borrowed lowering, growing the register when no qubit is idle."""
    return lower_mcx(circ, McxStrategy.BORROWED)
