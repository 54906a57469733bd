"""Behavioural verification.

Contains:
  * verify_transposition / verify_mcx -- check a circuit against the map
    it is supposed to implement, exhaustively while the enumerated bits
    fit under the simulator cap (_SIM_CAP, 20 swept bits) and on a seeded
    sample of 64 inputs beyond that, at a fixed tolerance of 1e-9
  * swept_qubits     -- the qubits a verifier enumerates: every qubit
    whose role is not clean (clean ancillas start and end at |0>)

Basis states go in and come out as labels (ir.label_to_int /
ir.int_to_label: character i is qubit i).

The verifiers share one input sweep and a batched sparse engine.  The
engine runs the inputs that the classical check below does not pass as a
few (key, amplitude) branches each, 2^13 inputs at a time (no input's
branches depend on another's, so chunking bounds memory and changes no
result; at 2^13, the arrays of an H at the branch width lowered circuits
reach fit a 2 MiB per-core L2 cache):

  * Between two H gates, a stretch of permutation and phase gates runs on
    bit planes: one Python int per touched qubit over all branch keys
    (_plane), so a Toffoli is one big-int p[t] ^= p[c1] & p[c2] and a
    phase gate scales the amplitudes its target's plane, unpacked as a
    bool mask, selects.  Each plane the stretch changed goes back into the
    keys as the XOR of its old and new value (_deposit); the others are
    not written.
  * H splits each branch into its target-bit-clear and -set halves.  Only
    branches of one input whose keys differ in exactly the target bit can
    meet, so a pairwise XOR compare of the few branch slots finds every
    merge without sorting; dead branches (under _DEAD_AMPLITUDE) are dropped.
  * Each input's branches stay in the slots the last stretch leaves them
    in, in no key order.  The report reads one branch per input in
    place: the one of largest magnitude and, on an exact tie, of lowest
    key (_outcome).

Each input's live keys and their amplitudes equal a stable-sort merge's
bit for bit, in another slot order, but for the sign of a zero, which is
not reproduced: reports round amplitudes to six places and print a zero
part unsigned, so their text cannot depend on it.  The residue, summed
in slot order, can differ in its last bits, far below the tolerance.

_plane and _deposit are the one converter each way between uint64 keys
and Python-int planes: the engine's stretches, _keys, the sampled draws
and the exhaustive index patterns all go through them, and neither
depends on the machine's byte order.

_check_map first makes one pass over the gates' kinds.  If it finds a
phase gate, it raises the Toffoli blocks of lowering (_raise_toffolis,
which owns their format): each becomes the one Toffoli it implements,
which is exact and takes both H of the block off the engine.  A block
holds T-type gates, so a circuit with no phase gate is not scanned at
all.  The peephole keeps most blocks intact, not all (see lowering), and
the H of a broken block stay for the engine.

The same kinds then decide whether inputs can pass without the engine.
Gates with no H and no phase gate are a permutation R; so are the gates
of H(f)·R·H(f) without the H pair, when f is a clean wire that no gate
outside the pair touches.  R then runs on the sweep's bit planes
(_bad_inputs), and an input passes if R maps it to its expected output:
for the flag form, R runs on each input with f clear and with f set side
by side, and the two outputs must equal the expected one on every other
wire and differ on f, which the expected output holds clear (the
path-sum condition of Amy, QPL 2018, for a classical R).  The engine
would then leave each input one branch of amplitude 1.0, or
2·fl(s·s) = 0.9999999999999998 (s = 1/√2 rounded) for the flag form,
both within the tolerance.  OR-ing each wire's output plane XOR its
expected plane gives one bad-input mask per chunk of the sweep.

Each chunk's mask is checked in slices of 2^13 inputs (_CHUNK), and a
slice whose part of the mask is 0 passes.  Only the other slices, or
every slice when R does not decide, get uint64 register keys (_keys,
their planes deposited into zeros) and run on the engine, on the raised
gates.  That run decides which inputs fail, so an input's verdict does
not depend on which inputs share its slice.  A slice with failures runs
again on the gates as given while fewer than _MAX_RECORDED_FAILURES are
listed, and each listed failure takes its text from that run: where two
branches of a failing input tie in magnitude, the raised run rounds
differently and could lead with the other one.  Only failing slices
pay the engine's full cost.  The engine keys at most 63 qubits; a check
that passes on planes needs no key, so it has no such limit.

_sweep is the one place where inputs are built, for both verifiers, as
chunks of bit planes: one Python int per wire of the register, bit i
holding that wire's bit in the chunk's input i (0 for a wire no group
sweeps).  A chunk holds at most 2^16 inputs (_PLANE_BITS), so a check
holds 8 KiB of plane per wire, not 2^k bits, and the expected maps, R
and the mask run chunk by chunk.  A study verifies thousands of small
circuits, so it keeps its set-up off the per-call path:

  * Exhaustive: index bit j's pattern over a chunk's indices, the _plane
    of bit j of the indices 0..2^k-1, goes onto the j-th swept wire.  The
    patterns are cached per chunk width; index bits 16 and up are
    constant across a chunk, each plane all ones or 0.  A sweep of at
    most 16 bits is one chunk.
  * Sampled: the draws depend only on (widths, seed) and are drawn once,
    a group of any width 64 bits at a time, low bits first, one uint64
    per input and draw (a group of at most 64 bits is one draw).  They
    are kept as the _plane of each of their bits (_draws, a bounded cache
    of immutable planes); _sweep places them as one chunk and writes the
    pinned inputs into bits 0 and 1.  A sampled check that passes on
    planes has no width limit; only one that needs the engine meets its
    63-qubit limit.
  * Per register: verify_transposition splits a register's roles into
    its data and borrowed wires once per roles tuple (_split_roles, a
    bounded cache; QubitRole hashes by identity, so the key hashes in
    C).  When the data wires are 0..n-1, as on every synthesized
    circuit, a and b are their own register keys.

Each verifier states its expected map once, on a chunk's planes and
with Boolean operators only: the transposition flips a^b on the inputs
whose data planes match a or b, and the MCX flips its target's plane by
the AND of its controls' planes.
"""
from __future__ import annotations

import cmath
import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ir import (
    PERMUTATION_KINDS,
    Circuit,
    Gate,
    GateKind,
    QubitRole,
    _require,
    _require_int,
    int_to_label,
)
from .lowering import _raise_toffolis
from .transposition import TranspositionSpec

_SENTINEL = np.uint64(0xFFFFFFFFFFFFFFFF)
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_PHASE = {
    GateKind.T: cmath.exp(0.25j * math.pi),
    GateKind.TDG: cmath.exp(-0.25j * math.pi),
    GateKind.S: 1j,
    GateKind.SDG: -1j,
}
#: GateKind hashes by identity, so a frozenset lookup is one C-level
#: hash, where a tuple compares with == member by member on a miss.
_PHASE_KINDS = frozenset(_PHASE)
_H = GateKind.H


# --- batched sparse branch engine ------------------------------------------
#
# Inputs are columns: keys and amps have shape (w, R), slot s of input r
# holding one branch (key, amplitude).  A slot is live while its amplitude
# is nonzero; a dead slot has amplitude 0 and any key, and the live keys of
# one input are distinct.  Slot-major storage keeps every slot contiguous
# across the R inputs, so each step below is a handful of flat vector
# passes, looping in Python only over the few slots.

def _plane(keys: np.ndarray, q: int) -> int:
    """Bit q of every uint64 key as one Python int: bit i of the plane is
    bit q of flat key i."""
    bits = np.bitwise_and(keys, np.uint64(1 << q)) != 0
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _deposit(keys: np.ndarray, wires: list[int], planes: list[int]) -> None:
    """XOR bit i of each plane into bit q of flat key i, q the plane's
    wire, in place: the inverse of _plane on a zero key array."""
    flat = keys.reshape(-1)
    for q, bits in zip(wires, _unpack(planes, flat.size)):
        flat ^= bits.astype(np.uint64) << np.uint64(q)


def _unpack(planes: list[int], count: int) -> np.ndarray:
    """The low count bits of each Python-int plane: one uint8 0/1 row each."""
    size = (count + 7) >> 3
    raw = np.frombuffer(b"".join(p.to_bytes(size, "little") for p in planes), dtype=np.uint8)
    return np.unpackbits(raw.reshape(len(planes), size), axis=1, count=count, bitorder="little")


def _permute(gates: tuple[Gate, ...], planes: dict[int, int] | list[int], ones: int) -> None:
    """Apply permutation gates to bit planes in place: each flips its
    target's plane where every control's plane is set (everywhere, for an
    X).  ones holds every bit the planes use.  A Toffoli is tested first
    and costs one & and one ^; every other gate takes the general loop.
    Only & and ^ touch plane values."""
    for g in gates:
        controls = g.controls
        if len(controls) == 2:
            c0, c1 = controls
            planes[g.target] ^= planes[c0] & planes[c1]
        else:
            fire = planes[controls[0]] if controls else ones
            for c in controls[1:]:
                fire &= planes[c]
            planes[g.target] ^= fire


def _run_planes(gates: tuple[Gate, ...], keys: np.ndarray, amps: np.ndarray) -> None:
    """Apply a stretch of permutation and phase gates in place.

    Each touched qubit's bits of the keys become one plane (_plane), so a
    Toffoli is one big-int p[t] ^= p[c1] & p[c2].  A phase gate scales the
    amplitudes its target's plane selects.  Each plane the stretch changed
    goes back into the keys as the XOR of its old and new value
    (_deposit); the others are not written."""
    if not gates:
        return
    count = keys.size
    touched = {g.target for g in gates}.union(*[g.controls for g in gates])
    planes = {q: _plane(keys, q) for q in touched}
    before = dict(planes)
    ones = (1 << count) - 1
    for g in gates:
        if g.kind in _PHASE_KINDS:
            # The target's plane, unpacked, is a bool mask of the slots to
            # scale.  Out of place: numpy's in-place multiply of a
            # one-element complex array rounds differently from its vector
            # loop, so the selected amplitudes are gathered first.
            hit = _unpack([planes[g.target]], count)[0].view(bool)
            flat = amps.reshape(-1)
            flat[hit] = flat[hit] * _PHASE[g.kind]
        else:
            _permute((g,), planes, ones)
    changed = [q for q in touched if planes[q] != before[q]]
    _deposit(keys, changed, [planes[q] ^ before[q] for q in changed])


def _hadamard(keys: np.ndarray, amps: np.ndarray, target: int) -> tuple[np.ndarray, np.ndarray]:
    """Split every live branch into lo (target bit clear) and hi (set)
    halves and merge equal keys, without sorting.

    Two halves can only share a key when they come from live slots i < j of
    one input whose keys differ exactly in the target bit; then lo_i meets
    lo_j and hi_i meets hi_j, and slot i keeps both sums.  Comparing slot i
    with slot i + d for d = 1..w-1 finds every such pair; since live keys
    are distinct a slot is in at most one pair, and slot j is zeroed."""
    tbit = np.uint64(1 << target)
    width = keys.shape[0]
    live = amps != 0
    out_keys = np.empty((2 * width, keys.shape[1]), dtype=np.uint64)
    np.bitwise_and(keys, ~tbit, out=out_keys[:width])
    np.bitwise_or(keys, tbit, out=out_keys[width:])
    out = np.empty((2 * width, keys.shape[1]), dtype=np.complex128)
    lo, hi = out[:width], out[width:]
    np.multiply(amps, _INV_SQRT2, out=lo)
    np.multiply(lo, np.where(keys & tbit, -1.0, 1.0), out=hi)
    for d in range(1, width):
        pair = (keys[:-d] ^ keys[d:]) == tbit
        pair &= live[:-d]
        pair &= live[d:]
        if pair.any():
            for half in (lo, hi):
                half[:-d] += half[d:] * pair
                half[d:] *= ~pair
    return _compact(out_keys, out, np.abs(out) >= _DEAD_AMPLITUDE)


def _compact(keys: np.ndarray, amps: np.ndarray, live: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zero the dead slots, move each input's live branches to its first
    slots and drop the slots no input needs (at least one stays)."""
    slot = np.empty(live.shape, dtype=np.intp)
    used = np.zeros(live.shape[1], dtype=np.intp)
    for s, row in enumerate(live):
        slot[s] = used
        used += row
    width = max(int(used.max()), 1)
    if width == keys.shape[0]:
        amps[~live] = 0
        return keys, amps
    slot *= live.shape[1]
    slot += np.arange(live.shape[1])
    dest = slot[live]
    out_keys = np.full((width, live.shape[1]), _SENTINEL)
    out_amps = np.zeros((width, live.shape[1]), dtype=np.complex128)
    out_keys.reshape(-1)[dest] = keys[live]
    out_amps.reshape(-1)[dest] = amps[live]
    return out_keys, out_amps


def _run_branches(gates: tuple[Gate, ...], inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run every input at once: the stretches between H gates on bit
    planes, each H through the sort-free merge.  Returns keys and
    amplitudes of shape (w, R) as the last stretch leaves them: input r's
    live branches in its slots, in no key order, and a dead slot with
    amplitude 0 and any key."""
    keys = inputs.astype(np.uint64).reshape(1, -1)
    amps = np.ones_like(keys, dtype=np.complex128)
    start = 0
    for i in [i for i, g in enumerate(gates) if g.kind is _H]:
        _run_planes(gates[start:i], keys, amps)
        keys, amps = _hadamard(keys, amps, gates[i].target)
        start = i + 1
    _run_planes(gates[start:], keys, amps)
    return keys, amps


# --- passing permutation circuits without the engine ------------------------

def _classical_form(
    gates: tuple[Gate, ...], kinds: list[GateKind], roles: tuple[QubitRole, ...]
) -> tuple[tuple[Gate, ...], int | None] | None:
    """(R, flag wire) when R on bit planes decides which inputs pass: gates
    with no H are R, with no flag; H(f)·R·H(f) is R, flag f, when f is
    clean and no gate outside the H pair touches it.  None for any other
    gates or any phase gate."""
    if not _PHASE_KINDS.isdisjoint(kinds):
        return None
    flag = None
    if _H in kinds:
        if kinds.count(_H) != 2:
            return None
        first = kinds.index(_H)
        last = kinds.index(_H, first + 1)
        f = gates[first].target
        if (
            gates[last].target != f
            or roles[f] is not QubitRole.CLEAN_ANCILLA
            or any(f in g.qubits for g in gates[:first] + gates[last + 1 :])
        ):
            return None
        gates, flag = gates[:first] + gates[first + 1 : last] + gates[last + 1 :], f
    return gates, flag


def _bad_inputs(
    r: tuple[Gate, ...], flag: int | None, ins: list[int], exp: list[int], count: int
) -> int:
    """The inputs R does not take to their expected outputs, as a mask:
    bit i set when input i fails.  ins and exp hold one plane per wire.

    Without a flag, input i fails when any wire's output differs from exp.
    With flag wire f, R runs on each input with f clear (low count bits)
    and f set (high count bits) side by side, and input i passes when both
    outputs equal exp on every other wire and differ on f, and exp holds f
    clear.  An input whose own f is set gives two equal outputs and fails."""
    ones = (1 << count) - 1
    if flag is None:
        out = list(ins)
        _permute(r, out, ones)
        bad = 0
        for o, e in zip(out, exp):
            bad |= o ^ e
        return bad
    out = [p | p << count for p in ins]
    out[flag] |= ones << count
    _permute(r, out, ones << count | ones)
    bad = exp[flag]
    for q, (o, e) in enumerate(zip(out, exp)):
        if q != flag:
            bad |= o ^ (e | e << count)
    o = out[flag]
    return (bad | bad >> count | o ^ o >> count ^ ones) & ones


# --- verification -----------------------------------------------------------


@dataclass(frozen=True)
class StateCheck:
    """One failed input: what went in, what should have come out, and a
    short description of what actually came out."""

    state_in: str
    expected: str
    actual: str


@dataclass(frozen=True)
class VerificationReport:
    total_checked: int
    failed: int
    failures: tuple[StateCheck, ...]
    sampled: bool

    @property
    def passed(self) -> bool:
        return self.failed == 0

    def to_text(self) -> str:
        mode = "sampled" if self.sampled else "exhaustive"
        verdict = "PASS" if self.passed else "FAIL"
        lines = [
            f"{verdict}: {self.total_checked - self.failed}/{self.total_checked} "
            f"basis states ({mode}, tolerance {_TOLERANCE:g})"
        ]
        for f in self.failures:
            lines.append(f"  {f.state_in} -> expected {f.expected}, got {f.actual}")
        if self.failed > len(self.failures):
            lines.append(f"  ... and {self.failed - len(self.failures)} more")
        return "\n".join(lines)


_MAX_RECORDED_FAILURES = 64

#: How far an output's leading amplitude may be from 1, and how much
#: weight its other branches may hold in all.  Every gate of the alphabet
#: but H is exact, and H scales by 1/√2 rounded, so a correct circuit
#: misses 1 by rounding alone (2.2e-16 for the flag form).  It is far
#: below 1.5, from where a flag form's failing input, four branches of
#: ±1/2, would pass as a basis state: so the mask of _bad_inputs is the
#: engine's verdict on every form _classical_form accepts.
_TOLERANCE = 1e-9

#: Branches below this magnitude are dead and dropped at each H (_hadamard).
#: Two halves that cancel in a merge leave a rounding residue of a few
#: 1e-16, which must not live on as a branch; and a dropped branch is five
#: orders below _TOLERANCE, so dropping it moves no verdict.
_DEAD_AMPLITUDE = 1e-14

#: Inputs in a sampled sweep: 62 seeded draws and the two pinned keys.
_SAMPLE_SIZE = 64

#: Most swept bits a verifier enumerates exhaustively; wider sweeps are
#: sampled, and `transposynth verify` refuses them.  The cap bounds time,
#: not memory: the planes of a sweep are held one chunk at a time.
_SIM_CAP = 20

#: Index bits a chunk of the sweep spans: its 2^16 inputs take 8 KiB of
#: plane per wire (16 KiB for the flag form's two runs), whatever the
#: sweep's width.  Each chunk reruns R's gates, so chunks much smaller
#: cost time: Toffoli-level thm3_a at n=20 checked in 9.2 ms with 16
#: bits, 16.4 ms with 13 (one engine slice per chunk) and 11.1 ms with 18
#: (best of 28 runs in process, 2-core x86-64 host, Python 3.11).
_PLANE_BITS = 16

#: Widest register the branch engine keys: a basis state is one uint64
#: key.  No key of 63 qubits is all ones, so the all-ones _SENTINEL is a
#: safe fill: _compact's new dead slots hold it, and _outcome puts it on
#: every branch short of the largest magnitude, so that the lowest key
#: picks a leading branch, never one of those.
_MAX_QUBITS = 63

#: Inputs per engine run.  No input's branches depend on another's, so a
#: chunk of the sweep runs in slices of this many with the same results,
#: and the engine's memory is bounded by the slice.  At 2^13, the
#: (2w, R) keys and amplitudes an H makes at the width lowered circuits
#: reach (2w = 8 slots) take 1.5 MiB and fit a 2 MiB per-core L2 cache.
_CHUNK = 1 << 13


def swept_qubits(circ: Circuit) -> tuple[int, ...]:
    """The qubits a verifier enumerates: all but the clean ancillas."""
    _require("circ", circ, Circuit)
    return tuple(q for q, r in enumerate(circ.roles) if r is not QubitRole.CLEAN_ANCILLA)


@lru_cache(maxsize=256)
def _split_roles(roles: tuple[QubitRole, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The data wires and the borrowed wires of a register, in order."""
    data = tuple(q for q, r in enumerate(roles) if r is QubitRole.DATA)
    return data, tuple(q for q, r in enumerate(roles) if r is QubitRole.BORROWED_ANCILLA)


@lru_cache(maxsize=_PLANE_BITS + 1)
def _index_patterns(k: int) -> tuple[int, ...]:
    """Bit j of each index 0..2^k-1 as one plane, for each j < k: bit i
    of plane j is bit j of i."""
    indices = np.arange(1 << k, dtype=np.uint64)
    return tuple(_plane(indices, j) for j in range(k))


@lru_cache(maxsize=64)
def _draws(widths: tuple[int, ...], seed: int) -> tuple[tuple[int, ...], ...]:
    """The seeded sample of _sweep, drawn once per (widths, seed): for
    each group of swept bits, one plane per bit j of the group, bit i
    holding bit j of input i.  A group's bits are drawn low first, in
    consecutive draws of min(64, bits still to draw) bits each, so a
    group of at most 64 bits is one draw.  Planes are Python ints, so the
    cache cannot be written to through what _sweep hands out."""
    rng = np.random.default_rng(seed)
    planes = []
    for w in widths:
        group = []
        for k in (min(64, w - low) for low in range(0, w, 64)):
            draws = rng.integers(0, 1 << k, size=_SAMPLE_SIZE, dtype=np.uint64)
            group.extend(_plane(draws, j) for j in range(k))
        planes.append(tuple(group))
    return tuple(planes)


def _sweep(
    circ: Circuit,
    groups: tuple[tuple[int, ...], ...],
    pins: tuple[int, int],
    cap: int,
    seed: int,
) -> tuple[Iterable[tuple[int, list[int]]], int, bool]:
    """The inputs a verifier runs, in chunks of at most 2^_PLANE_BITS;
    their count; and whether they are a sample.  Each chunk is its size
    and one bit plane per wire of the register: bit i of plane q is wire q
    of the chunk's input i, and 0 on a wire no group sweeps.

    groups split the swept wires; bit j of a group's value is its wire j.
    Up to cap swept bits in all, every combination comes once, in the
    order of an index whose most significant bits are the first group.
    Beyond that, each group gets _SAMPLE_SIZE seeded draws, one chunk, and
    inputs 0 and 1 are replaced by the register keys in pins.
    """
    # Before any input is drawn: numpy would otherwise fail on a negative
    # seed with a message naming no argument.  An exhaustive sweep draws
    # nothing, but refuses the same seeds, so a call's validity does not
    # depend on the width.
    _require_int("seed", seed, 0)
    widths = tuple(map(len, groups))
    if sum(widths) > cap:
        planes = [0] * circ.num_qubits
        for wires, drawn in zip(groups, _draws(widths, seed)):
            for q, p in zip(wires, drawn):
                planes[q] = p
        a, b = pins
        planes = [p & ~3 | a >> q & 1 | (b >> q & 1) << 1 for q, p in enumerate(planes)]
        return ((_SAMPLE_SIZE, planes),), _SAMPLE_SIZE, True
    wires = sum(reversed(groups), ())
    return _index_chunks(circ.num_qubits, wires), 1 << len(wires), False


def _index_chunks(n: int, wires: tuple[int, ...]) -> Iterator[tuple[int, list[int]]]:
    """The chunks of an exhaustive sweep of an n-wire register that puts
    index bit j on wires[j]: the index bits below _PLANE_BITS take their
    cached patterns, and each bit above is constant across a chunk, all
    ones or 0 as the chunk's number has it."""
    planes = [0] * n
    low, high = wires[:_PLANE_BITS], wires[_PLANE_BITS:]
    size = 1 << len(low)
    ones = (1 << size) - 1
    for q, p in zip(low, _index_patterns(len(low))):
        planes[q] = p
    for chunk in range(1 << len(high)):
        for j, q in enumerate(high):
            planes[q] = ones if chunk >> j & 1 else 0
        yield size, list(planes)


def _keys(planes: list[int], start: int, count: int) -> np.ndarray:
    """Register keys of a chunk's inputs start..start+count-1, one uint64
    each: bit q of key i is bit start+i of planes[q].  Only the inputs the
    branch engine runs need them, so only those meet its 63-qubit limit."""
    if len(planes) > _MAX_QUBITS:
        raise ValueError(
            f"the branch engine keys at most {_MAX_QUBITS} qubits; "
            f"this register has {len(planes)}"
        )
    mask = (1 << count) - 1
    rows = {q: p >> start & mask for q, p in enumerate(planes)}
    live = [q for q, p in rows.items() if p]
    keys = np.zeros(count, dtype=np.uint64)
    _deposit(keys, live, [rows[q] for q in live])
    return keys


def _amp_text(amp: complex) -> str:
    # Rounded first, then + 0.0: a part that prints as zero prints
    # 0.000000, never -0.000000, whatever the sign of its tiny residue.
    return f"{complex(round(amp.real, 6) + 0.0, round(amp.imag, 6) + 0.0):.6f}"


def _outcome(gates: tuple[Gate, ...], ins: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each input's leading key and amplitude, and whether it came out a
    basis state within the tolerance.  The leading branch has the largest
    magnitude and, on an exact tie, the lowest key, whatever slots the
    branches hold; a dead slot never leads, since a live branch is larger."""
    keys, amps = _run_branches(gates, ins)
    mag = np.abs(amps)
    cols = np.arange(keys.shape[1])
    main = np.where(mag == mag.max(axis=0), keys, _SENTINEL).argmin(axis=0)
    main_key, main_amp = keys[main, cols], amps[main, cols]
    residue = mag.sum(axis=0) - mag[main, cols]
    return main_key, main_amp, (np.abs(main_amp - 1.0) <= _TOLERANCE) & (residue <= _TOLERANCE)


def _engine_slices(
    chunks: Iterable[tuple[int, list[int]]],
    expect: Callable[[list[int], int], list[int]],
    form: tuple[tuple[Gate, ...], int | None] | None,
) -> Iterator[tuple[list[int], list[int], int, int]]:
    """The slices of a sweep the branch engine runs: (input planes,
    expected planes, start, rows) for each _CHUNK of a chunk's inputs
    whose slice of the bad-input mask R leaves is not 0, or for every
    slice when form is None.  expect(planes, ones) maps a chunk's input
    planes to its expected output planes, ones holding every bit the
    chunk uses."""
    for size, planes_in in chunks:
        ones = (1 << size) - 1
        planes_exp = expect(planes_in, ones)
        failing = ones if form is None else _bad_inputs(*form, planes_in, planes_exp, size)
        for start in range(0, size, _CHUNK) if failing else ():
            rows = min(_CHUNK, size - start)
            if failing >> start & ((1 << rows) - 1):
                yield planes_in, planes_exp, start, rows


def _check_map(
    circ: Circuit,
    chunks: Iterable[tuple[int, list[int]]],
    expect: Callable[[list[int], int], list[int]],
    count: int,
    sampled: bool,
) -> VerificationReport:
    """Check count inputs, given as chunks of planes, against the outputs
    expect maps them to (see _engine_slices)."""
    n = circ.num_qubits
    raised = circ.gates
    kinds = [g.kind for g in raised]
    if not _PHASE_KINDS.isdisjoint(kinds):
        raised = _raise_toffolis(raised)
        kinds = [g.kind for g in raised]
    form = _classical_form(raised, kinds, circ.roles)
    failed = 0
    failures = []
    for planes_in, planes_exp, start, rows in _engine_slices(chunks, expect, form):
        ins, exp = _keys(planes_in, start, rows), _keys(planes_exp, start, rows)
        main_key, main_amp, basis_ok = _outcome(raised, ins)
        bad = ~basis_ok | (main_key != exp)
        if not bad.any():
            continue
        if raised is not circ.gates and len(failures) < _MAX_RECORDED_FAILURES:
            # The raised gates decide which inputs fail; each listed one
            # takes its text from the gates as given: where two branches
            # tie, the raised run's rounding can make the other one lead,
            # and the report would print its amplitude.  Once the
            # list is full, no later slice lists one, so none runs again.
            main_key, main_amp, basis_ok = _outcome(circ.gates, ins)
        bad = np.flatnonzero(bad)
        failed += len(bad)
        for r in bad[: _MAX_RECORDED_FAILURES - len(failures)]:
            if basis_ok[r]:
                actual = int_to_label(int(main_key[r]), n)
            else:
                actual = f"non-basis state (leading amplitude {_amp_text(complex(main_amp[r]))})"
            failures.append(
                StateCheck(int_to_label(int(ins[r]), n), int_to_label(int(exp[r]), n), actual)
            )
    return VerificationReport(
        total_checked=count,
        failed=failed,
        failures=tuple(failures),
        sampled=sampled,
    )


def verify_transposition(
    circ: Circuit,
    spec: TranspositionSpec,
    *,
    seed: int = 0,
    enumeration_cap: int | None = None,
) -> VerificationReport:
    """Check that circ swaps a and b on the data qubits, fixes every other
    data state, restores borrowed ancillas and returns clean ones to |0>.

    Data and borrowed bits are enumerated exhaustively when they number
    at most 20 (_SIM_CAP); otherwise a seeded sample of 64 inputs (always
    containing a and b, with borrowed bits zeroed) is used and the report
    says so.  enumeration_cap tightens the exhaustive/sampled switch below 20,
    for callers that check many circuits and can live with spot checks on
    wide registers.

    An output passes when its leading amplitude is within 1e-9 of 1 and
    its other branches hold at most 1e-9 in all.
    """
    _require("circ", circ, Circuit)
    _require("spec", spec, TranspositionSpec)
    data, borrowed = _split_roles(circ.roles)
    if len(data) != spec.n:
        raise ValueError(f"circuit has {len(data)} data qubits, spec wants {spec.n}")
    # a and b as register keys: bit i of a label sits on wire data[i], so
    # when the data wires are 0..n-1 (the last one is n-1) the keys are
    # the labels' indices.
    a, b = (spec.a_int, spec.b_int) if data[-1] == spec.n - 1 else [
        sum(1 << q for i, q in enumerate(data) if v >> i & 1) for v in (spec.a_int, spec.b_int)
    ]
    if enumeration_cap is not None:
        _require_int("enumeration_cap", enumeration_cap, 0)
    cap = _SIM_CAP if enumeration_cap is None else min(_SIM_CAP, enumeration_cap)
    chunks, count, sampled = _sweep(circ, (data, borrowed), (a, b), cap, seed)

    def expect(planes: list[int], ones: int) -> list[int]:
        # The inputs whose data planes match a or b flip a^b.
        is_a = is_b = ones
        for q in data:
            p = planes[q]
            is_a &= p if a >> q & 1 else p ^ ones
            is_b &= p if b >> q & 1 else p ^ ones
        swap = is_a | is_b
        return [p ^ swap if (a ^ b) >> q & 1 else p for q, p in enumerate(planes)]

    return _check_map(circ, chunks, expect, count, sampled)


def verify_mcx(circ: Circuit, gate: Gate) -> VerificationReport:
    """Check that circ acts as gate: it flips gate.target exactly when all
    of gate.controls are 1 and fixes everything else.  The ancilla contract
    comes from circ.roles: borrowed bits are swept over and must come
    back; clean bits start 0 and must return to 0.  Inputs and tolerance
    are as for verify_transposition at seed 0, and a sample pins the two
    inputs on which gate fires, restricted to the swept wires: a control
    on a clean wire is 0 there, as in an exhaustive sweep."""
    _require("circ", circ, Circuit)
    _require("gate", gate, Gate)
    if gate.kind not in PERMUTATION_KINDS or max(gate.qubits) >= circ.num_qubits:
        raise ValueError(f"{gate} is not a controlled X on the {circ.num_qubits}-qubit register")
    swept = swept_qubits(circ)
    smask = sum(1 << q for q in swept)
    cmask = sum(1 << c for c in gate.controls)
    tbit = 1 << gate.target
    # Sampled, rows 0 and 1 make sure the firing configurations are present.
    pins = (cmask & smask, (cmask | tbit) & smask)
    chunks, count, sampled = _sweep(circ, (swept,), pins, _SIM_CAP, 0)

    def expect(planes: list[int], ones: int) -> list[int]:
        exp = list(planes)
        _permute((gate,), exp, ones)
        return exp

    return _check_map(circ, chunks, expect, count, sampled)
