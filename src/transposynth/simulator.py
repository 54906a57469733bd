"""Simulators and behavioural verification.

Contains:
  * run_statevector  -- dense statevector run of the full gate alphabet
  * verify_transposition / verify_mcx -- check a circuit against the map
    it is supposed to implement, exhaustively while the enumerated bits
    fit under the simulator cap and on a seeded sample beyond that
  * swept_qubits     -- the qubits a verifier enumerates: every qubit
    whose role is not clean (clean ancillas start and end at |0>)
  * sim_cap          -- the cap (default 20), overridable through the
    TRANSPOSYNTH_SIM_CAP environment variable

Basis states go in and come out as labels (ir.label_to_int /
ir.int_to_label: character i is qubit i).

The verifiers share one input sweep and a batched sparse engine that runs
the inputs as a few (key, amplitude) branches each, 2^14 inputs at a time
(no input's branches depend on another's, so chunking bounds memory and
changes no result):

  * Between two H gates, a stretch of permutation and phase gates runs on
    bit planes: one Python int per touched qubit over all branch keys, so
    a Toffoli is one big-int p[t] ^= p[c1] & p[c2] and a phase gate scales
    the amplitudes its target's plane selects.  Only the planes a stretch
    changed are written back into the keys.
  * H splits each branch into its target-bit-clear and -set halves.  Only
    branches of one input whose keys differ in exactly the target bit can
    meet, so a pairwise XOR compare of the few branch slots finds every
    merge without sorting; dead branches (|amplitude| < 1e-14) are dropped.
  * One key sort at the end puts each input's live branches in ascending
    key order, the order the reports read them in.

Keys and amplitudes equal a stable-sort merge's bit for bit but for the
sign of a zero, which is not reproduced: reports round amplitudes to six
places and print a zero part unsigned, so their text cannot depend on it.

A study verifies thousands of small circuits, so the set-up around the
engine is kept off the per-call path:

  * Sampled draws depend only on (widths, seed, sample_size) and are
    drawn once (_draws, a bounded cache of read-only arrays); _sweep hands
    each caller copies, since callers overwrite the first rows.  The
    exhaustive 2^k enumerations are rebuilt every call, never cached.
  * verify_transposition skips the bit deposit when the data qubits are
    0..n-1 and nothing is borrowed: the deposit is then the identity.
  * When every input settles to one branch, the check reads that column
    directly: the residue beside it is exactly 0.
"""
from __future__ import annotations

import cmath
import math
import os
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ir import PERMUTATION_KINDS, Circuit, Gate, GateKind, QubitRole, int_to_label, label_to_int
from .transposition import TranspositionSpec

DEFAULT_SIM_CAP = 20
SIM_CAP_ENV = "TRANSPOSYNTH_SIM_CAP"

_SENTINEL = np.uint64(0xFFFFFFFFFFFFFFFF)
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_PHASE = {
    GateKind.T: cmath.exp(0.25j * math.pi),
    GateKind.TDG: cmath.exp(-0.25j * math.pi),
    GateKind.S: 1j,
    GateKind.SDG: -1j,
}
#: tuple, not the dict: membership then compares identities instead of
#: calling Enum.__hash__ on every gate.
_PHASE_KINDS = tuple(_PHASE)
_H = GateKind.H


def sim_cap() -> int:
    raw = os.environ.get(SIM_CAP_ENV)
    if raw is None:
        return DEFAULT_SIM_CAP
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{SIM_CAP_ENV} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"{SIM_CAP_ENV} must be positive, got {value}")
    return value


def run_statevector(circ: Circuit, state: str | int | np.ndarray = 0) -> np.ndarray:
    """Dense simulation from a basis label, a basis index or a state
    vector.  Registers above sim_cap() are refused."""
    n = circ.num_qubits
    if n > sim_cap():
        raise ValueError(f"{n} qubits exceeds the simulator cap of {sim_cap()}")
    dim = 1 << n
    if isinstance(state, np.ndarray):
        if state.shape != (dim,):
            raise ValueError(f"state vector must have shape ({dim},)")
        vec = state.astype(np.complex128)
    else:
        index = label_to_int(state, n) if isinstance(state, str) else int(state)
        if not 0 <= index < dim:
            raise ValueError(f"basis index {index} outside 0..{dim - 1}")
        vec = np.zeros(dim, dtype=np.complex128)
        vec[index] = 1.0
    for g in circ.gates:
        if g.kind is GateKind.H:
            v = vec.reshape(-1, 2, 1 << g.target)
            lo = v[:, 0, :].copy()
            hi = v[:, 1, :].copy()
            v[:, 0, :] = (lo + hi) * _INV_SQRT2
            v[:, 1, :] = (lo - hi) * _INV_SQRT2
        elif g.kind in _PHASE_KINDS:
            # Out of place, as in _run_planes, so the rounding does not
            # depend on the register width.
            v = vec.reshape(-1, 2, 1 << g.target)
            v[:, 1, :] = v[:, 1, :] * _PHASE[g.kind]
        else:
            idx = np.arange(dim)
            cmask = 0
            for c in g.controls:
                cmask |= 1 << c
            fire = (idx & cmask) == cmask
            vec = vec[idx ^ (fire << g.target)]
    return vec


# --- batched sparse branch engine ------------------------------------------
#
# Inputs are columns: keys and amps have shape (w, R), slot s of input r
# holding one branch (key, amplitude).  A slot is live while its amplitude
# is nonzero; a dead slot has amplitude 0 and any key, and the live keys of
# one input are distinct.  Slot-major storage keeps every slot contiguous
# across the R inputs, so each step below is a handful of flat vector
# passes, looping in Python only over the few slots.

#: Byte b of a uint64 key (bits 8b..8b+7) is column _COLUMN[b] of its uint8 view.
_COLUMN = np.arange(8) if sys.byteorder == "little" else np.arange(7, -1, -1)


def _run_planes(gates: tuple[Gate, ...], keys: np.ndarray, amps: np.ndarray) -> None:
    """Apply a stretch of permutation and phase gates in place.

    The keys are bit-sliced: one Python int per touched qubit whose bit k
    is that qubit's bit in flat key k, so a Toffoli is one big-int
    p[t] ^= p[c1] & p[c2].  A phase gate scales the amplitudes its target's
    plane selects.  Only the planes the stretch changed are written back
    into the keys."""
    if not gates:
        return
    count = keys.size
    size = (count + 7) >> 3
    kb = keys.reshape(-1).view(np.uint8).reshape(count, 8)
    flat = amps.reshape(-1)
    touched = sorted({g.target for g in gates}.union(*[g.controls for g in gates]))
    qa = np.array(touched)
    bit = (qa & 7).astype(np.uint8)
    raw = np.packbits(kb[:, _COLUMN[qa >> 3]] & (1 << bit), axis=0, bitorder="little").T.tobytes()
    planes = {
        q: int.from_bytes(raw[i * size : (i + 1) * size], "little") for i, q in enumerate(touched)
    }
    before = dict(planes)
    ones = (1 << count) - 1
    for g in gates:
        if g.kind in _PHASE_KINDS:
            # Out of place: numpy's in-place multiply of a one-element
            # complex array rounds differently from its vector loop.
            hit = np.flatnonzero(_unpack([planes[g.target]], count))
            flat[hit] = flat[hit] * _PHASE[g.kind]
            continue
        fire = ones
        for c in g.controls:
            fire &= planes[c]
        planes[g.target] ^= fire
    changed = [i for i, q in enumerate(touched) if planes[q] != before[q]]
    if changed:
        flips = _unpack([planes[touched[i]] ^ before[touched[i]] for i in changed], count)
        flips <<= bit[changed, None]
        byte = qa[changed] >> 3
        for b in set(byte.tolist()):
            # The qubits of one byte hold distinct bits of it: a sum is an OR.
            kb[:, _COLUMN[b]] ^= flips[byte == b].sum(axis=0, dtype=np.uint8)


def _unpack(planes: list[int], count: int) -> np.ndarray:
    """The low count bits of each Python-int plane: one uint8 0/1 row each."""
    size = (count + 7) >> 3
    raw = np.frombuffer(b"".join(p.to_bytes(size, "little") for p in planes), dtype=np.uint8)
    return np.unpackbits(raw.reshape(len(planes), size), axis=1, count=count, bitorder="little")


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
    return _compact(out_keys, out, np.abs(out) >= 1e-14)


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


def _settle(keys: np.ndarray, amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop the branches under the dead threshold and sort each input's
    keys, leaving its live branches in ascending key order and the dead
    ones (key all ones, amplitude 0) after them.  Returns (R, w) arrays, w
    the widest input's live count."""
    dead = np.abs(amps) < 1e-14
    amps[dead] = 0
    keys[dead] = _SENTINEL
    keys, amps = keys.T, amps.T
    if keys.shape[1] > 1:
        order = np.argsort(keys, axis=1, kind="stable")
        order = order[:, : max(int((~dead).sum(axis=0).max()), 1)]
        keys = np.take_along_axis(keys, order, axis=1)
        amps = np.take_along_axis(amps, order, axis=1)
    return keys, amps


def _run_branches(gates: tuple[Gate, ...], inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run every input at once: the stretches between H gates on bit
    planes, each H through the sort-free merge.  Returns keys and
    amplitudes of shape (R, w), each input's live branches first in
    ascending key order."""
    keys = inputs.astype(np.uint64).reshape(1, -1)
    amps = np.ones_like(keys, dtype=np.complex128)
    start = 0
    for i in [i for i, g in enumerate(gates) if g.kind is _H]:
        _run_planes(gates[start:i], keys, amps)
        keys, amps = _hadamard(keys, amps, gates[i].target)
        start = i + 1
    _run_planes(gates[start:], keys, amps)
    return _settle(keys, amps)


def _deposit(values: np.ndarray, positions: tuple[int, ...]) -> np.ndarray:
    """Move bit j of every value to bit positions[j], one shift and mask
    per run of consecutive positions."""
    out = np.zeros(values.shape, dtype=np.uint64)
    start = 0
    for j in range(1, len(positions) + 1):
        if j == len(positions) or positions[j] != positions[j - 1] + 1:
            mask = np.uint64((1 << (j - start)) - 1)
            out |= ((values >> np.uint64(start)) & mask) << np.uint64(positions[start])
            start = j
    return out


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
    passed: bool
    total_checked: int
    failed: int
    failures: tuple[StateCheck, ...]
    sampled: bool
    tolerance: float

    def to_text(self) -> str:
        mode = "sampled" if self.sampled else "exhaustive"
        verdict = "PASS" if self.passed else "FAIL"
        lines = [
            f"{verdict}: {self.total_checked - self.failed}/{self.total_checked} "
            f"basis states ({mode}, tolerance {self.tolerance:g})"
        ]
        for f in self.failures:
            lines.append(f"  {f.state_in} -> expected {f.expected}, got {f.actual}")
        if self.failed > len(self.failures):
            lines.append(f"  ... and {self.failed - len(self.failures)} more")
        return "\n".join(lines)


_MAX_RECORDED_FAILURES = 64

#: Widest register the branch engine keys: a basis state is one uint64
#: key and the all-ones key is the dead-branch sentinel.
_MAX_QUBITS = 63

#: Inputs per engine run.  No input's branches depend on another's, so a
#: sweep runs in chunks of this many with the same results, and its memory
#: is bounded by the chunk rather than by the 2^k inputs.
_CHUNK = 1 << 14


def swept_qubits(circ: Circuit) -> tuple[int, ...]:
    """The qubits a verifier enumerates: all but the clean ancillas."""
    return tuple(q for q, r in enumerate(circ.roles) if r is not QubitRole.CLEAN_ANCILLA)


def _check_width(circ: Circuit) -> None:
    # Before any input is drawn: the swept bits are a subset of the
    # register, so this also bounds them, and a sweep of more than 64 bits
    # would otherwise fail inside numpy with a message naming no limit.
    if circ.num_qubits > _MAX_QUBITS:
        raise ValueError(
            f"verification supports at most {_MAX_QUBITS} qubits; "
            f"this register has {circ.num_qubits}"
        )


@lru_cache(maxsize=64)
def _draws(widths: tuple[int, ...], seed: int, sample_size: int) -> tuple[np.ndarray, ...]:
    """The seeded sample of _sweep, drawn once per (widths, seed,
    sample_size).  Read-only: _sweep hands out copies, since callers
    overwrite rows."""
    rng = np.random.default_rng(seed)
    draws = tuple(rng.integers(0, 1 << w, size=sample_size, dtype=np.uint64) for w in widths)
    for d in draws:
        d.flags.writeable = False
    return draws


def _sweep(
    widths: tuple[int, ...], cap: int, seed: int, sample_size: int
) -> tuple[list[np.ndarray], bool]:
    """Input values for groups of swept bits, one uint64 array per group,
    and whether they are a sample.

    Up to cap bits in all, every combination comes once, the first group
    most significant.  Beyond that, sample_size seeded draws per group;
    callers pin the first two rows, so sample_size must be at least 2.
    """
    if sample_size < 2:
        raise ValueError(f"sample_size must be at least 2, got {sample_size}")
    total = sum(widths)
    if total > cap:
        return [d.copy() for d in _draws(widths, seed, sample_size)], True
    index = np.arange(1 << total, dtype=np.uint64)
    values = []
    for w in widths:
        total -= w
        values.append((index >> np.uint64(total)) & np.uint64((1 << w) - 1))
    return values, False


def _amp_text(amp: complex) -> str:
    # Rounded first, then + 0.0: a part that prints as zero prints
    # 0.000000, never -0.000000, whatever the sign of its tiny residue.
    return f"{complex(round(amp.real, 6) + 0.0, round(amp.imag, 6) + 0.0):.6f}"


def _check_map(
    circ: Circuit, keys_in: np.ndarray, keys_exp: np.ndarray, sampled: bool, tolerance: float
) -> VerificationReport:
    n = circ.num_qubits
    failed = 0
    failures = []
    for i in range(0, len(keys_in), _CHUNK):
        ins, exp = keys_in[i : i + _CHUNK], keys_exp[i : i + _CHUNK]
        keys, amps = _run_branches(circ.gates, ins)
        if keys.shape[1] == 1:
            # Every input settled to one branch: the residue is exactly 0.
            main_key, main_amp = keys[:, 0], amps[:, 0]
            basis_ok = np.abs(main_amp - 1.0) <= tolerance
        else:
            mag = np.abs(amps)
            rows = np.arange(keys.shape[0])
            main = mag.argmax(axis=1)  # the lowest key on a tie
            main_key, main_amp = keys[rows, main], amps[rows, main]
            residue = mag.sum(axis=1) - mag[rows, main]
            basis_ok = (np.abs(main_amp - 1.0) <= tolerance) & (residue <= tolerance)
        bad = np.flatnonzero(~basis_ok | (main_key != exp))
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
        passed=failed == 0,
        total_checked=len(keys_in),
        failed=failed,
        failures=tuple(failures),
        sampled=sampled,
        tolerance=tolerance,
    )


def verify_transposition(
    circ: Circuit,
    spec: TranspositionSpec,
    *,
    seed: int = 0,
    sample_size: int = 64,
    tolerance: float = 1e-9,
    enumeration_cap: int | None = None,
) -> VerificationReport:
    """Check that circ swaps a and b on the data qubits, fixes every other
    data state, restores borrowed ancillas and returns clean ones to |0>.

    Data and borrowed bits are enumerated exhaustively when they fit under
    sim_cap(); otherwise a seeded sample of sample_size >= 2 inputs (always
    containing a and b, with borrowed bits zeroed) is used and the report
    says so.  enumeration_cap tightens the exhaustive/sampled switch below
    sim_cap(), for callers that check many circuits and can live with spot
    checks on wide registers.
    """
    _check_width(circ)
    data = circ.data_qubits()
    if len(data) != spec.n:
        raise ValueError(f"circuit has {len(data)} data qubits, spec wants {spec.n}")
    borrowed = tuple(q for q in swept_qubits(circ) if circ.roles[q] is not QubitRole.DATA)
    cap = sim_cap() if enumeration_cap is None else min(sim_cap(), enumeration_cap)
    (dvals, wvals), sampled = _sweep((len(data), len(borrowed)), cap, seed, sample_size)
    if sampled:
        dvals[0], wvals[0] = spec.a_int, 0
        dvals[1], wvals[1] = spec.b_int, 0
    a, b = np.uint64(spec.a_int), np.uint64(spec.b_int)
    mapped = np.where(dvals == a, b, np.where(dvals == b, a, dvals))
    if not borrowed and data == tuple(range(spec.n)):
        # Every deposit would be the identity.
        keys_in, keys_exp = dvals, mapped
    else:
        kept = _deposit(wvals, borrowed)
        keys_in = _deposit(dvals, data) | kept
        keys_exp = _deposit(mapped, data) | kept
    return _check_map(circ, keys_in, keys_exp, sampled, tolerance)


def verify_mcx(
    circ: Circuit,
    gate: Gate,
    *,
    seed: int = 0,
    sample_size: int = 64,
    tolerance: float = 1e-9,
) -> VerificationReport:
    """Check that circ acts as gate: it flips gate.target exactly when all
    of gate.controls are 1 and fixes everything else.  The ancilla contract
    comes from circ.roles: borrowed bits are swept over and must come
    back; clean bits start 0 and must return to 0."""
    _check_width(circ)
    if gate.kind not in PERMUTATION_KINDS or max(gate.qubits) >= circ.num_qubits:
        raise ValueError(f"{gate} is not a controlled X on the {circ.num_qubits}-qubit register")
    swept = swept_qubits(circ)
    (vals,), sampled = _sweep((len(swept),), sim_cap(), seed, sample_size)
    keys_in = _deposit(vals, swept)
    cmask = np.uint64(sum(1 << c for c in gate.controls))
    tbit = np.uint64(1 << gate.target)
    if sampled:
        # Make sure the firing configurations are present.
        keys_in[0] = cmask
        keys_in[1] = cmask | tbit
    fire = (keys_in & cmask) == cmask
    keys_exp = np.where(fire, keys_in ^ tbit, keys_in)
    return _check_map(circ, keys_in, keys_exp, sampled, tolerance)
