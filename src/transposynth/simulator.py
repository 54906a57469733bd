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
every basis input at once as a few (key, amplitude) branches:

  * Between two H gates, a stretch of permutation and phase gates runs on
    bit planes: one packed bit array per touched qubit over all branch
    keys, so a Toffoli is p[t] ^= p[c1] & p[c2] on 64 keys per word and a
    phase gate scales the amplitudes its target's plane selects.  Only the
    planes a stretch changed are unpacked back into the keys.
  * H splits each branch into its target-bit-clear and -set halves.  Only
    branches of one input whose keys differ in exactly the target bit can
    meet, so a pairwise XOR compare of the few branch slots finds every
    merge without sorting; dead branches (|amplitude| < 1e-14) are dropped.
  * One stable key sort at the end puts each input's live branches in
    ascending key order, the order the reports read them in.

The merge reproduces a stable-sort merge's arithmetic exactly (the
amplitudes agree bit for bit, zero signs included).  The circuits checked
here keep the branch count tiny, so verifying all inputs at once is a
short sequence of vectorized passes instead of 2^n separate simulations.
"""
from __future__ import annotations

import cmath
import math
import os
import sys
from dataclasses import dataclass

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
        elif g.kind in _PHASE:
            v = vec.reshape(-1, 2, 1 << g.target)
            v[:, 1, :] *= _PHASE[g.kind]
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

#: Byte of a uint64 key that holds bit q is column _BYTE(q) of its uint8 view.
_BYTE = (lambda q: q >> 3) if sys.byteorder == "little" else (lambda q: 7 - (q >> 3))


def _run_planes(gates: tuple[Gate, ...], keys: np.ndarray, amps: np.ndarray) -> None:
    """Apply a stretch of permutation and phase gates in place.

    The keys are bit-sliced: one packed plane per touched qubit over all
    w*R keys, so a Toffoli is p[t] ^= p[c1] & p[c2] over w*R/8 bytes.  A
    phase gate scales the amplitudes its target's plane selects.  Only the
    planes the stretch changed are written back into the keys."""
    if not gates:
        return
    count = keys.size
    kb = keys.reshape(-1).view(np.uint8).reshape(count, 8)
    flat = amps.reshape(-1)
    planes = {
        q: np.packbits(kb[:, _BYTE(q)] & (1 << (q & 7)), bitorder="little")
        for q in {q for g in gates for q in g.qubits}
    }
    before = {}
    for g in gates:
        p = planes[g.target]
        if g.kind in _PHASE:
            mask = np.unpackbits(p, count=count, bitorder="little").view(bool)
            np.multiply(flat, _PHASE[g.kind], out=flat, where=mask)
            continue
        if g.target not in before:
            before[g.target] = p.copy()
        if not g.controls:
            np.invert(p, out=p)
            continue
        fire = planes[g.controls[0]]
        for c in g.controls[1:]:
            fire = fire & planes[c]
        p ^= fire
    for q, old in before.items():
        old ^= planes[q]
        bits = np.unpackbits(old, count=count, bitorder="little")
        kb[:, _BYTE(q)] ^= bits << (q & 7)


def _add_zero_except_top(amps: np.ndarray, keys: np.ndarray, full: np.ndarray) -> None:
    """amps += 0, except at the largest key of each input marked full.

    A stable-sort merge adds 0 (a +0 onto every -0 part) to every slot but
    the last of each input whenever some input holds a duplicate key.  The
    last is the largest key when the input has no dead slot; otherwise it
    is dead.  Reproducing this keeps zero signs, and so report text, equal."""
    top = np.zeros(keys.shape[1], dtype=np.intp)
    best = keys[0].copy()
    for s in range(1, keys.shape[0]):
        top[keys[s] > best] = s
        np.maximum(best, keys[s], out=best)
    cols = np.flatnonzero(full)
    top = top[cols]
    kept = amps[top, cols]
    amps += 0
    amps[top, cols] = kept


def _live_counts(live: np.ndarray) -> np.ndarray:
    counts = np.zeros(live.shape[1], dtype=np.intp)
    for row in live:
        counts += row
    return counts


def _hadamard(keys: np.ndarray, amps: np.ndarray, target: int) -> tuple[np.ndarray, np.ndarray]:
    """Split every live branch into lo (target bit clear) and hi (set)
    halves and merge equal keys, without sorting.

    Two halves can only share a key when they come from live slots i < j of
    one input whose keys differ exactly in the target bit; then lo_i meets
    lo_j and hi_i meets hi_j, and slot i keeps both sums.  Comparing slot i
    with slot i + d for d = 1..w-1 finds every such pair.  The sums, the
    1e-14 dead threshold and the zero signs match a stable-sort merge's."""
    tbit = np.uint64(1 << target)
    width = keys.shape[0]
    live = amps != 0
    out_keys = np.empty((2 * width, keys.shape[1]), dtype=np.uint64)
    np.bitwise_and(keys, ~tbit, out=out_keys[:width])
    np.bitwise_or(keys, tbit, out=out_keys[width:])
    out = np.empty((2 * width, keys.shape[1]), dtype=np.complex128)
    lo, hi = out[:width], out[width:]
    np.multiply(amps, _INV_SQRT2, out=lo)
    np.multiply(lo, 1.0 - 2.0 * ((keys & tbit) != 0), out=hi)
    second = np.zeros(keys.shape, dtype=bool)
    sums = []
    for d in range(1, width):
        pair = (keys[:-d] ^ keys[d:]) == tbit
        pair &= live[:-d]
        pair &= live[d:]
        if pair.any():
            second[d:] |= pair
            sums.append((d, pair, lo[:-d] + lo[d:], hi[:-d] + hi[d:]))
    full = live.all(axis=0)
    if sums or not full.all():
        _add_zero_except_top(hi, out_keys[width:], full)
        lo += 0  # a lo key is never an input's largest
        for d, pair, lo_sum, hi_sum in sums:
            np.copyto(lo[:-d], lo_sum, where=pair)
            np.copyto(hi[:-d], hi_sum, where=pair)
    dead = np.abs(out) < 1e-14
    dead[:width] |= second
    dead[width:] |= second
    return _compact(out_keys, out, ~dead)


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
    """The closing merge, as a stable-sort merge does it: the zero signs,
    the dead threshold, and per input one stable key sort that leaves the
    live branches in ascending key order and the dead ones (key all ones,
    amplitude 0) after them.  Returns (R, w) arrays, w the widest input's
    live count."""
    width = keys.shape[0]
    if width > 1:
        live = amps != 0
        counts = _live_counts(live)
        if (counts <= width - 2).any():
            # An input's dead slots share one key: a duplicate to a sorted merge.
            _add_zero_except_top(amps, keys, counts == width)
    dead = np.abs(amps) < 1e-14
    amps[dead] = 0
    keys[dead] = _SENTINEL
    keys, amps = keys.T, amps.T
    if width > 1:
        order = np.argsort(keys, axis=1, kind="stable")
        order = order[:, : max(int((width - _live_counts(dead)).max()), 1)]
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
    for i, g in enumerate(gates):
        if g.kind is GateKind.H:
            _run_planes(gates[start:i], keys, amps)
            keys, amps = _hadamard(keys, amps, g.target)
            start = i + 1
    _run_planes(gates[start:], keys, amps)
    return _settle(keys, amps)


def _deposit(values: np.ndarray, positions: tuple[int, ...]) -> np.ndarray:
    out = np.zeros_like(values, dtype=np.uint64)
    one = np.uint64(1)
    for j, pos in enumerate(positions):
        out |= ((values >> np.uint64(j)) & one) << np.uint64(pos)
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
        rng = np.random.default_rng(seed)
        draws = [rng.integers(0, 1 << w, size=sample_size, dtype=np.uint64) for w in widths]
        return draws, True
    index = np.arange(1 << total, dtype=np.uint64)
    values = []
    for w in widths:
        total -= w
        values.append((index >> np.uint64(total)) & np.uint64((1 << w) - 1))
    return values, False


def _check_map(
    circ: Circuit,
    keys_in: np.ndarray,
    keys_exp: np.ndarray,
    sampled: bool,
    tolerance: float,
) -> VerificationReport:
    keys, amps = _run_branches(circ.gates, keys_in)
    mag = np.abs(amps)
    rows = np.arange(keys.shape[0])
    main = mag.argmax(axis=1)
    main_amp = amps[rows, main]
    main_key = keys[rows, main]
    residue = mag.sum(axis=1) - mag[rows, main]
    basis_ok = (np.abs(main_amp - 1.0) <= tolerance) & (residue <= tolerance)
    ok = basis_ok & (main_key == keys_exp)
    bad = np.flatnonzero(~ok)
    n = circ.num_qubits
    failures = []
    for r in bad[:_MAX_RECORDED_FAILURES]:
        if basis_ok[r]:
            actual = int_to_label(int(main_key[r]), n)
        else:
            actual = f"non-basis state (leading amplitude {main_amp[r]:.6f})"
        failures.append(
            StateCheck(int_to_label(int(keys_in[r]), n), int_to_label(int(keys_exp[r]), n), actual)
        )
    return VerificationReport(
        passed=len(bad) == 0,
        total_checked=len(keys_in),
        failed=len(bad),
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
    keys_in = _deposit(dvals, data) | _deposit(wvals, borrowed)
    keys_exp = _deposit(mapped, data) | _deposit(wvals, borrowed)
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
