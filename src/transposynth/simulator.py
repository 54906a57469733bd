"""Simulators and behavioural verification.

Contains:
  * run_reversible   -- exact bit-twiddling run of X/CNOT/Toffoli/MCX
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

The verifiers share one input sweep and a batched sparse engine: every
basis input is a row holding a few (key, amplitude) branches,
permutation gates XOR bit masks into the keys, phase gates scale
amplitudes, and H splits each branch in two and then merges duplicates.
The circuits checked here keep the branch count tiny, so verifying all
inputs at once is a short sequence of vectorized passes instead of 2^n
separate simulations.
"""
from __future__ import annotations

import cmath
import math
import os
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


def run_reversible(circ: Circuit, state: str) -> str:
    """Propagate one basis label through a permutation-only circuit."""
    value = label_to_int(state, circ.num_qubits)
    for g in circ.gates:
        if g.kind not in PERMUTATION_KINDS:
            raise ValueError(f"{g.kind.value} is not a basis-state permutation")
        if all((value >> c) & 1 for c in g.controls):
            value ^= 1 << g.target
    return int_to_label(value, circ.num_qubits)


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


def _merge(keys: np.ndarray, amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    order = np.argsort(keys, axis=1, kind="stable")
    keys = np.take_along_axis(keys, order, axis=1)
    amps = np.take_along_axis(amps, order, axis=1)
    dup = keys[:, 1:] == keys[:, :-1]
    if dup.any():
        amps[:, :-1] += np.where(dup, amps[:, 1:], 0)
        amps[:, 1:] = np.where(dup, 0, amps[:, 1:])
    dead = np.abs(amps) < 1e-14
    amps[dead] = 0
    keys[dead] = _SENTINEL
    if keys.shape[1] > 1:
        order = np.argsort(keys, axis=1, kind="stable")
        keys = np.take_along_axis(keys, order, axis=1)
        amps = np.take_along_axis(amps, order, axis=1)
        width = max(int((amps != 0).sum(axis=1).max()), 1)
        keys = keys[:, :width].copy()
        amps = amps[:, :width].copy()
    return keys, amps


def _run_branches(gates: tuple[Gate, ...], inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    keys = inputs.astype(np.uint64).reshape(-1, 1)
    amps = np.ones_like(keys, dtype=np.complex128)
    for g in gates:
        tbit = np.uint64(1 << g.target)
        if g.kind is GateKind.H:
            live = amps != 0
            sign = np.where((keys & tbit) != 0, -1.0, 1.0)
            k_lo = np.where(live, keys & ~tbit, _SENTINEL)
            k_hi = np.where(live, keys | tbit, _SENTINEL)
            half = amps * _INV_SQRT2
            keys = np.concatenate([k_lo, k_hi], axis=1)
            amps = np.concatenate([half, half * sign], axis=1)
            keys, amps = _merge(keys, amps)
        elif g.kind in _PHASE:
            amps = np.where((keys & tbit) != 0, amps * _PHASE[g.kind], amps)
        else:
            cmask = 0
            for c in g.controls:
                cmask |= 1 << c
            cmask = np.uint64(cmask)
            fire = (keys & cmask) == cmask
            keys = np.where(fire, keys ^ tbit, keys)
    return _merge(keys, amps)


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
