"""A dense statevector simulator, the reference the tests hold the
verifier's branch engine and the rewrite passes to.

``run_statevector`` keeps a full 2^n amplitude vector and applies each
gate of the alphabet to it directly.  It takes from ``transposynth`` only
the IR (``transposynth.ir``), so it shares no simulation code with the
verifier it checks; a test guards that.  It holds 2^n complex amplitudes,
so tests run it on small registers only.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from transposynth.ir import Circuit, GateKind, label_to_int

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_PHASE = {
    GateKind.T: cmath.exp(0.25j * math.pi),
    GateKind.TDG: cmath.exp(-0.25j * math.pi),
    GateKind.S: 1j,
    GateKind.SDG: -1j,
}


def run_statevector(circ: Circuit, state: str | int | np.ndarray = 0) -> np.ndarray:
    """Dense simulation from a basis label, a basis index or a state
    vector."""
    n = circ.num_qubits
    dim = 1 << n
    if isinstance(state, np.ndarray):
        if state.shape != (dim,):
            raise ValueError(f"state vector must have shape ({dim},)")
        vec = state.astype(np.complex128)
    else:
        if isinstance(state, str):
            index = label_to_int(state, n)
        elif type(state) is int:
            index = state
        else:
            raise ValueError(f"state must be a label, an int index or a vector, got {state!r}")
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
            # Out of place, as in the verifier's engine, so the rounding
            # does not depend on the register width.
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
