"""The wire-indexed rewrite passes against their frozen forward-scan
oracles (tests/oracle_passes.py), gate for gate, and against the dense
simulator: no pass may change a circuit's unitary."""
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_passes
from transposynth.ir import Gate, GateKind, circuit, inverse_gate
from transposynth.lowering import LoweringMode, _pair_second_occurrences, lower_all_toffolis
from transposynth.mcx import lower_mcx_auto
from transposynth.peephole import remove_redundancies
from transposynth.simulator import run_statevector
from transposynth.transposition import (
    SynthesisStrategy,
    TranspositionSpec,
    synthesize_transposition,
)

#: Fewest qubits each kind acts on.
_MIN_QUBITS = {kind: 1 for kind in GateKind} | {
    GateKind.CNOT: 2,
    GateKind.TOFFOLI: 3,
    GateKind.MCX: 2,
}

@st.composite
def _circuits(draw, max_qubits, max_gates=80, with_mcx=True):
    """Random circuits over every kind.  About a quarter of the gates
    repeat an earlier gate or its inverse with the controls reshuffled, so
    that cancellations, fusions and blocked partners all come up."""
    width = draw(st.integers(1, max_qubits))
    kinds = [k for k in GateKind if _MIN_QUBITS[k] <= width and (with_mcx or k is not GateKind.MCX)]
    gates = []
    for _ in range(draw(st.integers(0, max_gates))):
        if gates and draw(st.integers(0, 3)) == 0:
            g = draw(st.sampled_from(gates))
            if draw(st.booleans()):
                g = inverse_gate(g)
            gates.append(Gate(g.kind, tuple(draw(st.permutations(g.controls))), g.target))
            continue
        kind = draw(st.sampled_from(kinds))
        size = draw(st.integers(2, width)) if kind is GateKind.MCX else _MIN_QUBITS[kind]
        qubits = draw(st.permutations(range(width)))[:size]
        gates.append(Gate(kind, tuple(qubits[:-1]), qubits[-1]))
    return circuit(width, gates)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_circuits(max_qubits=8))
def test_passes_match_forward_scan_oracle(circ):
    assert remove_redundancies(circ) == oracle_passes.remove_redundancies(circ)
    assert _pair_second_occurrences(circ) == oracle_passes._pair_second_occurrences(circ.gates)


def _wide_spec(n: int, seed: int) -> TranspositionSpec:
    rng = random.Random(seed)
    a = [rng.choice("01") for _ in range(n)]
    b = list(a)
    for q in rng.sample(range(n), n // 2):
        b[q] = "1" if a[q] == "0" else "0"
    return TranspositionSpec(n, "".join(a), "".join(b))


_FIXED = {
    # Wide enough that a quadratic scan shows, small enough for the oracle.
    "thm3_b_n200": lambda: synthesize_transposition(_wide_spec(200, 7), SynthesisStrategy.THM3_B),
    "gray_n12_auto": lambda: lower_mcx_auto(
        synthesize_transposition(_wide_spec(12, 3), SynthesisStrategy.GRAY_CODE)
    ),
}


@pytest.mark.parametrize("mode", list(LoweringMode))
@pytest.mark.parametrize("case", sorted(_FIXED))
def test_fixed_compiles_match_forward_scan_oracle(case, mode):
    circ = _FIXED[case]()
    assert _pair_second_occurrences(circ) == oracle_passes._pair_second_occurrences(circ.gates)
    lowered = lower_all_toffolis(circ, mode)
    optimized = remove_redundancies(lowered)
    assert optimized == oracle_passes.remove_redundancies(lowered)
    assert len(optimized) < len(lowered)


def _unitary(circ):
    return np.column_stack([run_statevector(circ, k) for k in range(1 << circ.num_qubits)])


_PASSES = {
    "peephole": remove_redundancies,
    "naive": lambda c: lower_all_toffolis(c, LoweringMode.NAIVE),
    "inverse_aware": lambda c: lower_all_toffolis(c, LoweringMode.INVERSE_AWARE),
}


@pytest.mark.parametrize("name", sorted(_PASSES))
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(data=st.data())
def test_rewrite_passes_preserve_the_unitary(name, data):
    # Lowering refuses MCX, so its inputs stop at Toffoli.
    circ = data.draw(_circuits(max_qubits=6, max_gates=40, with_mcx=name == "peephole"))
    got = _unitary(_PASSES[name](circ))
    assert np.abs(got - _unitary(circ)).max() < 1e-9
