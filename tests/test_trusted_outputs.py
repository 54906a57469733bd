"""The compile passes build gates and circuits with the trusted ir._gate
and ir._circuit, which skip validation.  Every value they return must
still pass it: rebuilding each gate with the public Gate gives the same
gate, and rebuilding each circuit with the public Circuit raises
nothing."""
import pytest
from hypothesis import given, settings

from test_gate_digests import (
    _builders,
    _gray_auto,
    _lowered_mcx,
    _peephole,
    _specs,
    _synthesis,
    _synthesized,
)
from test_rewrite_passes import _circuits
from transposynth.ir import Circuit, Gate, GateKind, QubitRole, circuit, cnot, h, inverse, mcx, x
from transposynth.lowering import LoweringMode, lower_all_toffolis
from transposynth.mcx import McxStrategy, lower_mcx, lower_mcx_auto
from transposynth.peephole import remove_redundancies
from transposynth.transposition import (
    SynthesisStrategy,
    _flag_circuit,
    synthesize_gray_code,
)


def _assert_revalidates(circ):
    for g in circ.gates:
        assert Gate(g.kind, g.controls, g.target) == g
    assert Circuit(circ.num_qubits, circ.roles, circ.gates) == circ


def _lowered():
    for strategy in (SynthesisStrategy.THM3_A, SynthesisStrategy.THM3_B):
        for circ in _synthesized(strategy):
            for mode in LoweringMode:
                yield lower_all_toffolis(circ, mode)


def _flag_circuits():
    for n in range(1, 17):
        for spec in _specs(n):
            yield _flag_circuit(spec)


def _inverses_and_concats():
    for circ in (*_synthesis(), *_peephole()):
        yield inverse(circ)
        yield circuit(circ.num_qubits, circ.gates + inverse(circ).gates, circ.roles)


_CORPUS = {
    # The unlowered flag circuits behind thm3_a/b, for the same specs.
    "flag_circuit": _flag_circuits,
    # Synthesis, every strategy, n=1..16; thm3_a/b end in lower_mcx.
    "synthesis": _synthesis,
    # lower_mcx: borrowed, single_clean and clean_ladder networks.
    "gray_auto": _gray_auto,
    "builders": _builders,
    "lowered_mcx": _lowered_mcx,
    # lower_all_toffolis in both modes.
    "lowering": _lowered,
    # remove_redundancies on the pinned peephole corpus, fused S/Sdg
    # included.
    "peephole": _peephole,
    # ir.inverse of the synthesis and peephole outputs, alone and after
    # the circuit itself.
    "inverse_concat": _inverses_and_concats,
}


@pytest.mark.parametrize("group", sorted(_CORPUS))
def test_trusted_outputs_revalidate(group):
    for circ in _CORPUS[group]():
        _assert_revalidates(circ)


def test_peephole_corpus_fuses_s_and_sdg():
    # The "peephole" group revalidates the fused gates only if it has some.
    kinds = {g.kind for circ in _peephole() for g in circ.gates}
    assert {GateKind.S, GateKind.SDG} <= kinds


def _checked_projector(pattern, controls, target):
    """X on target iff the controls read pattern, from the validating
    constructors: an MCX between X on each control whose bit is 0, or a
    bare X with no controls."""
    if not controls:
        return [x(target)]
    flips = [x(q) for q, bit in zip(controls, pattern) if bit == "0"]
    return flips + [mcx(controls, target)] + flips


def test_flag_circuit_is_the_checked_construction():
    # _flag_circuit builds its projectors unchecked, from the spec's ints.
    for n in range(1, 17):
        for spec in _specs(n):
            data = tuple(range(n))
            bitflips = [cnot(n, i) for i in spec.differing_bits()]
            gates = [h(n), *bitflips]
            gates += _checked_projector(spec.a, data, n)
            gates += _checked_projector(spec.b, data, n)
            gates += [*bitflips, h(n)]
            roles = (QubitRole.DATA,) * n + (QubitRole.CLEAN_ANCILLA,)
            assert _flag_circuit(spec) == Circuit(n + 1, roles, tuple(gates))


def test_gray_code_is_the_checked_construction():
    # synthesize_gray_code walks integer states with unchecked projectors;
    # here the walk steps through labels and _checked_projector.
    for n in range(1, 17):
        for spec in _specs(n):
            diffs = spec.differing_bits()
            states = [spec.a]
            for i in diffs[:-1]:
                prev = states[-1]
                states.append(prev[:i] + ("1" if prev[i] == "0" else "0") + prev[i + 1 :])
            blocks = []
            for state, bit in zip(states, diffs):
                controls = tuple(q for q in range(n) if q != bit)
                pattern = "".join(state[q] for q in controls)
                blocks.append(_checked_projector(pattern, controls, bit))
            blocks += reversed(blocks[:-1])
            expected = circuit(n, [g for block in blocks for g in block])
            assert synthesize_gray_code(spec) == expected


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(_circuits(max_qubits=8))
def test_random_pass_outputs_revalidate(circ):
    _assert_revalidates(remove_redundancies(circ))
    for strategy in McxStrategy:
        _assert_revalidates(lower_mcx(circ, strategy))
    toffoli_level = lower_mcx_auto(circ)
    for mode in LoweringMode:
        lowered = lower_all_toffolis(toffoli_level, mode)
        assert not any(g.kind is GateKind.TOFFOLI for g in lowered.gates)
        _assert_revalidates(lowered)
        _assert_revalidates(remove_redundancies(lowered))
