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
from transposynth.ir import Circuit, Gate, GateKind, QubitRole, cnot, h
from transposynth.lowering import LoweringMode, lower_all_toffolis
from transposynth.mcx import McxStrategy, lower_mcx, lower_mcx_auto
from transposynth.peephole import remove_redundancies
from transposynth.transposition import SynthesisStrategy, _flag_circuit, projector_controlled_x


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
    # remove_redundancies on the pinned peephole corpus.
    "peephole": _peephole,
}


@pytest.mark.parametrize("group", sorted(_CORPUS))
def test_trusted_outputs_revalidate(group):
    for circ in _CORPUS[group]():
        _assert_revalidates(circ)


def test_flag_circuit_is_the_checked_construction():
    # _flag_circuit inlines projector_controlled_x without its checks.
    for n in range(1, 17):
        for spec in _specs(n):
            data = tuple(range(n))
            bitflips = [cnot(n, i) for i in spec.differing_bits()]
            gates = [h(n), *bitflips]
            gates += projector_controlled_x(spec.a, data, n)
            gates += projector_controlled_x(spec.b, data, n)
            gates += [*bitflips, h(n)]
            roles = (QubitRole.DATA,) * n + (QubitRole.CLEAN_ANCILLA,)
            assert _flag_circuit(spec) == Circuit(n + 1, roles, tuple(gates))


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
