"""Acceptance gate: every shipping contract of the package, one test each.

Run `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion.  Tolerances and runtime budgets are pinned inline; the count
tables below are the published reference averages the studies must
reproduce (Toffoli exactly, CNOT within 15%).
"""
from __future__ import annotations

import math
import random
import time

import numpy as np
import pytest
from mpmath import mp

from oracle_statevector import run_statevector
from test_lowering import lowered_block
from transposynth.harness import (
    BoundMode,
    TrialConfig,
    lower_bound,
    run_count_study,
    sample_transpositions,
)
from transposynth.ir import GateKind, QubitRole, circuit, count_gates, mcx, toffoli, x
from transposynth.lowering import LoweringMode, ToffoliOrientation, lower_all_toffolis
from transposynth.mcx import McxStrategy, lower_mcx, lower_mcx_auto
from transposynth.peephole import remove_redundancies
from transposynth.simulator import verify_mcx, verify_transposition
from transposynth.transposition import (
    SynthesisStrategy,
    TranspositionSpec,
    synthesize_transposition,
)

# Reference averages over 200 random transpositions per n (n = 2..20).
AVG_TOFFOLI_A = (2, 6, 12, 24, 32, 48, 56, 72, 80, 96, 104, 120, 128,
                 144, 152, 168, 176, 192, 200)
AVG_CNOT_A = (2.60, 3.52, 4.10, 5.13, 6.10, 7.12, 8.33, 8.87, 10.09, 11.14,
              11.95, 12.66, 14.05, 14.78, 15.86, 17.03, 18.43, 18.39, 20.12)
AVG_CNOT_B = (2.64, 3.35, 4.18, 5.15, 6.10, 6.95, 8.05, 9.00, 10.36, 10.75,
              12.30, 13.09, 14.05, 15.02, 15.82, 16.55, 17.64, 19.24, 20.74)

# Exact Toffoli counts of the single_clean network for k = 3..12 controls.
SINGLE_CLEAN_TOFFOLIS = (3, 6, 12, 16, 24, 28, 36, 40, 48, 52)


def _mcx_networks(n: int):
    """Each strategy's n-control X on wires 0..n-1, target n, with its
    ancillas appended from n+1 up; name -> (circuit, gate, clean ancilla
    count)."""
    gate = mcx(tuple(range(n)), n)
    layouts = {
        "borrowed": (McxStrategy.BORROWED, 0),
        "single_clean": (McxStrategy.SINGLE_CLEAN, 1),
        "clean_ladder": (McxStrategy.CLEAN_LADDER, n - 2),
    }
    return {
        name: (lower_mcx(circuit(n + 1, [gate]), strategy), gate, clean)
        for name, (strategy, clean) in layouts.items()
    }


def test_criterion_01_mcx_oracle_equivalence():
    start = time.perf_counter()
    checked = 0
    for n in range(3, 9):
        for name, (circ, gate, clean) in _mcx_networks(n).items():
            report = verify_mcx(circ, gate)
            assert report.passed, f"{name} n={n}: {report.to_text()}"
            assert not report.sampled
            assert report.total_checked == 1 << (circ.num_qubits - clean)
            checked += report.total_checked
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"
    print(f"criterion  1 PASS: {checked} inputs across 18 circuits in {elapsed:.2f}s")


def test_criterion_02_exact_count_formulas():
    for n in range(3, 13):
        networks = _mcx_networks(n)
        for name, (circ, _, _) in networks.items():
            counts = count_gates(circ)
            assert counts.total == counts.toffoli, f"{name} n={n} emits non-Toffolis"
        got_b = count_gates(networks["borrowed"][0]).toffoli
        got_l = count_gates(networks["clean_ladder"][0]).toffoli
        got_s = count_gates(networks["single_clean"][0]).toffoli
        assert got_b == 4 * n - 8
        assert got_l == 2 * n - 3
        assert got_s == SINGLE_CLEAN_TOFFOLIS[n - 3]
        if n >= 5:
            assert got_s <= 6 * n - 18
    print("criterion  2 PASS: 4n-8 / 2n-3 / the single_clean table (<=6n-18) for n=3..12")


def test_criterion_03_golden_borrowed_circuit():
    # Interleaved layout x1 x2 a1 x3 a2 x4 x5 on wires 0..6.
    roles = [QubitRole.DATA] * 7
    roles[2] = roles[4] = QubitRole.BORROWED_ANCILLA
    circ = circuit(7, [mcx((0, 1, 3, 5), 6)], roles)
    half = [toffoli(4, 5, 6), toffoli(2, 3, 4), toffoli(0, 1, 2), toffoli(2, 3, 4)]
    assert list(lower_mcx(circ, McxStrategy.BORROWED).gates) == half + half
    print("criterion  3 PASS: n=4 borrowed ladder matches the 8-Toffoli golden sequence")


def test_criterion_04_transposition_semantics():
    start = time.perf_counter()
    circuits = 0
    for n in range(1, 11):
        for spec in sample_transpositions(n, 50, seed=11):
            for strategy in (SynthesisStrategy.THM3_A, SynthesisStrategy.THM3_B):
                circ = synthesize_transposition(spec, strategy)
                report = verify_transposition(circ, spec)
                assert report.passed, f"{strategy.value} {spec}: {report.to_text()}"
                assert not report.sampled
                assert report.total_checked == 1 << n
                circuits += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"semantic sweep took {elapsed:.1f}s"
    print(f"criterion  4 PASS: {circuits} circuits exhaustively verified in {elapsed:.1f}s")


def test_criterion_05_resource_caps():
    small_caps = {1: (4, 4, 0, 1), 2: (8, 4, 2, 1), 3: (12, 6, 6, 2)}
    for n in range(1, 13):
        for spec in sample_transpositions(n, 20, seed=9):
            for strategy in (SynthesisStrategy.THM3_A, SynthesisStrategy.THM3_B):
                circ = synthesize_transposition(spec, strategy)
                counts = count_gates(circ)
                clean = sum(r is QubitRole.CLEAN_ANCILLA for r in circ.roles)
                assert not any(r is QubitRole.BORROWED_ANCILLA for r in circ.roles)
                assert counts.h == 2
                assert counts.mcx == 0
                if n <= 3:
                    x_cap, cx_cap, tof_cap, anc = small_caps[n]
                    assert counts.x <= x_cap
                    assert counts.cnot <= cx_cap
                    assert counts.toffoli <= tof_cap
                    assert clean == anc
                else:
                    assert counts.x <= 4 * n
                    assert counts.cnot <= 2 * n
                    if strategy is SynthesisStrategy.THM3_A:
                        assert counts.toffoli <= 12 * n - 36
                        assert clean == 2
                    else:
                        assert counts.toffoli == 4 * n - 6
                        assert clean == n - 1
                assert count_gates(remove_redundancies(circ)).x <= 3 * n
    print("criterion  5 PASS: H/X/CNOT/Toffoli/ancilla caps hold for n=1..12, both strategies")


def test_criterion_06_table_reproduction_strategy_b():
    start = time.perf_counter()
    rows = run_count_study(
        TrialConfig(
            n_values=tuple(range(2, 21)),
            strategy=SynthesisStrategy.THM3_B,
            trials=200,
            seed=123,
            optimize=True,
        )
    )
    for row, col_a, col_b in zip(rows, AVG_CNOT_A, AVG_CNOT_B):
        n = row.n
        assert row.avg_toffoli == float(4 * n - 6), f"n={n}: {row.avg_toffoli}"
        assert abs(row.avg_cnot - col_a) <= 0.15 * col_a, f"n={n}: {row.avg_cnot} vs {col_a}"
        assert abs(row.avg_cnot - col_b) <= 0.15 * col_b, f"n={n}: {row.avg_cnot} vs {col_b}"
        assert row.bound_cnot == 2 * n
        assert row.bound_toffoli == 4 * n - 6
        assert row.verified_fraction == 1.0
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"study took {elapsed:.1f}s"
    print(f"criterion  6 PASS: avg Toffoli = 4n-6 exactly, CNOT within 15%, {elapsed:.1f}s")


def test_criterion_07_table_reproduction_strategy_a():
    rows = run_count_study(
        TrialConfig(
            n_values=tuple(range(2, 21)),
            strategy=SynthesisStrategy.THM3_A,
            trials=200,
            seed=321,
            optimize=True,
        )
    )
    worst_gap = 0.0
    for row, ref_tof, ref_cx in zip(rows, AVG_TOFFOLI_A, AVG_CNOT_A):
        n = row.n
        if n >= 4:
            assert row.avg_toffoli <= 12 * n - 36, f"n={n}: {row.avg_toffoli}"
        assert abs(row.avg_toffoli - ref_tof) <= 4.0, f"n={n}: {row.avg_toffoli} vs {ref_tof}"
        assert abs(row.avg_cnot - ref_cx) <= 0.15 * ref_cx
        assert row.verified_fraction == 1.0
        worst_gap = max(worst_gap, abs(row.avg_toffoli - ref_tof))
    print(f"criterion  7 PASS: avg Toffoli <= 12n-36 and within +-4 of the "
          f"reference column (worst gap {worst_gap})")


def test_criterion_08_t_count_datapoints():
    expected = {SynthesisStrategy.THM3_A: 84.0, SynthesisStrategy.THM3_B: 70.0}
    for strategy, want in expected.items():
        rows = run_count_study(
            TrialConfig(
                n_values=(4,),
                strategy=strategy,
                seed=5,
                hamming_distance=3,
                lowering=LoweringMode.NAIVE,
            )
        )
        row = rows[0]
        assert row.trials == 32  # full Hamming-3 population at n=4
        assert row.avg_t == want, f"{strategy.value}: {row.avg_t}"
        assert row.verified_fraction == 1.0
    print("criterion  8 PASS: naive-lowered avg T count is 84 (a) / 70 (b) exactly")


def test_criterion_09_inverse_aware_pair_saving():
    circ = circuit(4, [toffoli(0, 1, 2), x(3), toffoli(0, 1, 2)])
    lowered = lower_all_toffolis(circ, LoweringMode.INVERSE_AWARE)
    cleaned = remove_redundancies(lowered)
    counts = count_gates(cleaned)
    assert counts.cnot == 8, counts.summary()
    singles = counts.h + counts.t_type + counts.s_type
    assert singles == 12, counts.summary()
    assert counts.x == 1  # the bystander gate passes through untouched
    assert counts.toffoli == counts.mcx == 0
    print(f"criterion  9 PASS: pair lowering leaves {counts.cnot} CNOTs + "
          f"{singles} single-qubit gates ({counts.summary()})")


def _toffoli_matrix() -> np.ndarray:
    perm = list(range(8))
    perm[0b011], perm[0b111] = perm[0b111], perm[0b011]
    return np.eye(8)[:, perm]


def test_criterion_10_lowering_correctness():
    for orientation in ToffoliOrientation:
        gates = lowered_block(toffoli(0, 1, 2), orientation)
        got = np.column_stack(
            [run_statevector(circuit(3, gates), k) for k in range(8)]
        )
        assert np.max(np.abs(got - _toffoli_matrix())) <= 1e-9
    for strategy in (SynthesisStrategy.THM3_A, SynthesisStrategy.THM3_B,
                     SynthesisStrategy.GRAY_CODE):
        top = 6 if strategy is SynthesisStrategy.GRAY_CODE else 8
        for n in range(1, top + 1):
            for spec in sample_transpositions(n, 3, seed=77):
                circ = synthesize_transposition(spec, strategy)
                if any(g.kind is GateKind.MCX for g in circ.gates):
                    circ = lower_mcx_auto(circ)
                for mode in LoweringMode:
                    final = remove_redundancies(lower_all_toffolis(circ, mode))
                    report = verify_transposition(final, spec)
                    assert report.passed, (
                        f"{strategy.value}/{mode.value} {spec}: {report.to_text()}"
                    )
    print("criterion 10 PASS: both decompositions match the 8x8 Toffoli; "
          "lowered+optimized pipelines stay correct")


def test_criterion_11_lower_bound_against_mpmath():
    mp.dps = 60
    rng = random.Random(20260814)
    cases = 0
    while cases < 1000:
        n = rng.randint(1, 32)
        c = rng.randint(0, n)
        d = rng.randint(1, 16)
        if math.perm(n, c) * d < 2:
            continue
        family = rng.getrandbits(rng.randint(2, 256)) + 2
        args = (n, d, c, family)
        denom = mp.log(mp.factorial(n) / mp.factorial(n - c) * d)
        refs = {
            BoundMode.WORST: mp.log(family) / denom,
            BoundMode.AVERAGE: mp.mpf("0.5") * mp.log(mp.mpf(family) / 2) / denom,
        }
        for mode, ref in refs.items():
            mine = lower_bound(*args, mode)
            if ref == 0:
                assert abs(mine) < 1e-12
            else:
                assert abs(mine - float(ref)) / abs(float(ref)) < 1e-12, (
                    f"{args} {mode}: {mine} vs {ref}"
                )
        assert lower_bound(*args, BoundMode.AVERAGE) <= lower_bound(*args, BoundMode.WORST)
        cases += 1
    pinned = lower_bound(10, 3, 2, 1023, BoundMode.WORST)
    assert round(pinned, 6) == 1.237937
    print("criterion 11 PASS: 1000 random tuples match mpmath to rel err < 1e-12")


def test_criterion_12_enumeration_totals():
    totals = {(4, 1): 32, (4, 2): 48, (4, 3): 32, (4, 4): 8,
              (5, 1): 80, (5, 5): 16, (6, 6): 32, (7, 7): 64}
    for (n, d), want in totals.items():
        specs = sample_transpositions(n, 10 ** 6, hamming_distance=d)
        assert len(specs) == want, f"(n={n}, d={d}): {len(specs)}"
        assert len({(s.a, s.b) for s in specs}) == want
        assert all(len(s.differing_bits()) == d for s in specs)
    print("criterion 12 PASS: exhaustive enumeration totals match for all 8 (n, d) cells")
