"""Published count tables that the paper_tables workload must reproduce.

Source: the transposynth paper's 200-trial averages over random
transpositions for n = 2..20 (strategy thm3_a Toffoli and CNOT columns,
strategy thm3_b CNOT column) and its T-count datapoints after naive
Clifford+T lowering.  The tolerances and study seeds are the ones the
package pins as acceptance criteria 6, 7 and 8 (tests/test_acceptance.py);
they are copied here so the benchmark does not import the test suite.
"""
from __future__ import annotations

N_VALUES = tuple(range(2, 21))
TRIALS = 200

AVG_TOFFOLI_A = (2, 6, 12, 24, 32, 48, 56, 72, 80, 96, 104, 120, 128,
                 144, 152, 168, 176, 192, 200)
AVG_CNOT_A = (2.60, 3.52, 4.10, 5.13, 6.10, 7.12, 8.33, 8.87, 10.09, 11.14,
              11.95, 12.66, 14.05, 14.78, 15.86, 17.03, 18.43, 18.39, 20.12)
AVG_CNOT_B = (2.64, 3.35, 4.18, 5.15, 6.10, 6.95, 8.05, 9.00, 10.36, 10.75,
              12.30, 13.09, 14.05, 15.02, 15.82, 16.55, 17.64, 19.24, 20.74)
CNOT_REL_TOL = 0.15      # criteria 6 and 7: average CNOT within 15%
TOFFOLI_A_ABS_TOL = 4.0  # criterion 7: thm3_a average Toffoli within +-4

# Criterion 8: n = 4, Hamming distance 3 (all 32 pairs), naive lowering.
T_COUNT_N, T_COUNT_HAMMING, T_COUNT_PAIRS = 4, 3, 32
AVG_T = {"thm3_a": 84.0, "thm3_b": 70.0}

# Study seeds of criteria 7, 6 and 8, so every row is the published one.
STUDY_SEED = {"thm3_a": 321, "thm3_b": 123}
T_COUNT_SEED = 5


def _population(n: int) -> int:
    return (1 << (n - 1)) * ((1 << n) - 1)


def table_row_errors(strategy: str, row: dict) -> list[str]:
    """Everything wrong with one parsed 200-trial study row."""
    n = row["n"]
    i = N_VALUES.index(n)
    errors = []

    def need(ok: bool, what: str) -> None:
        if not ok:
            errors.append(f"{strategy} n={n}: {what}")

    need(row["trials"] == min(TRIALS, _population(n)), f"trials={row['trials']}")
    need(row["verified_fraction"] == 1.0, f"verified_fraction={row['verified_fraction']}")
    need(row["bound_cnot"] == 2 * n, f"bound_cnot={row['bound_cnot']}")
    need(row["max_cnot"] <= row["bound_cnot"], f"max_cnot={row['max_cnot']} over its bound")
    need(row["max_toffoli"] <= row["bound_toffoli"], f"max_toffoli={row['max_toffoli']} over its bound")
    cols = [AVG_CNOT_A] if strategy == "thm3_a" else [AVG_CNOT_A, AVG_CNOT_B]
    for col in cols:
        need(abs(row["avg_cnot"] - col[i]) <= CNOT_REL_TOL * col[i],
             f"avg_cnot={row['avg_cnot']} vs published {col[i]}")
    if strategy == "thm3_b":
        need(row["avg_toffoli"] == 4 * n - 6, f"avg_toffoli={row['avg_toffoli']} != 4n-6")
        need(row["bound_toffoli"] == 4 * n - 6, f"bound_toffoli={row['bound_toffoli']}")
    else:
        if n >= 4:
            need(row["avg_toffoli"] <= 12 * n - 36, f"avg_toffoli={row['avg_toffoli']} > 12n-36")
            need(row["bound_toffoli"] == 12 * n - 36, f"bound_toffoli={row['bound_toffoli']}")
        need(abs(row["avg_toffoli"] - AVG_TOFFOLI_A[i]) <= TOFFOLI_A_ABS_TOL,
             f"avg_toffoli={row['avg_toffoli']} vs published {AVG_TOFFOLI_A[i]}")
    return errors


def t_count_row_errors(strategy: str, row: dict) -> list[str]:
    errors = []
    if row["n"] != T_COUNT_N or row["trials"] != T_COUNT_PAIRS:
        errors.append(f"{strategy} T-count row: n={row['n']} trials={row['trials']}")
    if row["avg_t"] != AVG_T[strategy]:
        errors.append(f"{strategy} T-count row: avg_t={row['avg_t']} vs published {AVG_T[strategy]}")
    if row["verified_fraction"] != 1.0:
        errors.append(f"{strategy} T-count row: verified_fraction={row['verified_fraction']}")
    return errors
