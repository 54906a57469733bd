"""Reproducible gate-count studies over random transpositions.

Contains:
  * sample_transpositions -- seeded sampling of distinct (a, b) pairs,
    optionally restricted to a fixed Hamming distance; falls back to
    full enumeration when the population is no larger than the request
  * TrialConfig / run_count_study / StudyRow -- synthesize, optionally
    lower and optimize, count gates and verify, per n
  * lower_bound / BoundMode -- how many gates any scheme needs to tell
    apart a family of permutations
  * export_stats / to_markdown / parse_stats -- CSV with a comment
    header recording the PRNG, plus a markdown mirror

Randomness is Philox4x64 keyed with (seed, n), so each register size
draws an independent, platform-stable stream; pairs are drawn by
rejection until distinct.
"""
from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import astuple, dataclass, fields
from enum import Enum
from itertools import combinations
from pathlib import Path

import numpy as np

from .ir import _require, _require_int, count_gates, int_to_label
from .lowering import LoweringMode, lower_all_toffolis
from .mcx import lower_mcx_auto
from .peephole import remove_redundancies
from .simulator import verify_transposition
from .transposition import (
    SynthesisStrategy,
    TranspositionSpec,
    cnot_bound,
    synthesize_transposition,
    toffoli_bound,
)


class BoundMode(Enum):
    WORST = "worst"
    AVERAGE = "average"


def lower_bound(n: int, d: int, c: int, family_size: int, mode: BoundMode) -> float:
    """A counting argument: circuits of k gates, each chosen from d kinds
    and placed on one of perm(n, c) qubit tuples, must number at least
    family_size.  Returns the k that covers the family (worst case) or
    half of it from the halfway point (average case)."""
    _require("mode", mode, BoundMode)
    _require_int("n", n, 1)
    _require_int("d", d, 1)
    _require_int("c", c, 0, n)
    # The average case halves the family, so it needs at least 2.
    _require_int("family_size", family_size, 2 if mode is BoundMode.AVERAGE else 1)
    placements = math.perm(n, c) * d
    if placements <= 1:
        raise ValueError("fewer than two circuits per gate; bound is undefined")
    denom = math.log2(placements)
    if mode is BoundMode.WORST:
        return math.log2(family_size) / denom
    return 0.5 * (math.log2(family_size) - 1.0) / denom


def transposition_family_size(n: int, hamming_distance: int | None = None) -> int:
    """Distinct transpositions of n-bit states, optionally at fixed distance."""
    _require_int("n", n, 1)
    if hamming_distance is None:
        return (1 << (n - 1)) * ((1 << n) - 1)
    _require_int("hamming_distance", hamming_distance, 1, n)
    return (1 << (n - 1)) * math.comb(n, hamming_distance)


def _pair_spec(n: int, lo: int, hi: int) -> TranspositionSpec:
    return TranspositionSpec(n, int_to_label(lo, n), int_to_label(hi, n))


def _unrank_mask(rank: int, n: int, d: int) -> int:
    # Combinadic unranking of the rank-th weight-d mask.
    mask = 0
    pos = 0
    while d > 0:
        with_pos = math.comb(n - pos - 1, d - 1)
        if rank < with_pos:
            mask |= 1 << pos
            d -= 1
        else:
            rank -= with_pos
        pos += 1
    return mask


def _enumerate_pairs(n: int, hamming_distance: int | None) -> list[tuple[int, int]]:
    if hamming_distance is None:
        size = 1 << n
        return [(lo, hi) for lo in range(size) for hi in range(lo + 1, size)]
    masks = [sum(1 << q for q in combo) for combo in combinations(range(n), hamming_distance)]
    pairs = [(a, a ^ m) for a in range(1 << n) for m in masks if a < a ^ m]
    return sorted(pairs)


def _population(n: int, count: int, hamming_distance: int | None, seed: int) -> int:
    """Check sample_transpositions' arguments; return the family size."""
    _require_int("n", n, 1, 64)  # labels are drawn as uint64
    _require_int("count", count, 1)
    _require_int("seed", seed, 0, (1 << 64) - 1)  # a Philox key word
    return transposition_family_size(n, hamming_distance)


def sample_transpositions(
    n: int,
    count: int,
    hamming_distance: int | None = None,
    seed: int = 0,
) -> list[TranspositionSpec]:
    """Draw count distinct transpositions of n-bit states.

    Pairs are unordered and returned with the numerically smaller label
    first.  When the whole population is no larger than count, it is
    returned in full (sorted) instead of sampled.  Labels are drawn as
    one uint64 each, so n is at most 64.
    """
    population = _population(n, count, hamming_distance, seed)
    if population <= count:
        return [_pair_spec(n, lo, hi) for lo, hi in _enumerate_pairs(n, hamming_distance)]
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, n], dtype=np.uint64)))
    size = 1 << n
    n_masks = math.comb(n, hamming_distance) if hamming_distance else 0
    seen: set[tuple[int, int]] = set()
    out: list[TranspositionSpec] = []
    while len(out) < count:
        a = int(rng.integers(0, size, dtype=np.uint64))
        if hamming_distance is None:
            b = int(rng.integers(0, size - 1, dtype=np.uint64))
            if b >= a:
                b += 1
        else:
            b = a ^ _unrank_mask(
                int(rng.integers(0, n_masks, dtype=np.uint64)), n, hamming_distance
            )
        pair = (min(a, b), max(a, b))
        if pair in seen:
            continue
        seen.add(pair)
        out.append(_pair_spec(n, *pair))
    return out


#: Study verification enumerates every input of registers up to this many
#: swept bits and spot-checks wider ones on the verifier's seeded
#: 64-input sample, which keeps the n=20 end of a study from dominating
#: its runtime.
VERIFY_ENUMERATION_CAP = 12


@dataclass(frozen=True)
class TrialConfig:
    n_values: tuple[int, ...]
    strategy: SynthesisStrategy
    trials: int | None = None  # default 200, or 100 with a distance filter
    seed: int = 0
    hamming_distance: int | None = None
    lowering: LoweringMode | None = None
    optimize: bool = False

    def resolved_trials(self) -> int:
        if self.trials is not None:
            return self.trials
        return 100 if self.hamming_distance is not None else 200


@dataclass(frozen=True)
class StudyRow:
    n: int
    strategy: str
    trials: int
    avg_cnot: float
    max_cnot: int
    avg_toffoli: float
    max_toffoli: int
    avg_t: float
    avg_x: float
    avg_h: float
    bound_cnot: int
    bound_toffoli: int | None
    verified_fraction: float
    seed: int


@dataclass(frozen=True)
class StudyResult:
    config: TrialConfig
    rows: tuple[StudyRow, ...]


def _study_circuit(spec: TranspositionSpec, config: TrialConfig):
    circ = synthesize_transposition(spec, config.strategy)
    if config.strategy is SynthesisStrategy.GRAY_CODE:
        # Counted at Toffoli level like the others, borrowing ancillas.
        circ = lower_mcx_auto(circ)
    if config.lowering is not None:
        circ = lower_all_toffolis(circ, config.lowering)
    if config.optimize:
        circ = remove_redundancies(circ)
    return circ


def run_count_study(config: TrialConfig) -> StudyResult:
    _require("config", config, TrialConfig)
    # A str is iterable, but its characters are no n values.
    if isinstance(config.n_values, str) or not hasattr(config.n_values, "__iter__"):
        raise ValueError(f"n_values must be an iterable of ints, got {config.n_values!r}")
    if config.trials is not None:
        _require_int("trials", config.trials, 1)
    if config.lowering is not None:
        _require("lowering", config.lowering, LoweringMode)
    _require("optimize", config.optimize, bool)
    # Every row's sampling arguments are checked before the first trial,
    # so a bad n, hamming_distance or seed in any row is refused before
    # any work.  Each row's specs are drawn when its trials start, so one
    # row's specs are held at a time.
    n_values = tuple(config.n_values)
    trials, distance, seed = config.resolved_trials(), config.hamming_distance, config.seed
    for n in n_values:
        _population(n, trials, distance, seed)
    rows = []
    for n in n_values:
        samples = sample_transpositions(n, trials, distance, seed)
        tallies = []
        verified = 0
        for spec in samples:
            circ = _study_circuit(spec, config)
            tallies.append(count_gates(circ))
            report = verify_transposition(
                circ, spec, seed=seed, enumeration_cap=VERIFY_ENUMERATION_CAP
            )
            verified += report.passed
        k = len(samples)
        rows.append(
            StudyRow(
                n=n,
                strategy=config.strategy.value,
                trials=k,
                avg_cnot=sum(c.cnot for c in tallies) / k,
                max_cnot=max(c.cnot for c in tallies),
                avg_toffoli=sum(c.toffoli for c in tallies) / k,
                max_toffoli=max(c.toffoli for c in tallies),
                avg_t=sum(c.t_type for c in tallies) / k,
                avg_x=sum(c.x for c in tallies) / k,
                avg_h=sum(c.h for c in tallies) / k,
                bound_cnot=cnot_bound(n),
                bound_toffoli=toffoli_bound(config.strategy, n),
                verified_fraction=verified / k,
                seed=seed,
            )
        )
    return StudyResult(config=config, rows=tuple(rows))


# --- persistence ------------------------------------------------------------

_CSV_COLUMNS = tuple(f.name for f in fields(StudyRow))

# Field annotations are strings here (postponed evaluation).
_PARSE_FIELD = {
    "int": int,
    "float": float,
    "str": str,
    "int | None": lambda v: int(v) if v else None,
}


def default_stats_filename(config: TrialConfig) -> str:
    return f"study_{config.strategy.value}_{config.seed}.csv"


def _render_csv(result: StudyResult) -> str:
    buf = io.StringIO()
    buf.write("# transposynth count study\n")
    buf.write("# prng=philox4x64 key=(seed,n) log_base=2\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for r in result.rows:
        # None (no Toffoli bound) is written as an empty cell.
        writer.writerow(astuple(r))
    return buf.getvalue()


def parse_stats(text: str) -> list[StudyRow]:
    _require("text", text, str)
    content = [line for line in text.splitlines() if line and not line.startswith("#")]
    reader = csv.reader(content)
    header = next(reader, None)
    if header is None:
        raise ValueError("missing header row")
    if tuple(header) != _CSV_COLUMNS:
        raise ValueError(f"unexpected columns: {header}")
    rows = []
    for rec in reader:
        if len(rec) != len(_CSV_COLUMNS):
            raise ValueError(f"expected {len(_CSV_COLUMNS)} cells, got {rec}")
        cells = zip(fields(StudyRow), rec)
        rows.append(StudyRow(**{f.name: _PARSE_FIELD[f.type](v) for f, v in cells}))
    return rows


def to_markdown(result: StudyResult) -> str:
    _require("result", result, StudyResult)
    lines = [
        "| n | trials | avg CNOT | max CNOT | avg Toffoli | max Toffoli | avg T | avg X | avg H | bound CNOT | bound Toffoli | verified |",
        "|--:|-------:|---------:|---------:|------------:|------------:|------:|------:|------:|-----------:|--------------:|---------:|",
    ]
    for r in result.rows:
        bt = "-" if r.bound_toffoli is None else str(r.bound_toffoli)
        lines.append(
            f"| {r.n} | {r.trials} | {r.avg_cnot:.2f} | {r.max_cnot} "
            f"| {r.avg_toffoli:.2f} | {r.max_toffoli} | {r.avg_t:.2f} "
            f"| {r.avg_x:.2f} | {r.avg_h:.2f} | {r.bound_cnot} | {bt} "
            f"| {r.verified_fraction:.3f} |"
        )
    return "\n".join(lines) + "\n"


def _markdown_path(path: Path) -> Path:
    """The .md mirror export_stats writes beside the CSV at path.  A path
    ending in .md, in any case, would be its own mirror, so it is refused."""
    if path.suffix.lower() == ".md":
        raise ValueError(f"CSV path {path} ends in .md: its markdown mirror would overwrite it")
    return path.with_suffix(".md")


def export_stats(result: StudyResult, path: str | Path | None = None) -> Path:
    """Write the CSV (and a .md mirror next to it); returns the CSV path.
    When the mirror cannot be written, the CSV is removed again, so a
    failed export leaves neither file."""
    _require("result", result, StudyResult)
    if path is None:
        path = Path(default_stats_filename(result.config))
    _require("path", path, str | os.PathLike)
    path = Path(path)
    mirror = _markdown_path(path)
    path.write_text(_render_csv(result))
    try:
        mirror.write_text(to_markdown(result))
    except OSError:
        path.unlink()
        raise
    return path
