"""Reproducible gate-count studies over random transpositions.

Contains:
  * sample_transpositions -- seeded sampling of distinct (a, b) pairs,
    optionally restricted to a fixed Hamming distance; falls back to
    full enumeration when the population is no larger than the request
  * TrialConfig / run_count_study / StudyRow -- synthesize, optionally
    lower and optimize, count gates and verify, per n; a TrialConfig
    checks every field and every row's sampling arguments when made,
    and run_count_study returns a tuple of StudyRow
  * lower_bound / BoundMode -- how many gates any scheme needs to tell
    apart a family of permutations
  * export_stats / to_markdown -- CSV with a comment header recording
    the PRNG, plus a markdown mirror, of a non-empty tuple of StudyRow.
    No reader comes with them: read a study CSV with csv.DictReader
    over its lines that do not start with "#".

Randomness is Philox4x64 keyed with (seed, n), so each register size
draws an independent, platform-stable stream; pairs are drawn by
rejection until distinct.
"""
from __future__ import annotations

import csv
import io
import math
import os
from collections.abc import Iterable
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
    n_values: Iterable[int]  # stored as a tuple
    strategy: SynthesisStrategy
    trials: int | None = None  # stored as 200, or 100 with a distance filter
    seed: int = 0
    hamming_distance: int | None = None
    lowering: LoweringMode | None = None
    optimize: bool = False

    def __post_init__(self) -> None:
        # A str is iterable, but its characters are no n values.
        if isinstance(self.n_values, str) or not hasattr(self.n_values, "__iter__"):
            raise ValueError(f"n_values must be an iterable of ints, got {self.n_values!r}")
        _require("strategy", self.strategy, SynthesisStrategy)
        if self.trials is None:
            object.__setattr__(self, "trials", 200 if self.hamming_distance is None else 100)
        _require_int("trials", self.trials, 1)
        if self.lowering is not None:
            _require("lowering", self.lowering, LoweringMode)
        _require("optimize", self.optimize, bool)
        # Every row's sampling arguments are checked here, so a bad n,
        # hamming_distance or seed in any row is refused before any work.
        # Each n is checked as it is taken, so a long range is refused at
        # its first bad n, before the rest is held.
        n_values = []
        for n in self.n_values:
            _population(n, self.trials, self.hamming_distance, self.seed)
            n_values.append(n)
        if not n_values:
            raise ValueError(f"n_values must be a non-empty iterable of ints, got {self.n_values!r}")
        object.__setattr__(self, "n_values", tuple(n_values))


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


def run_count_study(config: TrialConfig) -> tuple[StudyRow, ...]:
    """One StudyRow per n of config, each row's specs drawn when its trials start."""
    _require("config", config, TrialConfig)
    rows = []
    for n in config.n_values:
        samples = sample_transpositions(n, config.trials, config.hamming_distance, config.seed)
        tallies = []
        verified = 0
        for spec in samples:
            circ = _study_circuit(spec, config)
            tallies.append(count_gates(circ))
            report = verify_transposition(
                circ, spec, seed=config.seed, enumeration_cap=VERIFY_ENUMERATION_CAP
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
                seed=config.seed,
            )
        )
    return tuple(rows)


# --- persistence ------------------------------------------------------------

_CSV_COLUMNS = tuple(f.name for f in fields(StudyRow))


def _require_rows(rows: tuple[StudyRow, ...]) -> None:
    if type(rows) is not tuple or not rows or any(type(r) is not StudyRow for r in rows):
        raise ValueError(f"rows must be a non-empty tuple of StudyRow, got {rows!r}")


def _render_csv(rows: tuple[StudyRow, ...]) -> str:
    buf = io.StringIO()
    buf.write("# transposynth count study\n")
    buf.write("# prng=philox4x64 key=(seed,n) log_base=2\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for r in rows:
        # None (no Toffoli bound) is written as an empty cell.
        writer.writerow(astuple(r))
    return buf.getvalue()


def to_markdown(rows: tuple[StudyRow, ...]) -> str:
    _require_rows(rows)
    lines = [
        "| n | trials | avg CNOT | max CNOT | avg Toffoli | max Toffoli | avg T | avg X | avg H | bound CNOT | bound Toffoli | verified |",
        "|--:|-------:|---------:|---------:|------------:|------------:|------:|------:|------:|-----------:|--------------:|---------:|",
    ]
    for r in rows:
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
    ending in .md, in any case, would be its own mirror, so it is refused,
    and so is a path that is a directory, whose parent is not one, or
    whose mirror is one: nothing is written to a path refused here."""
    if path.suffix.lower() == ".md":
        raise ValueError(f"CSV path {path} ends in .md: its markdown mirror would overwrite it")
    if path.is_dir():
        raise ValueError(f"CSV path {path} is a directory")
    if not path.parent.is_dir():
        raise ValueError(f"CSV path {path}: {path.parent} is not a directory")
    mirror = path.with_suffix(".md")
    if mirror.is_dir():
        raise ValueError(f"CSV path {path}: its markdown mirror {mirror} is a directory")
    return mirror


def export_stats(rows: tuple[StudyRow, ...], path: str | Path | None = None) -> Path:
    """Write the CSV (and a .md mirror next to it); returns the CSV path,
    study_<strategy>_<seed>.csv of the first row in the working directory
    by default.  When the mirror cannot be written, the CSV is removed
    again, so a failed export leaves neither file."""
    _require_rows(rows)
    if path is None:
        path = f"study_{rows[0].strategy}_{rows[0].seed}.csv"
    _require("path", path, str | os.PathLike)
    path = Path(path)
    mirror = _markdown_path(path)
    path.write_text(_render_csv(rows))
    try:
        mirror.write_text(to_markdown(rows))
    except OSError:
        path.unlink()
        raise
    return path
