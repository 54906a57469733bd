import csv
import dataclasses
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transposynth import harness
from transposynth.harness import (
    BoundMode,
    StudyRow,
    TrialConfig,
    _CSV_COLUMNS,
    export_stats,
    lower_bound,
    run_count_study,
    sample_transpositions,
    to_markdown,
    transposition_family_size,
)
from transposynth.lowering import LoweringMode
from transposynth.transposition import SynthesisStrategy

B = SynthesisStrategy.THM3_B


def test_family_size():
    assert transposition_family_size(3) == 28
    assert transposition_family_size(4) == 120
    assert transposition_family_size(4, 2) == 48
    with pytest.raises(ValueError):
        transposition_family_size(4, 5)
    with pytest.raises(ValueError):
        transposition_family_size(0)


def test_sampling_is_deterministic_per_seed():
    one = sample_transpositions(8, 30, seed=42)
    two = sample_transpositions(8, 30, seed=42)
    other = sample_transpositions(8, 30, seed=43)
    assert one == two
    assert one != other


def test_sampling_streams_are_independent_per_n():
    # the stream is keyed on (seed, n): changing n reshuffles everything
    a = [s.a for s in sample_transpositions(9, 10, seed=1)]
    b = [s.a for s in sample_transpositions(10, 10, seed=1)]
    assert a != [bits[:9] for bits in b]


def test_sampling_draws_distinct_pairs():
    specs = sample_transpositions(5, 120, seed=0)
    pairs = {(s.a, s.b) for s in specs}
    assert len(pairs) == 120
    assert all(s.a_int < s.b_int for s in specs)


def test_sampling_respects_hamming_filter():
    for spec in sample_transpositions(6, 40, hamming_distance=3, seed=5):
        assert len(spec.differing_bits()) == 3


@pytest.mark.parametrize("distance", [None, 1, 7, 64])
def test_sampling_reaches_64_qubits(distance):
    specs = sample_transpositions(64, 25, hamming_distance=distance, seed=3)
    assert len({(s.a, s.b) for s in specs}) == 25
    assert all(s.n == 64 and s.a_int < s.b_int for s in specs)
    if distance is not None:
        assert {len(s.differing_bits()) for s in specs} == {distance}


def test_sampling_refuses_more_than_64_qubits():
    with pytest.raises(ValueError, match="64"):
        sample_transpositions(65, 3)


def test_small_population_returns_everything():
    specs = sample_transpositions(2, 50)
    assert len(specs) == transposition_family_size(2) == 6
    assert sample_transpositions(1, 10) == sample_transpositions(1, 99)


def test_exhaustive_mode_is_sorted_and_complete():
    specs = sample_transpositions(4, 10 ** 6, hamming_distance=2)
    assert len(specs) == 48
    keys = [(s.a_int, s.b_int) for s in specs]
    assert keys == sorted(keys)
    assert len(set(keys)) == 48


def test_sampling_validates_arguments():
    with pytest.raises(ValueError):
        sample_transpositions(4, 0)
    with pytest.raises(ValueError):
        sample_transpositions(4, 10, hamming_distance=0)


@pytest.mark.parametrize("args,kwargs", [
    ((3.0, 2), {}),
    ((True, 1), {}),  # used to fail on "Invalid format specifier '0Trueb'"
    ((4, 2.0), {}),  # used to be accepted
    ((4, True), {}),
    ((4, 3), {"hamming_distance": 2.0}),
    ((4, 3), {"seed": 1.5}),
    ((4, 3), {"seed": -1}),
])
def test_sampling_refuses_arguments_that_are_not_ints(args, kwargs):
    with pytest.raises(ValueError):
        sample_transpositions(*args, **kwargs)


def test_sampling_takes_seeds_that_fit_one_key_word():
    # A seed of 2^64 used to escape as numpy's OverflowError, so
    # `transposynth study --seed 18446744073709551616` exited 1 with a
    # traceback, the exit code of a failed verify.
    assert len(sample_transpositions(4, 3, seed=(1 << 64) - 1)) == 3
    with pytest.raises(ValueError, match=r"seed must be an int in 0\.\.18446744073709551615,"):
        sample_transpositions(4, 3, seed=1 << 64)


def test_family_size_refuses_arguments_that_are_not_ints():
    for args in [(3.0,), (True,), (4, 2.0), (4, True)]:
        with pytest.raises(ValueError):
            transposition_family_size(*args)


def test_fractional_trial_count_is_refused():
    # trials=2.5 used to run 3 trials.
    with pytest.raises(ValueError, match=r"^trials must be an int of at least 1, got 2\.5$"):
        run_count_study(TrialConfig((3,), B, trials=2.5))


@pytest.mark.parametrize("config, refusal", [
    (dict(n_values=tuple(range(2, 21)) + (65,), strategy=B, optimize=True),
     r"^n must be an int in 1\.\.64, got 65$"),
    (dict(n_values=(5, 2), strategy=B, hamming_distance=3, optimize=True),
     r"^hamming_distance must be an int in 1\.\.2, got 3$"),
    (dict(n_values=(3, 4), strategy="thm3_a", trials=2),
     r"^strategy must be a SynthesisStrategy, got 'thm3_a'$"),
], ids=["n-65-last", "distance-above-a-later-n", "strategy-str"])
def test_run_count_study_refuses_a_bad_row_before_any_trial(monkeypatch, config, refusal):
    # A row's sampling arguments used to be checked only when its trials
    # started, so every earlier row ran first: 3354 and 100 synthesize
    # calls, respectively.  The strategy was checked by the first
    # synthesize call, after n=3's transpositions were sampled.  Each is
    # now refused when the TrialConfig is made.
    calls = []

    def counting(name):
        wrapped = getattr(harness, name)

        def count(*args):
            calls.append(name)
            return wrapped(*args)

        monkeypatch.setattr(harness, name, count)

    counting("sample_transpositions")
    counting("synthesize_transposition")
    with pytest.raises(ValueError, match=refusal):
        run_count_study(TrialConfig(**config))
    assert calls == []


def test_a_config_is_checked_when_made():
    # Nothing checked a TrialConfig until run_count_study ran it, so
    # export_stats(StudyResult(TrialConfig((2,), "thm3_a"), ())) raised
    # AttributeError: 'str' object has no attribute 'value'.
    with pytest.raises(ValueError, match=r"^strategy must be a SynthesisStrategy, got 'thm3_a'$"):
        TrialConfig((2,), "thm3_a")
    # An empty n_values used to give a study of no rows, which
    # export_stats and to_markdown refuse.
    with pytest.raises(ValueError, match=r"^n_values must be a non-empty iterable of ints, got \(\)$"):
        TrialConfig((), B)
    config = TrialConfig(range(2, 5), B)
    assert config.n_values == (2, 3, 4)
    assert dataclasses.replace(config, hamming_distance=2).trials == 200


def test_export_and_markdown_refuse_anything_but_a_non_empty_tuple_of_rows(tmp_path):
    row = run_count_study(TrialConfig(n_values=(2,), strategy=B, trials=1))[0]
    for rows in [(), [row], (1,)]:
        for entry, args in [(to_markdown, ()), (export_stats, (tmp_path / "t.csv",))]:
            with pytest.raises(ValueError, match=r"^rows must be a non-empty tuple of StudyRow, "):
                entry(rows, *args)
    assert not list(tmp_path.iterdir())


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.data(), st.integers(1, 64), st.integers(1, 40), st.integers(0, 2 ** 32))
def test_sampled_pairs_are_distinct_ordered_and_at_the_asked_distance(data, n, count, seed):
    distance = data.draw(st.one_of(st.none(), st.integers(1, n)))
    specs = sample_transpositions(n, count, distance, seed)
    pairs = [(s.a_int, s.b_int) for s in specs]
    assert len(set(pairs)) == len(pairs)
    assert all(s.n == n and len(s.a) == len(s.b) == n and s.a_int < s.b_int for s in specs)
    if distance is not None:
        assert all(len(s.differing_bits()) == distance for s in specs)
    population = transposition_family_size(n, distance)
    if count >= population:
        assert len(pairs) == population and pairs == sorted(pairs)
    else:
        assert len(pairs) == count


def test_lower_bound_reference_value():
    worst = lower_bound(10, 3, 2, 1023, BoundMode.WORST)
    assert abs(worst - math.log2(1023) / math.log2(270)) < 1e-15
    assert round(worst, 3) == 1.238


def test_lower_bound_average_below_worst():
    for fam in (2, 100, 2 ** 40):
        assert lower_bound(12, 4, 3, fam, BoundMode.AVERAGE) <= lower_bound(
            12, 4, 3, fam, BoundMode.WORST
        )


def test_lower_bound_grows_with_family():
    small = lower_bound(n=8, d=2, c=2, family_size=100, mode=BoundMode.WORST)
    big = lower_bound(n=8, d=2, c=2, family_size=10000, mode=BoundMode.WORST)
    assert big > small


def test_lower_bound_validation():
    with pytest.raises(ValueError):
        lower_bound(n=4, d=2, c=5, family_size=10, mode=BoundMode.WORST)
    with pytest.raises(ValueError):
        lower_bound(n=4, d=2, c=2, family_size=0, mode=BoundMode.WORST)
    with pytest.raises(ValueError):
        lower_bound(n=4, d=2, c=2, family_size=1, mode=BoundMode.AVERAGE)
    with pytest.raises(ValueError):
        lower_bound(n=1, d=1, c=0, family_size=5, mode=BoundMode.WORST)


@pytest.mark.parametrize("mode", ["worst", "average", LoweringMode.NAIVE, None])
def test_lower_bound_refuses_a_mode_that_is_not_a_bound_mode(mode):
    # "worst" used to fall through to the average case: 0.896, not 1.921.
    args = (8, 4, 2, transposition_family_size(8))
    assert round(lower_bound(*args, BoundMode.WORST), 3) == 1.921
    assert round(lower_bound(*args, BoundMode.AVERAGE), 3) == 0.896
    with pytest.raises(ValueError, match="mode must be a BoundMode"):
        lower_bound(*args, mode)


@pytest.mark.parametrize("name, value", [
    ("n", 8.0),             # was TypeError from math.perm
    ("n", True),            # was accepted
    ("d", 4.5),             # was accepted
    ("c", 2.0),
    ("family_size", 100.5), # was accepted
])
def test_lower_bound_refuses_fields_that_are_not_ints(name, value):
    args = {"n": 8, "d": 4, "c": 2, "family_size": 100, name: value}
    with pytest.raises(ValueError, match=f"{name} must be an int"):
        lower_bound(**args, mode=BoundMode.WORST)


def test_trial_defaults():
    assert TrialConfig((4,), B).trials == 200
    assert TrialConfig((4,), B, hamming_distance=2).trials == 100
    assert TrialConfig((4,), B, trials=17).trials == 17


def test_study_row_contents():
    cfg = TrialConfig(n_values=(2, 3), strategy=B, trials=10, seed=3, optimize=True)
    rows = run_count_study(cfg)
    assert [r.n for r in rows] == [2, 3]
    r2 = rows[0]
    assert r2.trials == 6  # full population of n=2 pairs
    assert r2.strategy == "thm3_b"
    assert r2.avg_toffoli == 2.0
    assert r2.max_toffoli == 2
    assert r2.bound_toffoli == 2
    assert r2.bound_cnot == 4
    assert r2.verified_fraction == 1.0
    assert r2.seed == 3
    assert rows[1].avg_toffoli == 6.0


def test_study_gray_counts_at_toffoli_level():
    cfg = TrialConfig(n_values=(4,), strategy=SynthesisStrategy.GRAY_CODE, trials=8)
    row = run_count_study(cfg)[0]
    assert row.bound_toffoli is None
    assert row.avg_toffoli > 0  # MCX lowered before counting
    assert row.verified_fraction == 1.0


def test_study_with_lowering_leaves_no_toffolis():
    cfg = TrialConfig(n_values=(3,), strategy=B, trials=5,
                      lowering=LoweringMode.NAIVE)
    row = run_count_study(cfg)[0]
    assert row.max_toffoli == 0
    assert row.avg_t > 0
    assert row.verified_fraction == 1.0


def test_csv_round_trip(tmp_path):
    # Read as perfbench/workloads._parse_study_csv reads it: by column
    # name, over the lines that are not # comments.
    cfg = TrialConfig(n_values=(2, 4), strategy=B, trials=6, seed=9)
    rows = run_count_study(cfg)
    path = export_stats(rows, tmp_path / "rows.csv")
    text = path.read_text()
    assert text.startswith("# transposynth count study\n")
    assert "philox4x64" in text
    reader = csv.DictReader(line for line in text.splitlines() if not line.startswith("#"))
    records = list(reader)
    assert tuple(reader.fieldnames) == _CSV_COLUMNS
    assert len(records) == len(rows)
    for rec, row in zip(records, rows):
        # None (no Toffoli bound) is an empty cell.
        expected = {name: "" if value is None else str(value)
                    for name, value in dataclasses.asdict(row).items()}
        assert rec == expected
    assert path.with_suffix(".md").exists()


def test_export_refuses_a_csv_path_that_is_its_own_mirror(tmp_path):
    # The .md mirror of "t.md" is "t.md": writing it would replace the CSV.
    rows = run_count_study(TrialConfig(n_values=(2,), strategy=B, trials=5, seed=9))
    for name in ("t.md", "t.MD"):
        with pytest.raises(ValueError, match="mirror would overwrite"):
            export_stats(rows, tmp_path / name)
    assert not list(tmp_path.iterdir())


def test_export_that_cannot_write_its_mirror_leaves_no_csv(tmp_path, monkeypatch):
    # With t.md a directory, the CSV used to be written before the mirror
    # failed, so `transposynth study --out t.csv` left t.csv on exit 2.
    # That path is now refused before anything is written, and a mirror
    # write that fails still takes the CSV with it.
    rows = run_count_study(TrialConfig(n_values=(2,), strategy=B, trials=5, seed=9))
    (tmp_path / "t.md").mkdir()
    with pytest.raises(ValueError, match=r"its markdown mirror .*t\.md is a directory$"):
        export_stats(rows, tmp_path / "t.csv")
    assert [p.name for p in tmp_path.iterdir()] == ["t.md"]
    write_text = Path.write_text

    def mirror_fails(path, *args, **kwargs):
        if path.suffix == ".md":
            raise OSError("no space left for the mirror")
        return write_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", mirror_fails)
    with pytest.raises(OSError, match="no space left for the mirror"):
        export_stats(rows, tmp_path / "u.csv")
    assert [p.name for p in tmp_path.iterdir()] == ["t.md"]


def test_default_filename_and_markdown(tmp_path, monkeypatch):
    cfg = TrialConfig(n_values=(2,), strategy=B, trials=5, seed=11)
    rows = run_count_study(cfg)
    monkeypatch.chdir(tmp_path)
    path = export_stats(rows)
    assert path == Path("study_thm3_b_11.csv")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["study_thm3_b_11.csv",
                                                          "study_thm3_b_11.md"]
    md = to_markdown(rows)
    assert md.splitlines()[0].startswith("| n | trials |")
    assert "| 2 |" in md
