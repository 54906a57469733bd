"""The benchmark's three workloads.

Each workload turns a seed into the argument lists of a few ``transposynth``
CLI invocations (its inputs), runs them in-process through
``transposynth.cli.main`` as one pass, and checks what the first pass
produced against known answers.  Later passes must reproduce the first
pass byte for byte.

Why these three: each loads a different layer, and two of them use the
same layer in opposite ways.

* paper_tables -- the paper's count tables, thousands of small circuits:
  per-call overhead of synthesis, peephole and a small verify each.
* compile_wide -- a few huge Clifford+T compiles: the quadratic peephole,
  lowering and emission; the verifier is never called.
* verify_exhaustive -- exhaustive verification of three saved circuits:
  the verifier in a few huge calls, with memory as the cost.

Labels for the last two come from the benchmark's own RNG (the program's
sampler raises at n >= 63).  The seed picks which qubits differ and which
agree at 0, but the shape is fixed (qubit 0 and n/2 - 1 others differ, a
alternates 0, 1 along them, n/4 others are 0 in both, the rest 1 in both)
so every seed compiles circuits of the same size and the count metrics
can carry a zero-width bound.  paper_tables runs the published study
configurations, whose own seeds are pinned, so its rows stay comparable
with the published columns bit for bit; the workload seed does not change
them.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import random
import re
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import published
import refcheck
from speed import Speedometer

COUNT_KEYS = ("gates_out", "t_out", "cnot_out", "toffoli_out")

KNOWN_DEFECTS = (
    "sample_transpositions raises at n >= 63 (int64 bound), so wide labels "
    "are drawn by the benchmark",
    "the verifier refuses registers over 63 qubits, so compile_wide outputs "
    "are checked by the benchmark's reference checker only",
    "the CLI verify command refuses more than 20 swept qubits "
    "(TRANSPOSYNTH_SIM_CAP), so verify_exhaustive stops at n=20 Toffoli-level "
    "and n=16 lowered",
)


@dataclass(frozen=True)
class Op:
    """One CLI invocation: its argv, the exit code it must return and the
    files it writes."""

    name: str
    argv: tuple[str, ...]
    expect_rc: int = 0
    outputs: tuple[Path, ...] = ()


@dataclass
class OpResult:
    op: Op
    rc: int | None
    stdout: str
    stderr: str
    seconds: float
    meter: Speedometer | None
    files: dict[str, str] = field(default_factory=dict)
    error: str | None = None

    def digest(self) -> str:
        h = hashlib.sha256(f"{self.rc}\0{self.stdout}".encode())
        for name in sorted(self.files):
            h.update(f"\0{name}\0{self.files[name]}".encode())
        return h.hexdigest()

    def problems(self) -> list[str]:
        if self.error:
            return [f"{self.op.name}: raised {self.error}"]
        if self.rc != self.op.expect_rc:
            return [f"{self.op.name}: exit code {self.rc}, expected {self.op.expect_rc}: "
                    f"{self.stderr.strip()[-300:]}"]
        return []


def invoke(op: Op, meter: Speedometer | None = None) -> OpResult:
    """Run one CLI command in-process; only the call itself is timed, with
    the machine's speed sampled into meter if one is given."""
    from transposynth import cli

    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    sampling = meter.running() if meter else contextlib.nullcontext()
    with sampling:
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(op.argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            error = traceback.format_exc(limit=4)
        seconds = perf_counter() - start
    files = {p.name: p.read_text() for p in op.outputs if p.exists()}
    return OpResult(op, rc, out.getvalue(), err.getvalue(), seconds, meter, files, error)


def draw_labels(rng: random.Random, n: int) -> tuple[str, str]:
    """Two n-bit labels of the fixed shape described in the module docstring."""
    others = list(range(1, n))
    rng.shuffle(others)
    diff = sorted([0] + others[: n // 2 - 1])
    both_zero = set(others[n // 2 - 1: n // 2 - 1 + n // 4])
    a, b = ["1"] * n, ["1"] * n
    for k, q in enumerate(diff):
        a[q], b[q] = ("0", "1") if k % 2 == 0 else ("1", "0")
    for q in both_zero:
        a[q] = b[q] = "0"
    return "".join(a), "".join(b)


def _cli_summary(stdout: str) -> dict[str, int]:
    return {k: int(v) for k, v in re.findall(r"(\w+)=(\d+)", stdout)}


def _circuit_counts(circuits) -> dict[str, int]:
    totals = dict.fromkeys(COUNT_KEYS, 0)
    for circ in circuits:
        c = circ.counts()
        totals["gates_out"] += c["total"]
        totals["t_out"] += c["t"]
        totals["cnot_out"] += c["cnot"]
        totals["toffoli_out"] += c["toffoli"]
    return totals


@dataclass
class Checked:
    """What the checks of a first pass found."""

    errors: dict[int, list[str]]   # op index -> problems
    counts: dict[str, int]         # COUNT_KEYS
    oracle_inputs: int = 0         # inputs the reference checker ran


class Workload:
    name = ""
    why = ""
    required_points: tuple[str, ...] = ()

    def setup(self, work: Path, seed: int) -> dict:
        """Generate the inputs (timed as set-up).  Returns a dict with at
        least "ops"; must be deterministic in seed."""
        raise NotImplementedError

    def check_inputs(self, inputs: dict, rng: random.Random) -> list[str]:
        """Untimed checks on the set-up products, before they are used."""
        return []

    def check_pass(self, inputs: dict, results: list[OpResult], rng: random.Random) -> Checked:
        """Check the first pass's outputs against known answers.  Exit codes
        and exceptions are reported by the caller."""
        raise NotImplementedError


def _parse_study_csv(text: str) -> list[dict]:
    rows = csv.DictReader(line for line in text.splitlines() if line and not line.startswith("#"))
    ints = {"n", "trials", "max_cnot", "max_toffoli", "bound_cnot", "seed"}
    out = []
    for rec in rows:
        row = {}
        for key, value in rec.items():
            if key == "strategy":
                row[key] = value
            elif key == "bound_toffoli":
                row[key] = int(value) if value else None
            else:
                row[key] = int(value) if key in ints else float(value)
        out.append(row)
    return out


class PaperTables(Workload):
    name = "paper_tables"
    why = ("the published 200-trial count tables (n=2..20, both strategies) and T-count "
           "datapoints through `study`: thousands of small synth+peephole+verify calls")
    required_points = (
        "transposynth.cli.run_count_study",
        "transposynth.cli.export_stats",
        "transposynth.harness.sample_transpositions",
        "transposynth.harness.synthesize_transposition",
        "transposynth.transposition.lower_mcx",
        "transposynth.harness.lower_all_toffolis",
        "transposynth.harness.remove_redundancies",
        "transposynth.harness.count_gates",
        "transposynth.harness.verify_transposition",
    )

    def setup(self, work: Path, seed: int) -> dict:
        work.mkdir(parents=True, exist_ok=True)
        ops = []
        for strategy in ("thm3_a", "thm3_b"):
            out = work / f"{strategy}.csv"
            ops.append(Op(
                f"table_{strategy}",
                ("study", "--n", f"{published.N_VALUES[0]}..{published.N_VALUES[-1]}",
                 "--strategy", strategy, "--trials", str(published.TRIALS),
                 "--seed", str(published.STUDY_SEED[strategy]), "--optimize", "--out", str(out)),
                outputs=(out, out.with_suffix(".md")),
            ))
        for strategy in ("thm3_a", "thm3_b"):
            out = work / f"t_count_{strategy}.csv"
            ops.append(Op(
                f"t_count_{strategy}",
                ("study", "--n", str(published.T_COUNT_N), "--hamming", str(published.T_COUNT_HAMMING),
                 "--strategy", strategy, "--lower", "naive",
                 "--seed", str(published.T_COUNT_SEED), "--out", str(out)),
                outputs=(out, out.with_suffix(".md")),
            ))
        return {"ops": ops}

    def check_pass(self, inputs, results, rng) -> Checked:
        errors: dict[int, list[str]] = {}
        counts = dict.fromkeys(COUNT_KEYS, 0)
        for i, res in enumerate(results):
            problems = []
            csv_name = res.op.outputs[0].name
            if not res.problems():
                rows = _parse_study_csv(res.files.get(csv_name, ""))
                strategy = res.op.argv[res.op.argv.index("--strategy") + 1]
                if res.op.name.startswith("table_"):
                    if [r["n"] for r in rows] != list(published.N_VALUES):
                        problems.append(f"{res.op.name}: rows for n={[r['n'] for r in rows]}")
                    else:
                        for row in rows:
                            problems += published.table_row_errors(strategy, row)
                elif len(rows) != 1:
                    problems.append(f"{res.op.name}: {len(rows)} rows")
                else:
                    problems += published.t_count_row_errors(strategy, rows[0])
                for row in rows:
                    per_kind = {k: row[f"avg_{k}"] * row["trials"] for k in ("cnot", "toffoli", "t", "x", "h")}
                    if any(abs(v - round(v)) > 1e-6 for v in per_kind.values()):
                        problems.append(f"{res.op.name} n={row['n']}: averages are not whole totals")
                    counts["gates_out"] += sum(round(v) for v in per_kind.values())
                    counts["t_out"] += round(per_kind["t"])
                    counts["cnot_out"] += round(per_kind["cnot"])
                    counts["toffoli_out"] += round(per_kind["toffoli"])
            if problems:
                errors[i] = problems
        return Checked(errors, counts)


class CompileWide(Workload):
    name = "compile_wide"
    why = ("a few huge lowered+optimized compiles through `synth` (thm3 n=200/400, gray n=24 "
           "with MCX auto-lowering, naive and inverse-aware): peephole, lowering and emission, no verifier")
    # (strategy, n, lowering, format).  The Toffoli-level text case keeps a
    # Toffoli count in this workload's outputs.
    CASES = (
        ("thm3_b", 400, "inverse_aware", "qasm2"),
        ("thm3_a", 200, "inverse_aware", "qasm2"),
        ("thm3_b", 200, "naive", "qasm2"),
        ("gray", 24, "inverse_aware", "qasm2"),
        ("thm3_a", 400, "none", "text"),
    )
    required_points = (
        "transposynth.cli.synthesize_transposition",
        "transposynth.transposition.lower_mcx",
        "transposynth.cli.lower_mcx_auto",
        "transposynth.cli.lower_all_toffolis",
        "transposynth.cli.remove_redundancies",
        "transposynth.cli.count_gates",
        "transposynth.cli.to_qasm2",
        "transposynth.cli.to_text",
    )

    def setup(self, work: Path, seed: int) -> dict:
        work.mkdir(parents=True, exist_ok=True)
        rng = random.Random(seed)
        ops, labels = [], []
        for strategy, n, lowering, fmt in self.CASES:
            a, b = draw_labels(rng, n)
            out = work / f"{strategy}_{n}_{lowering}.{'qasm' if fmt == 'qasm2' else 'txt'}"
            ops.append(Op(
                f"{strategy}_n{n}_{lowering}",
                ("synth", "--n", str(n), "--a", a, "--b", b, "--strategy", strategy,
                 "--lower", lowering, "--optimize", "--format", fmt, "--out", str(out)),
                outputs=(out,),
            ))
            labels.append((a, b))
        return {"ops": ops, "labels": labels}

    def check_pass(self, inputs, results, rng) -> Checked:
        errors: dict[int, list[str]] = {}
        circuits = []
        oracle_inputs = 0
        for i, (res, (strategy, n, lowering, fmt), (a, b)) in enumerate(
            zip(results, self.CASES, inputs["labels"])
        ):
            problems = []
            if not res.problems():
                text = res.files[res.op.outputs[0].name]
                if fmt == "qasm2":
                    circ = refcheck.parse_qasm(text, n, "borrowed" if strategy == "gray" else "clean")
                else:
                    circ = refcheck.parse_text(text)
                circuits.append(circ)
                counts = circ.counts()
                summary = _cli_summary(res.stdout)
                want = {**counts, "qubits": circ.num_qubits}
                if summary != want:
                    problems.append(f"{res.op.name}: CLI summary {summary} != reference {want}")
                if lowering == "none" and not (counts["toffoli"] <= 12 * n - 36 and counts["cnot"] <= 2 * n):
                    problems.append(f"{res.op.name}: counts {counts} break the 12n-36 / 2n bounds")
                check = refcheck.check_transposition(circ, a, b, rng)
                oracle_inputs += check.inputs
                problems += [f"{res.op.name}: {f}" for f in check.failures]
                if i == 0:
                    caught, index = refcheck.mutation_caught(circ, a, b, rng)
                    if not caught:
                        problems.append(f"{res.op.name}: reference checker missed deleted T gate {index}")
            if problems:
                errors[i] = problems
        return Checked(errors, _circuit_counts(circuits), oracle_inputs)


class VerifyExhaustive(Workload):
    name = "verify_exhaustive"
    why = ("exhaustive `verify` of saved circuits: thm3_a n=20 Toffoli-level (2^20 inputs), "
           "thm3_b n=16 lowered+optimized (2^16 with H branching) and a known-FAIL n=14")
    # (n, strategy, lowering, known-FAIL)
    CASES = (
        (20, "thm3_a", "none", False),
        (16, "thm3_b", "inverse_aware", False),
        (14, "thm3_b", "inverse_aware", True),
    )
    required_points = (
        "transposynth.cli.from_text",
        "transposynth.cli.verify_transposition",
    )

    def setup(self, work: Path, seed: int) -> dict:
        work.mkdir(parents=True, exist_ok=True)
        rng = random.Random(seed)
        ops, labels, texts = [], [], []
        for n, strategy, lowering, broken in self.CASES:
            a, b = draw_labels(rng, n)
            path = work / f"{strategy}_n{n}_{lowering}{'_broken' if broken else ''}.txt"
            synth = Op("synth", ("synth", "--n", str(n), "--a", a, "--b", b, "--strategy", strategy,
                                 "--lower", lowering, "--optimize", "--out", str(path)),
                       outputs=(path,))
            made = invoke(synth)
            if made.problems():
                raise RuntimeError(f"set-up failed: {made.problems()}")
            text = made.files[path.name]
            if broken:
                text += "X 0\n"
                path.write_text(text)
            ops.append(Op(f"verify_n{n}{'_fail' if broken else ''}",
                          ("verify", "--circuit", str(path), "--a", a, "--b", b),
                          expect_rc=1 if broken else 0))
            labels.append((a, b))
            texts.append(text)
        return {"ops": ops, "labels": labels, "texts": texts}

    def check_inputs(self, inputs, rng) -> list[str]:
        problems = []
        for (n, strategy, _, broken), (a, b), text in zip(self.CASES, inputs["labels"], inputs["texts"]):
            circ = refcheck.parse_text(text)
            if refcheck.check_transposition(circ, a, b, rng).passed == broken:
                problems.append(f"reference checker: {strategy} n={n} input should "
                                f"{'fail' if broken else 'pass'}")
            if n == 16:
                caught, index = refcheck.mutation_caught(circ, a, b, rng)
                if not caught:
                    problems.append(f"reference checker missed deleted T gate {index}")
        return problems

    def check_pass(self, inputs, results, rng) -> Checked:
        errors: dict[int, list[str]] = {}
        for i, (res, (n, _, _, broken)) in enumerate(zip(results, self.CASES)):
            problems = []
            total = 1 << n
            want = f"FAIL: 0/{total} " if broken else f"PASS: {total}/{total} "
            if not res.problems() and not res.stdout.startswith(want + "basis states (exhaustive"):
                problems.append(f"{res.op.name}: verdict {res.stdout.splitlines()[:1]}, expected {want!r}")
            if problems:
                errors[i] = problems
        circuits = [refcheck.parse_text(t) for t in inputs["texts"]]
        return Checked(errors, _circuit_counts(circuits))


WORKLOADS = {w.name: w for w in (PaperTables(), CompileWide(), VerifyExhaustive())}
