"""Exit-code fuzz test of the command line.

Generated argv for `synth`, `verify` and `study` run through cli.main in
process.  Whatever the input, the command must exit 0, 1 or 2 (argparse's
SystemExit included); exit 1 only from a `verify` that prints a FAIL
report; no traceback on stderr; and no file written on exit 2.  Each
example's work is bounded (n at most 70, a few trials, gray lowered only
on narrow registers) so the whole module stays a few seconds long.
"""
import contextlib
import functools
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transposynth.cli import _LOWERINGS, _STRATEGIES, main
from transposynth.ir import circuit, to_text, x
from transposynth.lowering import LoweringMode, lower_all_toffolis
from transposynth.mcx import lower_mcx_auto
from transposynth.peephole import remove_redundancies
from transposynth.transposition import SynthesisStrategy, TranspositionSpec, synthesize_transposition

_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=80)

#: Values of the retired width knob; none of them may change an exit code.
_SIM_CAP_VALUES = st.sampled_from([None, "0", "-3", "zero", "4", "21", "200", str(10 ** 30)])


def _usually(draw, valid, invalid):
    """A draw from valid nine times in ten, else from invalid."""
    return draw(valid if draw(st.integers(0, 9)) else invalid)


def _label(draw, n, other=None):
    """A label for n wires other than other, or one of the wrong length or
    alphabet, or a string argparse reads as an option."""
    wrong = st.one_of(st.text("01", max_size=8), st.text("012x- ", max_size=8))
    right = st.text("01", min_size=max(n, 0), max_size=max(n, 0))
    return _usually(draw, right.filter(lambda v: v != other) if n > 0 else right, wrong)


def _out(draw, work, suffix):
    """--out and its path: a new file, or a path that must be refused, or
    one whose markdown mirror (a study's out.md) is a directory."""
    paths = [
        [],
        [str(work / f"out{suffix}")],
        [str(work / "out.md")],
        [str(work)],
        [str(work / "no" / f"out{suffix}")],
    ]
    kind = _usually(draw, st.integers(0, 1), st.integers(2, 5))
    if kind == 5:  # a new file, but a study cannot write its mirror
        (work / "out.md").mkdir()
        kind = 1
    return ["--out", *paths[kind]] if paths[kind] else []


def _check(argv, work, sim_cap):
    """Run main(argv) in work and check its exit code, output and files."""
    before = set(work.rglob("*"))
    stdout, stderr = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(work)
        if sim_cap is None:
            mp.delenv("TRANSPOSYNTH_SIM_CAP", raising=False)
        else:
            mp.setenv("TRANSPOSYNTH_SIM_CAP", sim_cap)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: usage errors and --help
                code = exc.code
    out, err, written = stdout.getvalue(), stderr.getvalue(), set(work.rglob("*")) - before
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 1:
        assert argv[0] == "verify" and out.startswith("FAIL: "), (argv, out)
    if code == 2:
        assert not written, (argv, written)
    if argv[0] == "verify" and len(argv[-1]) > 20:
        # Labels of more than 20 bits: the circuit has that many data
        # wires to sweep, or does not match them.  Either way the verify
        # is refused, whatever TRANSPOSYNTH_SIM_CAP holds.
        assert code == 2, (argv, sim_cap, out)


@st.composite
def _synth_argv(draw, work):
    strategy = draw(st.sampled_from(_STRATEGIES))
    lower = draw(st.sampled_from(_LOWERINGS))
    # A lowered gray circuit at n=70 has hundreds of thousands of gates.
    top = 12 if strategy == "gray" and lower != "none" else 70
    n = _usually(draw, st.integers(1, top), st.integers(-1, 0))
    a = _label(draw, n)
    argv = ["synth", "--n", str(n), "--a", a, "--b", _label(draw, n, a),
            "--strategy", strategy, "--lower", lower,
            "--format", draw(st.sampled_from(["text", "qasm2"]))]
    if draw(st.booleans()):
        argv.append("--optimize")
    return argv + _out(draw, work, ".txt")


@st.composite
def _study_argv(draw, work):
    strategy = draw(st.sampled_from(_STRATEGIES))
    lower = draw(st.sampled_from(_LOWERINGS))
    top = 16 if strategy == "gray" else 70
    lo = _usually(draw, st.integers(1, top), st.integers(-1, 0))
    hi = _usually(draw, st.integers(lo, min(lo + 2, top)), st.integers(lo - 2, lo - 1))
    n = _usually(draw, st.sampled_from([str(lo), f"{lo}..{hi}"]),
                 st.sampled_from([f"{lo}..", "x..3", "", "3..x"]))
    trials = _usually(draw, st.integers(1, 3), st.integers(-1, 0))
    # 2^64 is one past the widest Philox key word, and -1 below the least.
    seed = _usually(draw, st.sampled_from([0, 7, (1 << 64) - 1, 1 << 64]), st.just(-1))
    argv = ["study", "--n", n, "--strategy", strategy, "--lower", lower,
            "--trials", str(trials), "--seed", str(seed)]
    if draw(st.booleans()):
        hamming = _usually(draw, st.integers(1, max(lo, 1)), st.integers(-1, hi + 1))
        argv += ["--hamming", str(hamming)]
    if draw(st.booleans()):
        argv.append("--optimize")
    return argv + _out(draw, work, ".csv")


@functools.cache
def _gray_n21_text():
    spec = TranspositionSpec(21, "0" * 21, "1" * 21)
    return to_text(synthesize_transposition(spec, SynthesisStrategy.GRAY_CODE))


@st.composite
def _circuit_file(draw, work):
    """A path to verify, and the spec of the circuit it holds (or None)."""
    kind = _usually(
        draw,
        st.sampled_from(["good", "damaged", "mutated", "wide"]),
        st.sampled_from(["text", "binary", "directory", "missing"]),
    )
    path = work / "c.txt"
    if kind == "directory":
        return str(work), None
    if kind == "missing":
        return str(work / "absent.txt"), None
    if kind == "text":
        path.write_text(draw(st.text(max_size=200)))
        return str(path), None
    if kind == "binary":
        path.write_bytes(draw(st.binary(max_size=200)))
        return str(path), None
    if kind == "wide":
        path.write_text(_gray_n21_text())
        return str(path), TranspositionSpec(21, "0" * 21, "1" * 21)
    n = draw(st.integers(1, 7))
    a = draw(st.text("01", min_size=n, max_size=n))
    b = draw(st.text("01", min_size=n, max_size=n).filter(lambda b: b != a))
    spec = TranspositionSpec(n, a, b)
    strategy = draw(st.sampled_from(list(SynthesisStrategy)))
    circ = synthesize_transposition(spec, strategy)
    lowering = draw(st.sampled_from([None, *LoweringMode]))
    if lowering is not None:
        circ = lower_all_toffolis(lower_mcx_auto(circ), lowering)
    if draw(st.booleans()):
        circ = remove_redundancies(circ)
    if kind == "damaged" and circ.gates:
        drop = draw(st.integers(0, len(circ.gates) - 1))
        gates = circ.gates[:drop] + circ.gates[drop + 1:] + (x(draw(st.integers(0, n - 1))),)
        circ = circuit(circ.num_qubits, gates, circ.roles)
    lines = to_text(circ).splitlines()
    if kind == "mutated":
        # One token of one line replaced: a qubit outside the register, a
        # negative or huge count, a role or gate kind that does not exist.
        row = draw(st.integers(0, len(lines) - 1))
        tokens = lines[row].split() or [""]
        col = draw(st.integers(0, len(tokens) - 1))
        tokens[col] = draw(st.sampled_from(
            ["-1", "0", "99", str(10 ** 12), "1.5", "", "clean", "borrowed", "MCX", "NOPE"]
        ))
        lines[row] = " ".join(tokens)
    path.write_text("\n".join(lines) + "\n")
    return str(path), spec


@st.composite
def _verify_argv(draw, work):
    path, spec = draw(_circuit_file(work))
    if spec is not None and _usually(draw, st.just(True), st.just(False)):
        a, b = spec.a, spec.b
    else:
        n = spec.n if spec is not None else draw(st.integers(1, 8))
        a = _label(draw, n)
        b = _label(draw, n, a)
    return ["verify", "--circuit", path, "--a", a, "--b", b]


@pytest.mark.parametrize("command", [_synth_argv, _verify_argv, _study_argv])
@_SETTINGS
@given(data=st.data(), sim_cap=_SIM_CAP_VALUES)
def test_every_argv_exits_0_1_or_2(command, data, sim_cap):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        _check(data.draw(command(work)), work, sim_cap)

