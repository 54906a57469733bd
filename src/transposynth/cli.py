"""Command line front end.

Three subcommands:
  synth   synthesize one transposition, print or save the circuit
  verify  check a saved circuit against the transposition it claims
  study   sample many transpositions and tabulate gate counts

Exit codes (_EXIT_CODES, which --help prints): 0 on success, 1 only when
verify prints a FAIL report, 2 on bad usage, unusable input or a run out
of memory.  `verify` exits 2 when the circuit has more than 20 swept bits
(data plus borrowed qubits), the verifiers' exhaustive limit.  In the
library, the verifiers enumerate up to 20 swept bits (or their
enumeration_cap, if lower) and sample beyond that.  Nothing is read from
the environment.
"""
from __future__ import annotations

import argparse
import ctypes
import functools
import sys
from pathlib import Path

from .ir import GateKind, count_gates, from_text, to_qasm2, to_text
from .harness import TrialConfig, _markdown_path, export_stats, run_count_study, to_markdown
from .lowering import LoweringMode, lower_all_toffolis
from .mcx import lower_mcx_auto
from .peephole import remove_redundancies
from .simulator import _SIM_CAP, swept_qubits, verify_transposition
from .transposition import SynthesisStrategy, TranspositionSpec, synthesize_transposition

_STRATEGIES = [s.value for s in SynthesisStrategy]
_LOWERINGS = ["none"] + [m.value for m in LoweringMode]
_EXIT_CODES = f"""exit codes:
  0  success; verify: every checked input passed
  1  verify: the circuit fails the check (a FAIL report is printed)
  2  bad usage or unusable input, such as a circuit that cannot be read,
     or one with more than {_SIM_CAP} swept bits to verify; or the run
     ran out of memory
"""
# mallopt parameters, from glibc's malloc.h.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _steady_heap() -> None:
    """Fix glibc's malloc thresholds for this process: blocks up to 32 MiB
    come from the heap, and up to 64 MiB of free heap is kept.

    The verifier's branch engine allocates and frees arrays of 128 KiB and
    more at every H gate.  glibc's default thresholds move with what the
    process freed before, so each such array may be a fresh mmap, or a heap
    block whose pages were just handed back, and then its pages fault in
    again.  On the known-FAIL n=14 verify of the benchmark, that was 26 000
    to 36 000 page faults per call in a fresh process and about 500 after
    the benchmark's set-up; with these thresholds it is under 50 from the
    second call on.  No-op where the C library has no mallopt."""
    if sys.platform.startswith("linux"):
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
        if mallopt is not None:
            mallopt(_M_MMAP_THRESHOLD, 32 << 20)
            mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def _parse_n_range(text: str) -> range:
    # A range, not a tuple: TrialConfig refuses the first n out of
    # bounds, so --n 1..1000000000000 costs nothing before that refusal.
    lo, sep, hi = text.partition("..")
    try:
        lo_i = int(lo)
        hi_i = int(hi) if sep else lo_i
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N or LO..HI, got {text!r}") from None
    if hi_i < lo_i:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return range(lo_i, hi_i + 1)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transposynth",
        description="Synthesize, verify and benchmark basis-state transposition circuits.",
        epilog=_EXIT_CODES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="synthesize one transposition circuit")
    synth.add_argument("--n", type=int, required=True, help="number of data qubits")
    synth.add_argument("--a", required=True, help="first basis label (bit i = qubit i)")
    synth.add_argument("--b", required=True, help="second basis label")
    synth.add_argument("--strategy", choices=_STRATEGIES, default="thm3_b")
    synth.add_argument("--lower", choices=_LOWERINGS, default="none",
                       help="expand Toffolis (and any MCX) to H/T/S/CNOT")
    synth.add_argument("--optimize", action="store_true",
                       help="run redundancy removal after synthesis")
    synth.add_argument("--format", choices=["text", "qasm2"], default="text")
    synth.add_argument("--out", type=Path, help="write the circuit here instead of stdout")
    synth.set_defaults(func=_cmd_synth)

    verify = sub.add_parser("verify", help="verify a circuit file implements a swap")
    verify.add_argument("--circuit", type=Path, required=True, help="circuit in text format")
    verify.add_argument("--a", required=True)
    verify.add_argument("--b", required=True)
    verify.set_defaults(func=_cmd_verify)

    study = sub.add_parser("study", help="gate-count study over random transpositions")
    study.add_argument("--n", type=_parse_n_range, required=True, metavar="N|LO..HI")
    study.add_argument("--strategy", choices=_STRATEGIES, default="thm3_b")
    study.add_argument("--trials", type=int, default=None,
                       help="pairs per n (default 200, or 100 with --hamming)")
    study.add_argument("--seed", type=int, default=0)
    study.add_argument("--hamming", type=int, default=None,
                       help="restrict pairs to this Hamming distance")
    study.add_argument("--lower", choices=_LOWERINGS, default="none")
    study.add_argument("--optimize", action="store_true")
    study.add_argument("--out", type=Path, help="CSV path (default study_<strategy>_<seed>.csv)")
    study.set_defaults(func=_cmd_study)
    return parser


def _cmd_synth(args: argparse.Namespace) -> int:
    spec = TranspositionSpec(args.n, args.a, args.b)
    circ = synthesize_transposition(spec, SynthesisStrategy(args.strategy))
    if args.lower != "none":
        if any(g.kind is GateKind.MCX for g in circ.gates):
            circ = lower_mcx_auto(circ)
        circ = lower_all_toffolis(circ, LoweringMode(args.lower))
    if args.optimize:
        circ = remove_redundancies(circ)
    rendered = to_qasm2(circ) if args.format == "qasm2" else to_text(circ)
    summary = f"{count_gates(circ).summary()} qubits={circ.num_qubits}"
    if args.out:
        args.out.write_text(rendered)
        print(summary)
    else:
        sys.stdout.write(rendered)
        print(summary, file=sys.stderr)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    circ = from_text(args.circuit.read_text())
    spec = TranspositionSpec(len(args.a), args.a, args.b)
    swept = len(swept_qubits(circ))
    if swept > _SIM_CAP:
        print(f"error: {swept} qubits to enumerate exceeds the cap of {_SIM_CAP}", file=sys.stderr)
        return 2
    report = verify_transposition(circ, spec)
    print(report.to_text())
    return 0 if report.passed else 1


def _cmd_study(args: argparse.Namespace) -> int:
    config = TrialConfig(
        n_values=args.n,
        strategy=SynthesisStrategy(args.strategy),
        trials=args.trials,
        seed=args.seed,
        hamming_distance=args.hamming,
        lowering=None if args.lower == "none" else LoweringMode(args.lower),
        optimize=args.optimize,
    )
    if args.out is not None:
        _markdown_path(args.out)  # refused before the study runs, not after
    rows = run_count_study(config)
    path = export_stats(rows, args.out)
    sys.stdout.write(to_markdown(rows))
    print(f"wrote {path} and {_markdown_path(path)}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    _steady_heap()
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # Not exit 1: a script must not read "the checker could not run"
        # as "the circuit is wrong".
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
