import ast
import enum
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import transposynth


def _reexports():
    tree = ast.parse(Path(transposynth.__file__).read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"transposynth.{node.module}")
            for alias in node.names:
                yield module, alias.asname or alias.name


def test_reexports_are_the_submodule_objects():
    names = list(_reexports())
    assert names
    for module, name in names:
        assert getattr(transposynth, name) is getattr(module, name), name


#: Every name transposynth/__init__.py re-exports.  A name added to or
#: taken from the package shows up here, in the diff that does it.
_SURFACE = {
    "BoundMode", "Circuit", "Gate", "GateCounts", "GateKind", "LoweringMode",
    "McxStrategy", "QubitRole", "StudyRow",
    "SynthesisStrategy", "TranspositionSpec", "TrialConfig", "VerificationReport",
    "cnot_bound", "count_gates", "export_stats", "from_text",
    "int_to_label", "label_to_int", "lower_all_toffolis", "lower_bound", "lower_mcx",
    "remove_redundancies", "run_count_study", "sample_transpositions",
    "synthesize_transposition", "to_markdown", "to_qasm2", "to_text",
    "toffoli_bound", "transposition_family_size", "verify_mcx", "verify_transposition",
}


def test_the_package_surface_is_pinned():
    names = [name for _, name in _reexports()]
    assert len(names) == len(set(names))
    assert set(names) == _SURFACE


#: The parameter names of every re-exported callable but the enums, whose
#: signature is the standard library's value lookup and varies by Python
#: version.  A parameter added to or taken from an entry point shows up
#: here, as a name does in _SURFACE.
_SIGNATURES = {
    "Circuit": ("roles", "gates"),
    "Gate": ("kind", "controls", "target"),
    "GateCounts": ("h", "x", "cnot", "toffoli", "mcx", "t_type", "s_type"),
    "StudyRow": ("n", "strategy", "trials", "avg_cnot", "max_cnot", "avg_toffoli",
                 "max_toffoli", "avg_t", "avg_x", "avg_h", "bound_cnot", "bound_toffoli",
                 "verified_fraction", "seed"),
    "TranspositionSpec": ("n", "a", "b"),
    "TrialConfig": ("n_values", "strategy", "trials", "seed", "hamming_distance", "lowering",
                    "optimize"),
    "VerificationReport": ("total_checked", "failed", "failures", "sampled"),
    "cnot_bound": ("n",),
    "count_gates": ("circ",),
    "export_stats": ("rows", "path"),
    "from_text": ("text",),
    "int_to_label": ("value", "width"),
    "label_to_int": ("bits", "width"),
    "lower_all_toffolis": ("circ", "mode"),
    "lower_bound": ("n", "d", "c", "family_size", "mode"),
    "lower_mcx": ("circ", "strategy"),
    "remove_redundancies": ("circ",),
    "run_count_study": ("config",),
    "sample_transpositions": ("n", "count", "hamming_distance", "seed"),
    "synthesize_transposition": ("spec", "strategy"),
    "to_markdown": ("rows",),
    "to_qasm2": ("circ",),
    "to_text": ("circ",),
    "toffoli_bound": ("strategy", "n"),
    "transposition_family_size": ("n", "hamming_distance"),
    "verify_mcx": ("circ", "gate"),
    "verify_transposition": ("circ", "spec", "seed", "enumeration_cap"),
}


def test_the_public_signatures_are_pinned():
    got = {}
    for _, name in _reexports():
        entry = getattr(transposynth, name)
        if isinstance(entry, type) and issubclass(entry, enum.Enum):
            continue
        got[name] = tuple(inspect.signature(entry).parameters)
    assert got == _SIGNATURES


@pytest.mark.parametrize("owner, name", [
    ("transposynth", "run_statevector"),
    ("transposynth.simulator", "run_statevector"),
    ("transposynth", "lower_toffoli"),
    ("transposynth.lowering", "lower_toffoli"),
    ("transposynth", "projector_controlled_x"),
    ("transposynth.transposition", "projector_controlled_x"),
    ("transposynth", "sim_cap"),
    ("transposynth.simulator", "sim_cap"),
    ("transposynth.simulator", "DEFAULT_SIM_CAP"),
    ("transposynth.simulator", "SIM_CAP_ENV"),
    ("transposynth", "inverse"),
    ("transposynth.ir", "inverse"),
    ("transposynth.ir", "inverse_gate"),
    ("transposynth.ir", "_gate"),
    ("transposynth", "synthesize_gray_code"),
    ("transposynth.transposition", "synthesize_gray_code"),
    ("transposynth", "LowerBoundParams"),
    ("transposynth.harness", "LowerBoundParams"),
    ("transposynth", "borrowed_toffoli_count"),
    ("transposynth.mcx", "borrowed_toffoli_count"),
    ("transposynth", "clean_ladder_toffoli_count"),
    ("transposynth.mcx", "clean_ladder_toffoli_count"),
    ("transposynth", "single_clean_toffoli_count"),
    ("transposynth.mcx", "single_clean_toffoli_count"),
    ("transposynth", "ToffoliOrientation"),
    ("transposynth", "parse_stats"),
    ("transposynth.harness", "parse_stats"),
    ("transposynth.harness", "default_stats_filename"),
    ("transposynth", "lower_mcx_auto"),
    ("transposynth", "StudyResult"),
    ("transposynth.harness", "StudyResult"),
    *(("transposynth", name)
      for name in ("circuit", "h", "x", "t", "tdg", "s", "sdg", "cnot", "toffoli")),
    ("transposynth.ir.Circuit", "__len__"),
])
def test_deleted_names_stay_deleted(owner, name):
    # The dense oracle moved to tests/oracle_statevector.py; lower_toffoli
    # and projector_controlled_x wrapped what lower_all_toffolis and the
    # synthesizers build; the width cap is the constant simulator._SIM_CAP,
    # which no environment variable overrides.  Nothing ran inverse;
    # synthesize_transposition(spec, SynthesisStrategy.GRAY_CODE) is the
    # one route to a gray circuit.  lower_bound takes LowerBoundParams'
    # four fields as its own arguments.  The *_toffoli_count functions
    # restated what counting lower_mcx's networks gives, and no public
    # function takes or returns a ToffoliOrientation (it stays in
    # transposynth.lowering).  Only tests read a study CSV through
    # parse_stats; export_stats names its default file itself;
    # lower_mcx_auto stays in transposynth.mcx, where the benchmark's
    # tracer finds it through cli and harness; and StudyResult restated
    # the strategy and seed of its rows, which run_count_study now
    # returns as a tuple.  The gate builders and circuit stay in
    # transposynth.ir, beside ir.mcx, which the root never re-exported;
    # len(circuit) restated len(circuit.gates).
    assert not hasattr(pkgutil.resolve_name(owner), name)


def _environment_reads(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "os" and node.attr in {"environ", "environb", "getenv", "getenvb"}:
                yield f"os.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            yield from (f"from os import {a.name}" for a in node.names)


def test_no_module_reads_the_environment():
    # TRANSPOSYNTH_SIM_CAP was the package's one environment input.
    package = Path(transposynth.__file__).parent
    reads = {
        path.name: list(_environment_reads(ast.parse(path.read_text())))
        for path in sorted(package.glob("*.py"))
    }
    assert {name: found for name, found in reads.items() if found} == {}
    assert list(_environment_reads(ast.parse("import os\nos.getenv('X')"))) == ["os.getenv"]


def test_circuit_has_no_data_qubits_method():
    # The data wires are the positions of QubitRole.DATA in circ.roles.
    assert not hasattr(transposynth.Circuit, "data_qubits")


def test_transposition_spec_has_no_hamming_distance_method():
    # It restated len(spec.differing_bits()), under the name of the
    # study's hamming_distance field.
    assert not hasattr(transposynth.TranspositionSpec, "hamming_distance")


def test_trial_config_has_no_resolved_trials_method():
    # config.trials is resolved when the config is made.
    assert not hasattr(transposynth.TrialConfig, "resolved_trials")


def test_a_report_passes_exactly_when_no_input_failed():
    # passed was a constructor field, so a report could say PASS and list
    # failures.
    check = transposynth.simulator.StateCheck("01", "10", "01")
    ok = transposynth.VerificationReport(4, 0, (), sampled=False)
    bad = transposynth.VerificationReport(4, 1, (check,), sampled=False)
    assert ok.passed and ok.to_text().startswith("PASS: 4/4 ")
    assert not bad.passed and bad.to_text().startswith("FAIL: 3/4 ")
    with pytest.raises(TypeError):
        transposynth.VerificationReport(True, 4, 0, (), False)


_T = transposynth

#: Public entry points, each with arguments the first of which has the
#: wrong type.
_WRONG_TYPES = [
    (_T.synthesize_transposition, ("x", _T.SynthesisStrategy.THM3_A)),
    (_T.lower_mcx, ("x", _T.McxStrategy.BORROWED)),
    (_T.lower_all_toffolis, ("x", _T.LoweringMode.NAIVE)),
    (_T.remove_redundancies, ("x",)),
    (_T.count_gates, ("x",)),
    (_T.to_text, ("x",)),
    (_T.to_qasm2, ("x",)),
    (_T.from_text, (123,)),
    (_T.lower_bound, ("x", 4, 2, 100, _T.BoundMode.WORST)),
    (_T.to_markdown, ("x",)),
    (_T.export_stats, ("x",)),
    (_T.run_count_study, ("x",)),
    (_T.TrialConfig, ("x", _T.SynthesisStrategy.THM3_A)),
    (_T.simulator.swept_qubits, ("x",)),
    (_T.Gate, ("x", (), 0)),
    (_T.Circuit, ("x", ())),
    (_T.ir.circuit, ("x",)),
    (_T.ir.x, ("x",)),
    (_T.ir.h, ("x",)),
    (_T.ir.s, ("x",)),
    (_T.ir.sdg, ("x",)),
    (_T.ir.t, ("x",)),
    (_T.ir.tdg, ("x",)),
    (_T.ir.cnot, ("x", 1)),
    (_T.ir.toffoli, ("x", 1, 2)),
    (_T.int_to_label, ("x", 3)),
    (_T.label_to_int, (5, 3)),
    (_T.mcx.lower_mcx_auto, ("x",)),
    (_T.TranspositionSpec, ("x", "0", "1")),
    (_T.cnot_bound, ("x",)),
    (_T.toffoli_bound, ("x", 3)),
    (_T.verify_transposition, ("x", _T.TranspositionSpec(1, "0", "1"))),
    (_T.verify_mcx, ("x", _T.ir.cnot(0, 1))),
    (_T.sample_transpositions, ("x", 3)),
    (_T.transposition_family_size, ("x",)),
    (_T.GateKind, (5,)),
    (_T.QubitRole, (5,)),
    (_T.McxStrategy, (5,)),
    (_T.SynthesisStrategy, (5,)),
    (_T.LoweringMode, (5,)),
    (_T.lowering.ToffoliOrientation, (5,)),
    (_T.BoundMode, (5,)),
]

#: The rows above whose refusal is worded otherwise: the qubit check
#: every Gate shares, the sampler's range, and an Enum's value lookup.
_OWN_TEXT = {
    **dict.fromkeys([_T.ir.x, _T.ir.h, _T.ir.s, _T.ir.sdg, _T.ir.t, _T.ir.tdg, _T.ir.cnot,
                     _T.ir.toffoli],
                    "qubit indices must be ints"),
    _T.sample_transpositions: r"n must be an int in 1\.\.64,",
    **dict.fromkeys([_T.GateKind, _T.QubitRole, _T.McxStrategy, _T.SynthesisStrategy,
                     _T.LoweringMode, _T.lowering.ToffoliOrientation, _T.BoundMode],
                    "is not a valid"),
}

#: Re-exports with no row above: classes that hold plain data and check
#: none of it.  TrialConfig, the one input among them, checks itself.
_PLAIN_DATA = [
    _T.GateCounts,
    _T.StudyRow,
    _T.VerificationReport,
]


@pytest.mark.parametrize(
    "entry, args",
    _WRONG_TYPES,
    ids=[f"{entry.__name__}-{type(args[0]).__name__}" for entry, args in _WRONG_TYPES],
)
def test_entry_points_refuse_an_argument_of_the_wrong_type(entry, args):
    # Most of the entry points before the Gate row used to raise
    # AttributeError or TypeError.
    with pytest.raises(ValueError, match=_OWN_TEXT.get(entry, "must be a|an int")):
        entry(*args)


#: Wrong arguments in a later position, and ir.mcx's controls (ir.mcx is
#: not re-exported), each with the name its refusal must give.
_WRONG_LATER = [
    (_T.ir.circuit, (3, 5), "gates"),
    (_T.ir.circuit, (3, (), 5), "roles"),
    (_T.ir.mcx, (5, 0), "controls"),
    (_T.export_stats, ((_T.StudyRow(*[0] * 14),), 5), "path"),
]


@pytest.mark.parametrize("entry, args, name", _WRONG_LATER,
                         ids=[f"{entry.__name__}-{name}" for entry, _, name in _WRONG_LATER])
def test_entry_points_refuse_a_later_argument_of_the_wrong_type(entry, args, name):
    # Each used to raise TypeError: an int is not iterable, and Path(5)
    # takes no int.
    with pytest.raises(ValueError, match=f"^{name} must be an? "):
        entry(*args)


def test_circuit_and_mcx_take_any_iterable():
    gate = _T.ir.mcx(range(3), 3)
    assert gate.controls == (0, 1, 2)
    c = _T.ir.circuit(4, (g for g in [gate]), iter([_T.QubitRole.DATA] * 4))
    assert c.gates == (gate,) and c.roles == (_T.QubitRole.DATA,) * 4


def test_every_callable_reexport_refuses_a_wrong_type_or_is_exempt():
    covered = {entry for entry, _ in _WRONG_TYPES} | set(_PLAIN_DATA)
    unchecked = [name for _, name in _reexports() if getattr(_T, name) not in covered]
    assert unchecked == []


@pytest.mark.parametrize("field, value", [
    ("n_values", 5),        # was TypeError: 'int' object is not iterable
    ("n_values", None),     # was TypeError: 'NoneType' object is not iterable
    ("optimize", "no"),     # was accepted, and ran the peephole
    ("trials", 2.0),        # was refused in the first trial as "count"
    ("trials", 0),          # likewise
    ("trials", True),       # likewise
    ("lowering", "naive"),  # was refused in the first trial as "mode"
    ("n_values", "35"),     # ran n="3", refused as "n"
], ids=["n_values-int", "n_values-None", "optimize-str", "trials-float", "trials-0",
        "trials-bool", "lowering-str", "n_values-str"])
def test_run_count_study_refuses_a_config_it_cannot_run(field, value):
    # Each is now refused when the TrialConfig is made.
    with pytest.raises(ValueError, match=f"{field} must be a"):
        _T.TrialConfig(**{"n_values": (3,), "strategy": _T.SynthesisStrategy.THM3_A,
                          field: value})
