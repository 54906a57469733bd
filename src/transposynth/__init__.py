"""Synthesis, lowering and gate-count accounting for circuits that swap
two basis states and fix all others."""

from .ir import (
    Circuit,
    Gate,
    GateCounts,
    GateKind,
    QubitRole,
    circuit,
    cnot,
    count_gates,
    from_text,
    h,
    int_to_label,
    label_to_int,
    s,
    sdg,
    t,
    tdg,
    to_qasm2,
    to_text,
    toffoli,
    x,
)
from .mcx import (
    McxStrategy,
    borrowed_toffoli_count,
    clean_ladder_toffoli_count,
    lower_mcx,
    lower_mcx_auto,
    single_clean_toffoli_count,
)
from .transposition import (
    SynthesisStrategy,
    TranspositionSpec,
    cnot_bound,
    synthesize_transposition,
    toffoli_bound,
)
from .lowering import (
    LoweringMode,
    ToffoliOrientation,
    lower_all_toffolis,
)
from .peephole import remove_redundancies
from .simulator import (
    VerificationReport,
    verify_mcx,
    verify_transposition,
)
from .harness import (
    BoundMode,
    StudyResult,
    StudyRow,
    TrialConfig,
    export_stats,
    lower_bound,
    parse_stats,
    run_count_study,
    sample_transpositions,
    to_markdown,
    transposition_family_size,
)

__version__ = "0.1.0"
