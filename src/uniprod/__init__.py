"""Non-parametric research-productivity benchmarking for universities.

The package turns staff registries, funding tables and publication
corpora into per-discipline efficiency frontiers: it disambiguates
author names against the staff registry, builds input/output vectors
per (university, area) cell, scores each university with output-
oriented radial frontier models under several returns-to-scale
regimes, and derives rankings, scale diagnostics, tertile summaries
and sensitivity checks.  ``uniprod.cli`` exposes the same flow as a
command-line program.
"""

from .analysis import (
    GlobalIndex,
    NormalizedScore,
    RankingComparison,
    SensitivityResult,
    TertileSummary,
    compare_rankings,
    global_index,
    normalize_scores,
    rank,
    sensitivity_drop_input,
    tertile_summary,
)
from .bibliometrics import (
    INPUT_LABELS,
    OUTPUT_LABELS,
    Exclusion,
    InputVector,
    MatchedCorpus,
    OutputVector,
    assemble_problem,
    build_input_vector,
    compute_output_vector,
)
from .config import REGIMES, RunConfig
from .dea import (
    CRS,
    NIRS,
    VRS,
    DeaProblem,
    DmuRecord,
    EfficiencyResult,
    decompose,
    efficiency_score,
    scores,
    solve_output_oriented,
)
from .disambiguation import (
    AffiliationDictionary,
    Assignment,
    DisambiguationResult,
    MatchOutcome,
    disambiguate_corpus,
    match_author,
    normalize_text,
    surname_variants,
)
from .errors import (
    AreaNotAnalyzableError,
    CorruptRecordError,
    DegenerateDmuError,
    IngestError,
    InvariantViolationError,
    MissingDataError,
    StructuralError,
    UniprodError,
    UnknownIdError,
)
from .ingest import Corpus, ingest, load_overrides
from .lp import LinearProgram, LpSolution, solve_lp
from .pipeline import AnalysisReport, run_pipeline
from .records import (
    AuthorToken,
    FundingTable,
    JournalTable,
    Publication,
    StaffMember,
    StaffRegistry,
)
from .report import read_table, render_json, render_table, write_report

__version__ = "0.1.0"

__all__ = [
    "AffiliationDictionary",
    "AnalysisReport",
    "AreaNotAnalyzableError",
    "Assignment",
    "AuthorToken",
    "CRS",
    "Corpus",
    "CorruptRecordError",
    "DeaProblem",
    "DegenerateDmuError",
    "DisambiguationResult",
    "DmuRecord",
    "EfficiencyResult",
    "Exclusion",
    "FundingTable",
    "GlobalIndex",
    "INPUT_LABELS",
    "IngestError",
    "InputVector",
    "InvariantViolationError",
    "JournalTable",
    "LinearProgram",
    "LpSolution",
    "MatchOutcome",
    "MatchedCorpus",
    "MissingDataError",
    "NIRS",
    "NormalizedScore",
    "OUTPUT_LABELS",
    "OutputVector",
    "Publication",
    "REGIMES",
    "RankingComparison",
    "RunConfig",
    "SensitivityResult",
    "StaffMember",
    "StaffRegistry",
    "StructuralError",
    "TertileSummary",
    "UniprodError",
    "UnknownIdError",
    "VRS",
    "assemble_problem",
    "build_input_vector",
    "compare_rankings",
    "compute_output_vector",
    "decompose",
    "disambiguate_corpus",
    "efficiency_score",
    "global_index",
    "ingest",
    "load_overrides",
    "match_author",
    "normalize_scores",
    "normalize_text",
    "rank",
    "read_table",
    "render_json",
    "render_table",
    "run_pipeline",
    "scores",
    "sensitivity_drop_input",
    "solve_output_oriented",
    "solve_lp",
    "surname_variants",
    "tertile_summary",
    "write_report",
]
