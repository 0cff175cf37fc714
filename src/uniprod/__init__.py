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
    DisambiguationResult,
    MatchOutcome,
    decide,
    disambiguate_corpus,
    match_author,
    normalize_text,
    surname_key,
)
from .errors import (
    AreaNotAnalyzableError,
    DegenerateDmuError,
    IngestError,
    InvariantViolationError,
    MissingDataError,
    StructuralError,
    UniprodError,
    UnknownIdError,
)
from .ingest import Corpus, ingest, load_overrides
from .pipeline import run_pipeline
from .records import (
    AuthorToken,
    FundingTable,
    JournalTable,
    Publication,
    StaffMember,
    StaffRegistry,
)
from .report import (
    AnalysisReport,
    render_json,
    render_table,
    write_report,
)

__version__ = "0.1.0"

__all__ = [
    "AffiliationDictionary",
    "AnalysisReport",
    "AreaNotAnalyzableError",
    "AuthorToken",
    "CRS",
    "Corpus",
    "DeaProblem",
    "DegenerateDmuError",
    "DisambiguationResult",
    "DmuRecord",
    "EfficiencyResult",
    "FundingTable",
    "INPUT_LABELS",
    "IngestError",
    "InputVector",
    "InvariantViolationError",
    "JournalTable",
    "MatchOutcome",
    "MatchedCorpus",
    "MissingDataError",
    "NIRS",
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
    "decide",
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
    "render_json",
    "render_table",
    "run_pipeline",
    "scores",
    "sensitivity_drop_input",
    "solve_output_oriented",
    "surname_key",
    "tertile_summary",
    "write_report",
]
