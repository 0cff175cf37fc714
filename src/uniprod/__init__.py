"""Non-parametric research-productivity benchmarking for universities.

The package turns staff registries, funding tables and publication
corpora into per-discipline efficiency frontiers: it disambiguates
author names against the staff registry, builds input/output vectors
per (university, area) cell, scores each university with output-
oriented radial frontier models under several returns-to-scale
regimes, and derives rankings, scale diagnostics, tertile summaries
and sensitivity checks.  ``uniprod.cli`` exposes the same flow as a
command-line program.  The package root exports the library API;
building blocks such as ``uniprod.analysis.rank`` are imported from
their modules.
"""

from .config import REGIMES, RunConfig
from .dea import (
    CRS,
    NIRS,
    VRS,
    DeaProblem,
    DmuRecord,
    EfficiencyResult,
    decompose,
    scores,
)
from .errors import (
    AreaNotAnalyzableError,
    DegenerateDmuError,
    IngestError,
    InvariantViolationError,
    MissingDataError,
    StructuralError,
    UniprodError,
)
from .ingest import Corpus, ingest, load_overrides
from .pipeline import run_pipeline
from .report import AnalysisReport, write_report

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "AreaNotAnalyzableError",
    "CRS",
    "Corpus",
    "DeaProblem",
    "DegenerateDmuError",
    "DmuRecord",
    "EfficiencyResult",
    "IngestError",
    "InvariantViolationError",
    "MissingDataError",
    "NIRS",
    "REGIMES",
    "RunConfig",
    "StructuralError",
    "UniprodError",
    "VRS",
    "decompose",
    "ingest",
    "load_overrides",
    "run_pipeline",
    "scores",
    "write_report",
]
