"""End-to-end orchestration.

Runs disambiguation, builds the per-area variables, solves the frontier
models, and assembles every report table.  Per-area failures (too few
units, degenerate data) are recorded in the report instead of aborting
the remaining areas; corpus-wide problems (a missing snapshot year)
still raise.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Mapping

from .analysis import (
    compare_rankings,
    global_index,
    normalize_scores,
    rank,
    sensitivity_drop_input,
    tertile_summary,
)
from .bibliometrics import (
    MatchedCorpus,
    assemble_problem,
    build_input_vector,
    compute_output_vector,
)
from .config import REGIME_ALL, RunConfig
from .dea import CRS, VRS, decompose, is_efficient, scores
from .disambiguation import disambiguate_corpus
from .errors import (
    AreaNotAnalyzableError,
    DegenerateDmuError,
    InvariantViolationError,
    MissingDataError,
)
from .ingest import Corpus

FAILURE_NOT_ANALYZABLE = "not_analyzable"
FAILURE_DEGENERATE = "degenerate_data"
FAILURE_INVARIANT = "internal_invariant"


@dataclass(frozen=True)
class AnalysisReport:
    """Every table the pipeline produces, in emission-ready row form.

    All rows are plain dicts with stable key order; table-level ordering
    is deterministic (areas, then universities, sorted by id).
    """

    config: Mapping[str, object]
    areas_analyzed: tuple[str, ...]
    descriptive_rows: tuple[dict, ...]
    efficiency_rows: tuple[dict, ...]
    tertile_rows: tuple[dict, ...]
    score_rows: tuple[dict, ...]
    global_rows: tuple[dict, ...]
    partial_rows: tuple[dict, ...]
    sensitivity_rows: tuple[dict, ...]
    disambiguation_row: dict
    exclusion_rows: tuple[dict, ...]
    area_failure_rows: tuple[dict, ...]
    warning_rows: tuple[str, ...]
    manual_review_rows: tuple[dict, ...]

    @property
    def fully_successful(self) -> bool:
        return not self.area_failure_rows


def _population_std(values) -> float:
    n = len(values)
    mean = sum(values) / n
    return math.sqrt(sum((v - mean) ** 2 for v in values) / n)


def descriptive_stats(problem) -> list[dict]:
    """Per-variable summary over the area's modeled universities."""
    rows = []
    columns = [
        (label, [d.inputs[idx] for d in problem.dmus])
        for idx, label in enumerate(problem.input_labels)
    ] + [
        (label, [d.outputs[idx] for d in problem.dmus])
        for idx, label in enumerate(problem.output_labels)
    ]
    for label, col in columns:
        rows.append({
            "variable": label,
            "n": len(col),
            "mean": sum(col) / len(col),
            "min": min(col),
            "max": max(col),
            "std_dev": _population_std(col),
        })
    return rows


@dataclass
class _AreaRows:
    """One area's share of the report tables: its rows, or its failure.

    ``pte`` and ``staff_weights`` (per university) feed the cross-area
    step; both stay empty unless the variable-returns model ran.
    """

    exclusions: list[dict]
    failure: dict | None = None
    descriptive: list[dict] = field(default_factory=list)
    efficiency: dict | None = None
    score_rows: list[dict] = field(default_factory=list)
    tertile: dict | None = None
    partial: dict | None = None
    sensitivity: list[dict] = field(default_factory=list)
    pte: dict[str, float] = field(default_factory=dict)
    staff_weights: dict[str, float] = field(default_factory=dict)


def _exclusion_row(e) -> dict:
    return {
        "area_id": e.area_id,
        "university_id": e.university_id,
        "reason": e.reason,
        "detail": e.detail,
    }


def _comparison_row(cmp) -> dict:
    return {
        "changed": cmp.changed,
        "max_delta": cmp.max_delta,
        "mean_delta": cmp.mean_delta,
        "median_delta": cmp.median_delta,
        "cv_delta": cmp.cv_delta,
        "cv_defined": cmp.cv_defined,
    }


def _mean(values) -> float | None:
    values = list(values)
    return sum(values) / len(values) if values else None


def _efficiency_row(area_id, n_units, te, pte, se, rts) -> dict:
    """Area summary; the columns of a model that did not run stay None."""
    def efficient(scores_by_unit):
        if not scores_by_unit:
            return None
        return sum(1 for v in scores_by_unit.values() if is_efficient(v))

    row: dict = {
        "area_id": area_id,
        "n_universities": n_units,
        "te_mean": _mean(te.values()),
        "te_efficient": efficient(te),
        "pte_mean": _mean(pte.values()),
        "pte_efficient": efficient(pte),
        "se_mean": _mean(se.values()),
    }
    for kind in ("constant", "increasing", "decreasing"):
        row[f"rts_{kind}"] = (
            sum(1 for v in rts.values() if v == kind) if rts else None
        )
    return row


def _frontier_scores(problem, config: RunConfig):
    """TE, PTE, SE and RTS class per unit for the configured regime;
    the maps of models that were not run are empty."""
    if config.regime == REGIME_ALL:
        results = decompose(problem)
        return (
            {r.dmu_id: r.te for r in results},
            {r.dmu_id: r.pte for r in results},
            {r.dmu_id: r.se for r in results},
            {r.dmu_id: r.rts for r in results},
        )
    te = scores(problem, CRS) if config.regime == CRS else {}
    pte = scores(problem, VRS) if config.regime == VRS else {}
    return te, pte, {}, {}


def _analyze_area(area_id: str, corpus: Corpus, matched: MatchedCorpus,
                  config: RunConfig, warnings: list[str]) -> _AreaRows:
    """Build one area's variables, solve its frontier models and return
    the area's table rows, or the reason it could not be analyzed."""
    inputs = {}
    outputs = {}
    for university_id in corpus.staff.universities_in_area(area_id):
        inputs[university_id] = build_input_vector(
            corpus.staff, corpus.funding, area_id, university_id,
            config.years, config.lag,
        )
        outputs[university_id] = compute_output_vector(
            matched, corpus.journals, area_id, university_id,
            config.years, warnings,
        )
    try:
        problem, excluded = assemble_problem(inputs, outputs, area_id,
                                             config.min_staff)
    except AreaNotAnalyzableError as exc:
        return _AreaRows(
            [_exclusion_row(e) for e in exc.exclusions],
            failure={"area_id": area_id, "reason": FAILURE_NOT_ANALYZABLE,
                     "detail": str(exc)},
        )
    area = _AreaRows([_exclusion_row(e) for e in excluded])
    try:
        te, pte, se, rts = _frontier_scores(problem, config)
    except (DegenerateDmuError, InvariantViolationError) as exc:
        reason = (
            FAILURE_DEGENERATE
            if isinstance(exc, DegenerateDmuError)
            else FAILURE_INVARIANT
        )
        area.failure = {"area_id": area_id, "reason": reason,
                        "detail": str(exc)}
        return area

    unit_ids = [d.dmu_id for d in problem.dmus]
    area.descriptive = [
        {"area_id": area_id, **row}
        for row in descriptive_stats(problem)
    ]
    area.efficiency = _efficiency_row(area_id, len(unit_ids), te, pte, se,
                                      rts)
    area_ranks = rank(pte if pte else te)
    area.score_rows = [
        {
            "area_id": area_id,
            "university_id": university_id,
            "te": te.get(university_id),
            "pte": pte.get(university_id),
            "se": se.get(university_id),
            "rts": rts.get(university_id),
            "theta": None,  # filled after cross-area normalization
            "area_rank": area_ranks[university_id],
        }
        for university_id in unit_ids
    ]
    if not pte:
        return area

    summary = tertile_summary(pte)
    area.tertile = {
        "area_id": area_id,
        "efficient": summary.efficient_count,
        "inefficient": summary.inefficient_count,
        "t1_n": summary.tertile_sizes[0],
        "t1_mean": summary.tertile_means[0],
        "t2_n": summary.tertile_sizes[1],
        "t2_mean": summary.tertile_means[1],
        "t3_n": summary.tertile_sizes[2],
        "t3_mean": summary.tertile_means[2],
    }
    area.pte = dict(pte)
    area.staff_weights = {u: inputs[u].staff_total for u in unit_ids}
    if config.compare_partial:
        productivity = {
            u: outputs[u].pu / inputs[u].staff_total for u in unit_ids
        }
        cmp = compare_rankings(rank(pte), rank(productivity))
        area.partial = {"area_id": area_id, "n_universities": len(unit_ids),
                        **_comparison_row(cmp)}
    for label in config.drop_inputs:
        cmp = sensitivity_drop_input(problem, label).comparison
        area.sensitivity.append({
            "area_id": area_id,
            "dropped_input": label,
            "n_universities": len(unit_ids),
            **_comparison_row(cmp),
            "no_longer_efficient": cmp.no_longer_efficient,
        })
    return area


def _require_snapshot_years(staff, config: RunConfig) -> None:
    """Every staff snapshot year of the output window must lie inside the
    (non-empty) registry's covered span; otherwise the run is
    misconfigured."""
    first, last = staff.coverage()
    snapshot_years = [y - config.lag for y in config.years]
    missing = [s for s in snapshot_years if not first <= s <= last]
    if missing:
        raise MissingDataError(
            f"staff registry covers {first}..{last}; no snapshot for year(s) "
            + ", ".join(str(s) for s in sorted(set(missing)))
        )


def _global_rows(analyzed: dict[str, _AreaRows],
                 warnings: list[str]) -> list[dict]:
    """The cross-area step: normalize each area's PTE against its mean,
    fill every score row's theta, and rank universities by the
    staff-weighted global index."""
    pte_by_area = {a: area.pte for a, area in analyzed.items() if area.pte}
    if not pte_by_area:
        return []
    thetas = normalize_scores(pte_by_area)
    theta_lookup = {(ns.university_id, ns.area_id): ns.theta for ns in thetas}
    for area_id, area in analyzed.items():
        for row in area.score_rows:
            row["theta"] = theta_lookup.get((row["university_id"], area_id))
    staff_weights = {
        (university_id, area_id): weight
        for area_id, area in analyzed.items()
        for university_id, weight in area.staff_weights.items()
    }
    indices, notices = global_index(thetas, staff_weights)
    warnings.extend(notices)
    general_rank = rank({gi.university_id: gi.theta_tot for gi in indices})
    rows = [
        {
            "university_id": gi.university_id,
            "theta_tot": gi.theta_tot,
            "rank": general_rank[gi.university_id],
            "areas_active": len(gi.detail),
            "staff_weight_total": sum(w for (_, _, w) in gi.detail),
        }
        for gi in indices
    ]
    rows.sort(key=lambda r: (r["rank"], r["university_id"]))
    return rows


def run_pipeline(
    corpus: Corpus,
    config: RunConfig,
    overrides: Mapping[tuple[str, int], str | None] | None = None,
) -> AnalysisReport:
    """Execute the full study over one corpus and return the report."""
    area_ids = corpus.staff.area_ids()
    if area_ids:
        _require_snapshot_years(corpus.staff, config)
    warnings: list[str] = list(corpus.warnings)
    disamb = disambiguate_corpus(
        corpus.publications, corpus.staff, corpus.affiliations, overrides
    )
    warnings.extend(f"disambiguation: {msg}" for msg in disamb.errors)
    matched = MatchedCorpus(corpus.publications, disamb.matched_cells)

    areas = {
        area_id: _analyze_area(area_id, corpus, matched, config, warnings)
        for area_id in area_ids
    }
    analyzed = {a: area for a, area in areas.items() if area.failure is None}
    global_rows = _global_rows(analyzed, warnings)
    done = list(analyzed.values())

    return AnalysisReport(
        config=config.snapshot(),
        areas_analyzed=tuple(analyzed),
        descriptive_rows=tuple(row for a in done for row in a.descriptive),
        efficiency_rows=tuple(a.efficiency for a in done),
        tertile_rows=tuple(a.tertile for a in done if a.tertile),
        score_rows=tuple(row for a in done for row in a.score_rows),
        global_rows=tuple(global_rows),
        partial_rows=tuple(a.partial for a in done if a.partial),
        sensitivity_rows=tuple(row for a in done for row in a.sensitivity),
        disambiguation_row=asdict(disamb.stats),
        exclusion_rows=tuple(
            row for a in areas.values() for row in a.exclusions
        ),
        area_failure_rows=tuple(
            a.failure for a in areas.values() if a.failure
        ),
        warning_rows=tuple(sorted(set(warnings))),
        manual_review_rows=tuple(
            {
                "pub_id": r.pub_id,
                "author_position": r.position,
                "token": r.token_text,
                "candidates": ";".join(r.candidate_ids),
            }
            for r in disamb.manual_review
        ),
    )
