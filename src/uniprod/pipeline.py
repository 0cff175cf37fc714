"""End-to-end orchestration.

Runs disambiguation, builds the per-area variables, solves the frontier
models, and fills each table of ``report.TABLE_SPECS`` under its name:
the areas' rows in area order, then the cross-area and corpus-wide
tables.  Per-area failures (too few units, degenerate data) are recorded
in the report instead of aborting the remaining areas; corpus-wide
problems (a missing snapshot year) still raise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
from .report import TABLE_SPECS, AnalysisReport

FAILURE_NOT_ANALYZABLE = "not_analyzable"
FAILURE_DEGENERATE = "degenerate_data"
FAILURE_INVARIANT = "internal_invariant"


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
    """One area's share of the report tables, by table name.

    An area that failed holds only ``exclusions`` and ``area_failures``.
    ``pte`` and ``staff_weights`` (per university) feed the cross-area
    step; both stay empty unless the variable-returns model ran.
    """

    rows: dict[str, list[dict]]
    pte: dict[str, float] = field(default_factory=dict)
    staff_weights: dict[str, float] = field(default_factory=dict)


def _failed_area(area_id, reason, exc, exclusions) -> _AreaRows:
    failure = {"area_id": area_id, "reason": reason, "detail": str(exc)}
    return _AreaRows({"exclusions": list(exclusions),
                      "area_failures": [failure]})


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
    the area's table rows, or the reason it could not be analyzed: too
    few units, or an error from any of its LPs, the sensitivity
    re-solves' included."""
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
        return _failed_area(area_id, FAILURE_NOT_ANALYZABLE, exc,
                            exc.exclusions)
    try:
        return _area_rows(area_id, problem, excluded, inputs, outputs, config)
    except (DegenerateDmuError, InvariantViolationError) as exc:
        reason = (FAILURE_DEGENERATE if isinstance(exc, DegenerateDmuError)
                  else FAILURE_INVARIANT)
        return _failed_area(area_id, reason, exc, excluded)


def _area_rows(area_id, problem, excluded, inputs, outputs,
               config: RunConfig) -> _AreaRows:
    """One analyzable area's table rows from its frontier models."""
    te, pte, se, rts = _frontier_scores(problem, config)
    unit_ids = [d.dmu_id for d in problem.dmus]
    area_ranks = rank(pte if pte else te)
    area = _AreaRows({
        "descriptive_stats": [
            {"area_id": area_id, **row}
            for row in descriptive_stats(problem)
        ],
        "efficiency_by_area": [
            _efficiency_row(area_id, len(unit_ids), te, pte, se, rts)
        ],
        "scores": [
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
        ],
        "exclusions": list(excluded),
    })
    if not pte:
        return area

    summary = tertile_summary(pte)
    area.rows["tertiles"] = [{
        "area_id": area_id,
        "efficient": summary.efficient_count,
        "inefficient": summary.inefficient_count,
        "t1_n": summary.tertile_sizes[0],
        "t1_mean": summary.tertile_means[0],
        "t2_n": summary.tertile_sizes[1],
        "t2_mean": summary.tertile_means[1],
        "t3_n": summary.tertile_sizes[2],
        "t3_mean": summary.tertile_means[2],
    }]
    area.pte = dict(pte)
    area.staff_weights = {u: inputs[u].staff_total for u in unit_ids}
    if config.compare_partial:
        productivity = {
            u: outputs[u].pu / inputs[u].staff_total for u in unit_ids
        }
        cmp = compare_rankings(rank(pte), rank(productivity))
        area.rows["partial_comparison"] = [{
            "area_id": area_id, "n_universities": len(unit_ids),
            **_comparison_row(cmp),
        }]
    area.rows["sensitivity"] = []
    for label in config.drop_inputs:
        cmp = sensitivity_drop_input(problem, label).comparison
        area.rows["sensitivity"].append({
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


def _global_rows(analyzed: dict[str, _AreaRows]) -> list[dict]:
    """The cross-area step: normalize each area's PTE against its mean,
    fill every score row's theta, and rank universities by the
    staff-weighted global index."""
    pte_by_area = {a: area.pte for a, area in analyzed.items() if area.pte}
    thetas = normalize_scores(pte_by_area)
    for area_id, area in analyzed.items():
        for row in area.rows["scores"]:
            row["theta"] = thetas.get((row["university_id"], area_id))
    staff_weights = {
        (university_id, area_id): weight
        for area_id, area in analyzed.items()
        for university_id, weight in area.staff_weights.items()
    }
    return list(global_index(thetas, staff_weights))


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
    disamb = disambiguate_corpus(corpus.publications, corpus.staff, overrides)
    warnings.extend(f"disambiguation: {msg}" for msg in disamb.errors)
    matched = MatchedCorpus(disamb.matched_by_cell)

    areas = {
        area_id: _analyze_area(area_id, corpus, matched, config, warnings)
        for area_id in area_ids
    }
    analyzed = {a: area for a, area in areas.items()
                if "area_failures" not in area.rows}
    tables: dict[str, list[dict]] = {name: [] for name in TABLE_SPECS}
    for area in areas.values():
        for name, rows in area.rows.items():
            tables[name] += rows
    tables["global_ranking"] = _global_rows(analyzed)
    tables["disambiguation_stats"] = [disamb.stats]
    tables["manual_review"] = list(disamb.manual_review)
    tables["warnings"] = [{"message": m} for m in sorted(set(warnings))]
    return AnalysisReport(
        config=config.snapshot(),
        areas_analyzed=tuple(analyzed),
        tables={name: tuple(rows) for name, rows in tables.items()},
    )
