"""Post-frontier analytics.

Everything downstream of the efficiency scores: normalization against
area means, the staff-weighted global index per university, competition
rankings, tertile summaries of inefficient units, ranking comparisons,
and input-dropping sensitivity runs.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, replace
from typing import Mapping

from .dea import VRS, DeaProblem, is_efficient, scores


@dataclass(frozen=True)
class RankingComparison:
    """Absolute rank shifts between two rankings over the same units.

    ``cv_defined`` is False when all shifts are zero, in which case the
    variation coefficient is reported as 0 by convention.
    """

    deltas: tuple[tuple[str, int], ...]
    changed: int
    max_delta: int
    mean_delta: float
    median_delta: float
    cv_delta: float
    cv_defined: bool
    no_longer_efficient: int | None = None


@dataclass(frozen=True)
class TertileSummary:
    """Efficient-unit count plus mean scores of the inefficient units
    split into three descending groups."""

    efficient_count: int
    inefficient_count: int
    tertile_sizes: tuple[int, int, int]
    tertile_means: tuple[float | None, float | None, float | None]


@dataclass(frozen=True)
class SensitivityResult:
    dropped_label: str
    scores_after: Mapping[str, float]
    comparison: RankingComparison


def normalize_scores(
    pte_by_area: Mapping[str, Mapping[str, float]]
) -> dict[tuple[str, str], float]:
    """Divide each score by its area's mean score.

    The result maps (university, area) to theta, areas in id order and
    each area's universities in id order.  It has per-area mean exactly
    1 up to rounding, which removes cross-area level differences before
    any cross-area aggregation.
    """
    thetas: dict[tuple[str, str], float] = {}
    for area_id in sorted(pte_by_area):
        cell = pte_by_area[area_id]
        mean = sum(cell.values()) / len(cell)
        for university_id in sorted(cell):
            thetas[university_id, area_id] = cell[university_id] / mean
    return thetas


def global_index(
    thetas: Mapping[tuple[str, str], float],
    staff_counts: Mapping[tuple[str, str], float],
) -> tuple[dict, ...]:
    """Weight each university's normalized scores by cell staff numbers
    and rank the universities by the result.

    ``staff_counts`` maps (university, area) to the mean staff total used
    as weight, which is positive: ``assemble_problem`` excludes a cell
    with no staff.  Each university's sums run over its areas in id
    order.  The rows are the ``global_ranking`` table's, sorted by rank,
    then university id.
    """
    per_university: dict[str, list[tuple[str, float, float]]] = {}
    for (university_id, area_id), theta in thetas.items():
        weight = float(staff_counts[(university_id, area_id)])
        per_university.setdefault(university_id, []).append(
            (area_id, theta, weight)
        )
    rows: list[dict] = []
    for university_id in sorted(per_university):
        detail = sorted(per_university[university_id])
        total_weight = sum(w for (_, _, w) in detail)
        rows.append({
            "university_id": university_id,
            "theta_tot": sum(t * w for (_, t, w) in detail) / total_weight,
            "rank": None,
            "areas_active": len(detail),
            "staff_weight_total": total_weight,
        })
    ranks = rank({row["university_id"]: row["theta_tot"] for row in rows})
    for row in rows:
        row["rank"] = ranks[row["university_id"]]
    rows.sort(key=lambda r: (r["rank"], r["university_id"]))
    return tuple(rows)


def rank(values: Mapping[str, float]) -> dict[str, int]:
    """Competition ranking, highest value first: tied values share the
    smallest rank and the next distinct value's rank skips by the tie
    size."""
    ordered = sorted(values.items(), key=lambda kv: (-kv[1], kv[0]))
    ranks: dict[str, int] = {}
    position = 0
    last_value: float | None = None
    last_rank = 0
    for key, value in ordered:
        position += 1
        if last_value is None or value != last_value:
            last_rank = position
            last_value = value
        ranks[key] = last_rank
    return ranks


def tertile_summary(scores_by_unit: Mapping[str, float]) -> TertileSummary:
    """Count efficient units and average the rest in three groups.

    Inefficient scores are sorted descending and split into groups whose
    sizes differ by at most one, larger groups first.  With fewer than
    three inefficient units the trailing groups are empty and their
    means are reported as None.
    """
    inefficient = sorted(
        (s for s in scores_by_unit.values() if not is_efficient(s)),
        reverse=True,
    )
    n = len(inefficient)
    q, r = divmod(n, 3)
    sizes = (q + (1 if r > 0 else 0), q + (1 if r > 1 else 0), q)
    means: list[float | None] = []
    start = 0
    for size in sizes:
        group = inefficient[start:start + size]
        start += size
        means.append(sum(group) / size if size else None)
    return TertileSummary(
        efficient_count=len(scores_by_unit) - n,
        inefficient_count=n,
        tertile_sizes=sizes,
        tertile_means=(means[0], means[1], means[2]),
    )


def compare_rankings(
    rank_a: Mapping[str, int], rank_b: Mapping[str, int]
) -> RankingComparison:
    """Absolute per-unit rank shifts and their summary statistics."""
    deltas = tuple(
        (unit, abs(int(rank_a[unit]) - int(rank_b[unit])))
        for unit in sorted(rank_a)
    )
    magnitudes = [d for (_, d) in deltas]
    mean_delta = sum(magnitudes) / len(magnitudes)
    if mean_delta > 0:
        cv = statistics.pstdev(magnitudes) / mean_delta
        cv_defined = True
    else:
        cv = 0.0
        cv_defined = False
    return RankingComparison(
        deltas=deltas,
        changed=sum(1 for d in magnitudes if d > 0),
        max_delta=max(magnitudes),
        mean_delta=mean_delta,
        median_delta=float(statistics.median(magnitudes)),
        cv_delta=cv,
        cv_defined=cv_defined,
    )


def sensitivity_drop_input(problem: DeaProblem, label: str) -> SensitivityResult:
    """Re-estimate the variable-returns model without one input column
    and compare the induced rankings.

    Shrinking the input space can only shrink the feasible peer weights'
    advantage, so scores never increase; units can leave the frontier
    but never join it.

    Every unit's VRS LP is solved (or read from the memo) before the
    input is dropped, so ``drop_input`` sees every unit's duals and the
    result does not depend on what ran earlier.  A unit whose dual on the
    dropped row is exactly 0.0 keeps its score bit for bit; the others
    are re-solved, and agree with a from-scratch solve within 1e-9.
    """
    before = scores(problem, VRS)
    after = scores(problem.drop_input(label), VRS)
    comparison = compare_rankings(rank(before), rank(after))
    lost = sum(
        1
        for unit, s in before.items()
        if is_efficient(s) and not is_efficient(after[unit])
    )
    comparison = replace(comparison, no_longer_efficient=lost)
    return SensitivityResult(
        dropped_label=label,
        scores_after=dict(sorted(after.items())),
        comparison=comparison,
    )
