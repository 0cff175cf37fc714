"""Post-frontier analytics.

Everything downstream of the efficiency scores: normalization against
area means, the staff-weighted global index per university, competition
rankings, tertile summaries of inefficient units, ranking comparisons,
and input-dropping sensitivity runs.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, replace
from typing import Iterable, Mapping

from .dea import VRS, DeaProblem, is_efficient, scores
from .errors import InvariantViolationError, StructuralError


@dataclass(frozen=True)
class NormalizedScore:
    """One university's score in one area, divided by the area mean."""

    university_id: str
    area_id: str
    theta: float


@dataclass(frozen=True)
class GlobalIndex:
    """Staff-weighted mean of a university's normalized area scores.

    ``detail`` carries the (area, theta, staff_weight) triples behind the
    aggregate so reports can show the decomposition.
    """

    university_id: str
    theta_tot: float
    detail: tuple[tuple[str, float, float], ...]

    def __post_init__(self):
        thetas = [t for (_, t, _) in self.detail]
        if thetas:
            lo, hi = min(thetas), max(thetas)
            if not (lo - 1e-9 <= self.theta_tot <= hi + 1e-9):
                raise InvariantViolationError(
                    f"global index {self.theta_tot} for "
                    f"{self.university_id!r} outside its per-area range "
                    f"[{lo}, {hi}]"
                )


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
    scores_before: Mapping[str, float]
    scores_after: Mapping[str, float]
    comparison: RankingComparison


def normalize_scores(
    pte_by_area: Mapping[str, Mapping[str, float]]
) -> tuple[NormalizedScore, ...]:
    """Divide each score by its area's mean score.

    The result has per-area mean exactly 1 up to rounding, which removes
    cross-area level differences before any cross-area aggregation.
    """
    out: list[NormalizedScore] = []
    for area_id in sorted(pte_by_area):
        cell = pte_by_area[area_id]
        if not cell:
            raise StructuralError(f"area {area_id!r} has no scored universities")
        mean = sum(cell.values()) / len(cell)
        if mean <= 0.0:
            raise InvariantViolationError(
                f"area {area_id!r} has non-positive mean score {mean}"
            )
        for university_id in sorted(cell):
            out.append(
                NormalizedScore(university_id, area_id, cell[university_id] / mean)
            )
    return tuple(out)


def global_index(
    thetas: Iterable[NormalizedScore],
    staff_counts: Mapping[tuple[str, str], float],
) -> tuple[tuple[GlobalIndex, ...], tuple[str, ...]]:
    """Weight each university's normalized scores by cell staff numbers.

    ``staff_counts`` maps (university, area) to the mean staff total used
    as weight.  Universities whose total weight is zero cannot be
    aggregated; they are skipped and reported in the notices list.
    """
    per_university: dict[str, list[tuple[str, float, float]]] = {}
    for ns in thetas:
        key = (ns.university_id, ns.area_id)
        if key not in staff_counts:
            raise StructuralError(
                f"no staff weight for university {ns.university_id!r} in "
                f"area {ns.area_id!r}"
            )
        weight = float(staff_counts[key])
        if weight < 0:
            raise StructuralError(
                f"negative staff weight for {key!r}: {weight}"
            )
        per_university.setdefault(ns.university_id, []).append(
            (ns.area_id, ns.theta, weight)
        )
    indices: list[GlobalIndex] = []
    notices: list[str] = []
    for university_id in sorted(per_university):
        detail = tuple(sorted(per_university[university_id]))
        total_weight = sum(w for (_, _, w) in detail)
        if total_weight <= 0.0:
            notices.append(
                f"university {university_id!r} has zero total staff weight; "
                "no global index computed"
            )
            continue
        theta_tot = (
            sum(t * w for (_, t, w) in detail) / total_weight
        )
        indices.append(GlobalIndex(university_id, theta_tot, detail))
    return tuple(indices), tuple(notices)


def rank(values: Mapping[str, float]) -> dict[str, int]:
    """Competition ranking, highest value first: tied values share the
    smallest rank and the next distinct value's rank skips by the tie
    size."""
    for key, v in values.items():
        fv = float(v)
        if fv != fv or fv in (float("inf"), float("-inf")):
            raise StructuralError(f"non-finite value for {key!r}: {v}")
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
    if set(rank_a) != set(rank_b):
        raise StructuralError(
            "rankings cover different unit sets: "
            f"{sorted(set(rank_a) ^ set(rank_b))}"
        )
    if not rank_a:
        raise StructuralError("cannot compare empty rankings")
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
    """Re-solve the variable-returns model without one input column and
    compare the induced rankings.

    Shrinking the input space can only shrink the feasible peer weights'
    advantage, so scores never increase; units can leave the frontier
    but never join it.
    """
    smaller = problem.drop_input(label)
    before = scores(problem, VRS)
    after = scores(smaller, VRS)
    comparison = compare_rankings(rank(before), rank(after))
    lost = sum(
        1
        for unit, s in before.items()
        if is_efficient(s) and not is_efficient(after[unit])
    )
    comparison = replace(comparison, no_longer_efficient=lost)
    return SensitivityResult(
        dropped_label=label,
        scores_before=dict(sorted(before.items())),
        scores_after=dict(sorted(after.items())),
        comparison=comparison,
    )
