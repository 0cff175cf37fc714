"""Construction of efficiency-model variables from matched publications,
staff registries and funding tables.

Outputs per (area, university) cell: PU, the count of publications with
at least one matched author in the cell; PC, the fractional author
contribution sum b/c; SS, the impact-weighted publication sum.  Inputs:
mean headcounts by rank and mean competitive funding, both measured at
the end of the year preceding each output year.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .dea import DeaProblem, DmuRecord
from .disambiguation import MATCHED, Assignment
from .errors import (
    AreaNotAnalyzableError,
    CorruptRecordError,
    StructuralError,
    UnknownIdError,
)
from .records import (
    RANK_ASSOCIATE,
    RANK_FELLOW,
    RANK_FULL,
    FundingTable,
    JournalTable,
    Publication,
    StaffRegistry,
)

INPUT_LABELS = ("FP", "AP", "RF", "PR")
OUTPUT_LABELS = ("PU", "PC", "SS")

EXCLUDED_BELOW_STAFF_THRESHOLD = "below_staff_threshold"
EXCLUDED_ZERO_OUTPUTS = "zero_outputs"


@dataclass(frozen=True)
class InputVector:
    fp: float
    ap: float
    rf: float
    pr: float

    @property
    def staff_total(self) -> float:
        return self.fp + self.ap + self.rf

    def component(self, label: str) -> float:
        try:
            return {"FP": self.fp, "AP": self.ap, "RF": self.rf, "PR": self.pr}[label]
        except KeyError:
            raise StructuralError(f"unknown input label {label!r}") from None

    def as_tuple(self, labels: Sequence[str] = INPUT_LABELS) -> tuple[float, ...]:
        return tuple(self.component(lbl) for lbl in labels)


@dataclass(frozen=True)
class OutputVector:
    pu: float
    pc: float
    ss: float

    def component(self, label: str) -> float:
        try:
            return {"PU": self.pu, "PC": self.pc, "SS": self.ss}[label]
        except KeyError:
            raise StructuralError(f"unknown output label {label!r}") from None

    def as_tuple(self, labels: Sequence[str] = OUTPUT_LABELS) -> tuple[float, ...]:
        return tuple(self.component(lbl) for lbl in labels)


@dataclass(frozen=True)
class Exclusion:
    """One university dropped from an area's frontier model, with a
    machine-readable reason code and a human explanation."""

    university_id: str
    area_id: str
    reason: str
    detail: str


class MatchedCorpus:
    """Publications joined with their author assignments.

    Per publication, pre-aggregates the matched-author count b for every
    (area, university) cell.  Only article and review records ever
    contribute to outputs; other document types are carried but inert.
    """

    def __init__(
        self,
        publications: Iterable[Publication],
        assignments: Iterable[Assignment],
        staff: StaffRegistry,
    ):
        pubs = {p.pub_id: p for p in publications}

        matched_per_pub: dict[str, dict[tuple[str, str], int]] = {}
        for a in assignments:
            if a.outcome.kind != MATCHED:
                continue
            pub = pubs.get(a.pub_id)
            if pub is None:
                raise UnknownIdError(
                    f"assignment references unknown publication {a.pub_id!r}"
                )
            if pub.author_count == 0:
                raise CorruptRecordError(
                    f"publication {a.pub_id!r} has matched authors but a "
                    "zero author count"
                )
            member = staff.member(a.outcome.staff_id)
            cell = (member.area_id, member.university_id)
            bucket = matched_per_pub.setdefault(a.pub_id, {})
            bucket[cell] = bucket.get(cell, 0) + 1

        # cell -> year -> list of (pub_id, journal_id, b, c)
        contribs: dict[tuple[str, str], dict[int, list]] = {}
        for pub_id, cells in matched_per_pub.items():
            pub = pubs[pub_id]
            total_matched = sum(cells.values())
            if total_matched > pub.author_count:
                raise CorruptRecordError(
                    f"publication {pub_id!r} has {total_matched} matched "
                    f"authors but only {pub.author_count} listed"
                )
            if not pub.counts_as_output:
                continue
            for cell, b in cells.items():
                contribs.setdefault(cell, {}).setdefault(pub.year, []).append(
                    (pub_id, pub.journal_id, b, pub.author_count)
                )
        self._contribs = contribs

    def cell_rows(
        self, area_id: str, university_id: str, years: Iterable[int]
    ) -> tuple[tuple[str, str, int, int, int], ...]:
        """Qualifying rows (pub_id, journal_id, year, b, c) for a cell,
        sorted by publication id."""
        per_year = self._contribs.get((area_id, university_id), {})
        rows = []
        for year in sorted(set(years)):
            for pub_id, journal_id, b, c in per_year.get(year, ()):
                rows.append((pub_id, journal_id, year, b, c))
        rows.sort()
        return tuple(rows)


def compute_output_vector(
    corpus: MatchedCorpus,
    journals: JournalTable,
    area_id: str,
    university_id: str,
    years: Iterable[int],
    warnings: list[str] | None = None,
) -> OutputVector:
    """PU, PC and SS of one cell from a single scan of its rows.

    A publication whose journal has no stored weight for its year adds
    nothing to SS; each such case appends one message to ``warnings``.
    """
    rows = corpus.cell_rows(area_id, university_id, years)
    pc = 0.0
    ss = 0.0
    for pub_id, journal_id, year, b, c in rows:
        if c <= 0:
            raise CorruptRecordError(
                f"publication {pub_id!r} has author count {c}"
            )
        pc += b / c
        weight = journals.weight_for(journal_id, year)
        if weight is None:
            if warnings is not None:
                warnings.append(
                    f"no impact weight for journal {journal_id!r} in {year} "
                    f"(publication {pub_id!r})"
                )
            continue
        ss += weight
    return OutputVector(pu=float(len(rows)), pc=pc, ss=ss)


def build_input_vector(
    staff: StaffRegistry,
    funding: FundingTable,
    area_id: str,
    university_id: str,
    output_years: Sequence[int],
    lag: int = 1,
) -> InputVector:
    """Mean staff headcounts and funding over the lagged window.

    For each output year y the snapshot is taken at 31 December of
    y - lag.  Snapshot years outside the registry's covered span read as
    zero headcounts here; ``run_pipeline`` rejects such a configuration
    once per run, before any cell is built.
    """
    years = tuple(output_years)
    if not years:
        raise StructuralError("output_years must be non-empty")
    snapshot_years = [y - lag for y in years]
    n = len(snapshot_years)
    fp = sum(
        staff.headcount(area_id, university_id, RANK_FULL, s)
        for s in snapshot_years
    ) / n
    ap = sum(
        staff.headcount(area_id, university_id, RANK_ASSOCIATE, s)
        for s in snapshot_years
    ) / n
    rf = sum(
        staff.headcount(area_id, university_id, RANK_FELLOW, s)
        for s in snapshot_years
    ) / n
    pr = sum(
        funding.amount(university_id, area_id, s) for s in snapshot_years
    ) / n
    return InputVector(fp=fp, ap=ap, rf=rf, pr=pr)


def assemble_problem(
    inputs: Mapping[str, InputVector],
    outputs: Mapping[str, OutputVector],
    area_id: str,
    min_staff: float = 4.0,
    input_labels: Sequence[str] = INPUT_LABELS,
    output_labels: Sequence[str] = OUTPUT_LABELS,
) -> tuple[DeaProblem, tuple[Exclusion, ...]]:
    """Build the area's frontier problem, applying the exclusion rules.

    Universities whose mean staff total falls below ``min_staff``, or is
    zero whatever ``min_staff`` is, are dropped, as are universities with
    no output of any kind (neither can be placed on a radial output
    frontier).  Every drop is recorded.
    Fewer than two surviving universities means the area cannot be
    analyzed comparatively.
    """
    if set(inputs) != set(outputs):
        raise StructuralError(
            "inputs and outputs must cover the same universities"
        )
    if min_staff < 0:
        raise StructuralError(f"min_staff must be >= 0, got {min_staff}")
    input_labels = tuple(input_labels)
    output_labels = tuple(output_labels)
    if not input_labels or not output_labels:
        raise StructuralError("at least one input and one output required")

    exclusions: list[Exclusion] = []
    dmus: list[DmuRecord] = []
    for university_id in sorted(inputs):
        vec_in = inputs[university_id]
        vec_out = outputs[university_id]
        if vec_in.staff_total < min_staff:
            detail = (f"mean staff {vec_in.staff_total:g} below "
                      f"threshold {min_staff:g}")
        elif vec_in.staff_total == 0:
            detail = "no staff in the snapshot years"
        else:
            detail = None
        if detail is not None:
            exclusions.append(
                Exclusion(
                    university_id,
                    area_id,
                    EXCLUDED_BELOW_STAFF_THRESHOLD,
                    detail,
                )
            )
            continue
        out_values = vec_out.as_tuple(output_labels)
        if all(v == 0.0 for v in out_values):
            exclusions.append(
                Exclusion(
                    university_id,
                    area_id,
                    EXCLUDED_ZERO_OUTPUTS,
                    "all outputs are zero over the study window",
                )
            )
            continue
        dmus.append(
            DmuRecord(university_id, vec_in.as_tuple(input_labels), out_values)
        )

    if len(dmus) < 2:
        raise AreaNotAnalyzableError(
            area_id,
            f"area {area_id!r} has {len(dmus)} analyzable universities; "
            "at least 2 are required for a comparative frontier",
            tuple(exclusions),
        )
    problem = DeaProblem(tuple(dmus), input_labels, output_labels)
    return problem, tuple(exclusions)
