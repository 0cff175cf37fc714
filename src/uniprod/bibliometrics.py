"""Construction of efficiency-model variables from matched publications,
staff registries and funding tables.

Outputs per (area, university) cell: PU, the count of publications with
at least one matched author in the cell; PC, the fractional author
contribution sum b/c; SS, the impact-weighted publication sum.  Inputs:
mean headcounts by rank and mean competitive funding, both measured at
the end of the year preceding each output year.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Sequence

from .dea import DeaProblem, DmuRecord
from .errors import AreaNotAnalyzableError
from .records import COUNTED_DOC_TYPES, Publication, StaffRegistry

INPUT_LABELS = ("FP", "AP", "RF", "PR")
OUTPUT_LABELS = ("PU", "PC", "SS")

EXCLUDED_BELOW_STAFF_THRESHOLD = "below_staff_threshold"
EXCLUDED_ZERO_OUTPUTS = "zero_outputs"


class InputVector(NamedTuple):
    """A cell's inputs, fields in ``INPUT_LABELS`` order: the mean
    headcounts in ``RANKS`` order, then the mean funding."""

    fp: float
    ap: float
    rf: float
    pr: float

    @property
    def staff_total(self) -> float:
        return self.fp + self.ap + self.rf


class OutputVector(NamedTuple):
    """A cell's outputs, fields in ``OUTPUT_LABELS`` order."""

    pu: float
    pc: float
    ss: float


class MatchedCorpus:
    """Per (area, university) cell, the publications with matched
    authors in it, as ``(publication, b)`` with b the cell's
    matched-author count, in publication input order.

    ``matched_by_cell`` is ``DisambiguationResult.matched_by_cell``.
    Only article and review records ever contribute to outputs; other
    document types are carried but inert.
    """

    def __init__(
        self,
        matched_by_cell: Mapping[tuple[str, str],
                                 Sequence[tuple[Publication, int]]],
    ):
        self._by_cell = matched_by_cell

    def cell_rows(
        self, area_id: str, university_id: str, years: Iterable[int]
    ) -> list[tuple[Publication, int]]:
        """The cell's counted pairs whose year lies in ``years``, in pair
        order, which is publication id order (ids are unique)."""
        window = set(years)
        return sorted([
            pair for pair in self._by_cell.get((area_id, university_id), ())
            if pair[0].year in window and pair[0].doc_type in COUNTED_DOC_TYPES
        ])


def compute_output_vector(
    corpus: MatchedCorpus,
    journals: Mapping[tuple[str, int], float],
    area_id: str,
    university_id: str,
    years: Iterable[int],
    warnings: list[str],
) -> OutputVector:
    """PU, PC and SS of one cell from a single scan of its pairs; c is
    each publication's author count.

    ``journals`` maps (journal_id, year) to the impact weight.  A
    publication whose journal has no weight for its year adds nothing to
    SS; each such case appends one message to ``warnings``.
    """
    pairs = corpus.cell_rows(area_id, university_id, years)
    pc = 0.0
    ss = 0.0
    for pub, b in pairs:
        pc += b / pub.author_count
        weight = journals.get((pub.journal_id, pub.year))
        if weight is None:
            warnings.append(
                f"no impact weight for journal {pub.journal_id!r} in "
                f"{pub.year} (publication {pub.pub_id!r})"
            )
            continue
        ss += weight
    return OutputVector(pu=float(len(pairs)), pc=pc, ss=ss)


def build_input_vector(
    staff: StaffRegistry,
    funding: Mapping[tuple[str, str, int], float],
    area_id: str,
    university_id: str,
    output_years: Sequence[int],
    lag: int,
) -> InputVector:
    """Mean staff headcounts and funding over the lagged window.

    For each output year y the snapshot is taken at 31 December of
    y - lag.  Snapshot years outside the registry's covered span read as
    zero headcounts here; ``run_pipeline`` rejects such a configuration
    once per run, before any cell is built.  ``funding`` maps
    (university_id, area_id, year) to k€; a cell with no grant row in a
    year reads 0 for that year.
    """
    snapshot_years = [y - lag for y in output_years]
    n = len(snapshot_years)
    heads = [count / n for count in
             staff.headcounts(area_id, university_id, snapshot_years)]
    pr = sum(
        funding.get((university_id, area_id, s), 0.0) for s in snapshot_years
    ) / n
    return InputVector(*heads, pr)


def assemble_problem(
    inputs: Mapping[str, InputVector],
    outputs: Mapping[str, OutputVector],
    area_id: str,
    min_staff: float,
) -> tuple[DeaProblem, tuple[dict, ...]]:
    """Build the area's frontier problem, applying the exclusion rules.

    Universities whose mean staff total falls below ``min_staff``, or is
    zero whatever ``min_staff`` is, are dropped, as are universities with
    no output of any kind (neither can be placed on a radial output
    frontier).  Every drop is recorded as an ``exclusions`` table row
    (area, university, reason code, human explanation).
    Fewer than two surviving universities means the area cannot be
    analyzed comparatively.

    The units are sorted by id here and nowhere else: that order fixes
    the LP columns, and with them the simplex's pivots.
    """
    exclusions: list[dict] = []
    dmus: list[DmuRecord] = []
    for university_id in sorted(inputs):
        vec_in = inputs[university_id]
        vec_out = outputs[university_id]
        if vec_in.staff_total < min_staff:
            reason = EXCLUDED_BELOW_STAFF_THRESHOLD
            detail = (f"mean staff {vec_in.staff_total:g} below "
                      f"threshold {min_staff:g}")
        elif vec_in.staff_total == 0:
            reason = EXCLUDED_BELOW_STAFF_THRESHOLD
            detail = "no staff in the snapshot years"
        elif not any(vec_out):
            reason = EXCLUDED_ZERO_OUTPUTS
            detail = "all outputs are zero over the study window"
        else:
            dmus.append(DmuRecord(university_id, vec_in, vec_out))
            continue
        exclusions.append({"area_id": area_id, "university_id": university_id,
                           "reason": reason, "detail": detail})

    if len(dmus) < 2:
        raise AreaNotAnalyzableError(
            f"area {area_id!r} has {len(dmus)} analyzable universities; "
            "at least 2 are required for a comparative frontier",
            tuple(exclusions),
        )
    problem = DeaProblem(tuple(dmus), INPUT_LABELS, OUTPUT_LABELS)
    return problem, tuple(exclusions)
