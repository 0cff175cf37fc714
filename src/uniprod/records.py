"""Core domain records: staff, publications, journals, funding.

These are plain immutable carriers.  They check nothing: ``ingest`` is
the one place that validates outside input, so build them through it
(or, in tests, from values that already satisfy its rules).  Text
normalization and matching logic live elsewhere; the registry types
here only provide exact-key indexing and headcount queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import StructuralError, UnknownIdError

RANK_FULL = "FP"
RANK_ASSOCIATE = "AP"
RANK_FELLOW = "RF"
RANKS = (RANK_FULL, RANK_ASSOCIATE, RANK_FELLOW)

DOC_ARTICLE = "article"
DOC_REVIEW = "review"
DOC_OTHER = "other"
DOC_TYPES = (DOC_ARTICLE, DOC_REVIEW, DOC_OTHER)
#: document types that enter any output computation
COUNTED_DOC_TYPES = frozenset({DOC_ARTICLE, DOC_REVIEW})


@dataclass(frozen=True)
class AuthorToken:
    """One author entry on a publication: surname plus ordered initials."""

    surname: str
    initials: tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.surname},{'.'.join(self.initials)}."


@dataclass(frozen=True)
class StaffMember:
    """A research staff row: one person, one rank, one university and
    disciplinary area, active over an inclusive year range."""

    staff_id: str
    surname: str
    first_names: str
    rank: str
    university_id: str
    area_id: str
    year_from: int
    year_to: int

    @cached_property
    def initials(self) -> tuple[str, ...]:
        """First letter of each given-name part, in order (computed once
        per member; matching reads it for every token in scope)."""
        parts: list[str] = []
        for chunk in self.first_names.replace("-", " ").split():
            parts.append(chunk[0].upper())
        return tuple(parts)

    def active_in(self, year: int) -> bool:
        """Whether the member is on staff at 31 December of ``year``."""
        return self.year_from <= year <= self.year_to


@dataclass(frozen=True)
class Publication:
    """A bibliographic record.

    ``authors`` is the full ordered author list; its length is the total
    author count c used by fractional counting.  An empty author list is
    representable (it marks a structurally corrupt record that downstream
    processing must report, not a valid publication).
    """

    pub_id: str
    year: int
    doc_type: str
    journal_id: str
    authors: tuple[AuthorToken, ...]
    raw_affiliations: tuple[str, ...]

    @property
    def author_count(self) -> int:
        return len(self.authors)

    @property
    def counts_as_output(self) -> bool:
        return self.doc_type in COUNTED_DOC_TYPES


class StaffRegistry:
    """Immutable collection of staff rows with exact-key indexes.

    Staff ids are expected to be unique (ingest rejects duplicates);
    surname matching against author tokens is out of scope (a matching
    layer builds its own normalized indexes on top of this registry).
    """

    def __init__(self, members: Iterable[StaffMember]):
        self._members = tuple(members)
        self._by_id = {m.staff_id: m for m in self._members}
        by_cell: dict[tuple[str, str], list[StaffMember]] = {}
        for m in self._members:
            by_cell.setdefault((m.area_id, m.university_id), []).append(m)
        self._by_cell = {k: tuple(v) for k, v in by_cell.items()}

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self) -> Iterator[StaffMember]:
        return iter(self._members)

    def member(self, staff_id: str) -> StaffMember:
        try:
            return self._by_id[staff_id]
        except KeyError:
            raise UnknownIdError(f"unknown staff id {staff_id!r}") from None

    def __contains__(self, staff_id: str) -> bool:
        return staff_id in self._by_id

    def in_cell(self, area_id: str, university_id: str) -> tuple[StaffMember, ...]:
        return self._by_cell.get((area_id, university_id), ())

    def university_ids(self) -> tuple[str, ...]:
        return tuple(sorted({u for (_, u) in self._by_cell}))

    def area_ids(self) -> tuple[str, ...]:
        return tuple(sorted({m.area_id for m in self._members}))

    def universities_in_area(self, area_id: str) -> tuple[str, ...]:
        return tuple(
            sorted({u for (a, u) in self._by_cell if a == area_id})
        )

    def headcount(
        self, area_id: str, university_id: str, rank: str, year: int
    ) -> int:
        """Members of ``rank`` on staff in the cell at 31 December of ``year``."""
        if rank not in RANKS:
            raise StructuralError(f"rank must be one of {RANKS}, got {rank!r}")
        return sum(
            1
            for m in self.in_cell(area_id, university_id)
            if m.rank == rank and m.active_in(year)
        )

    def coverage(self) -> tuple[int, int] | None:
        """Year span covered by at least one member, or None when empty."""
        if not self._members:
            return None
        return (
            min(m.year_from for m in self._members),
            max(m.year_to for m in self._members),
        )


class JournalTable:
    """Per-journal, per-year impact weights.

    Lookups return None for any (journal, year) pair without a stored
    weight; callers decide whether that is a warning or an error.
    """

    def __init__(self, rows: Iterable[tuple[str, int, float]]):
        self._weights = {(j, year): weight for j, year, weight in rows}
        self._ids = frozenset(j for (j, _) in self._weights)

    def __contains__(self, journal_id: str) -> bool:
        return journal_id in self._ids

    def __len__(self) -> int:
        return len(self._weights)

    def weight_for(self, journal_id: str, year: int) -> float | None:
        return self._weights.get((journal_id, year))


class FundingTable:
    """Competitive funding amounts keyed by (university, area, year), in k€.

    Absent rows read as 0: a cell that received no grant in a year simply
    has no row, and zero amounts do occur in recorded data.
    """

    def __init__(self, rows: Iterable[tuple[str, str, int, float]]):
        self._amounts = {(u, a, year): keur for u, a, year, keur in rows}

    def __len__(self) -> int:
        return len(self._amounts)

    def amount(self, university_id: str, area_id: str, year: int) -> float:
        return self._amounts.get((university_id, area_id, year), 0.0)
