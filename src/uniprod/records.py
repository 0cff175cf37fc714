"""Core domain records: staff and publications.

These are plain immutable carriers.  They check nothing: ``ingest`` is
the one place that validates outside input, so build them through it
(or, in tests, from values that already satisfy its rules).  Text
normalization and matching logic live elsewhere; the staff registry
only provides exact-key indexing and per-cell headcounts.  Journal
weights, funding amounts and affiliation patterns need no type of their
own: ``ingest`` keeps each as a plain dict (see ``Corpus``).
``StaffMember``, ``Publication`` and ``AuthorToken`` are
``typing.NamedTuple`` types: one cheap object each, equal to the tuple
of its fields.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence

#: full professors, associate professors, research fellows
RANKS = ("FP", "AP", "RF")

DOC_ARTICLE = "article"
DOC_REVIEW = "review"
DOC_OTHER = "other"
DOC_TYPES = (DOC_ARTICLE, DOC_REVIEW, DOC_OTHER)
#: document types that enter any output computation
COUNTED_DOC_TYPES = frozenset({DOC_ARTICLE, DOC_REVIEW})


class AuthorToken(NamedTuple):
    """One author entry on a publication: surname plus ordered initials."""

    surname: str
    initials: tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.surname},{'.'.join(self.initials)}."


class StaffMember(NamedTuple):
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

    @property
    def initials(self) -> tuple[str, ...]:
        """First letter of each given-name part, in order, none for a part
        with no letter."""
        parts = self.first_names.replace("-", " ").split()
        letters = (next(filter(str.isalpha, part), "") for part in parts)
        return tuple(letter.upper() for letter in letters if letter)

    def active_in(self, year: int) -> bool:
        """Whether the member is on staff at 31 December of ``year``."""
        return self.year_from <= year <= self.year_to


class Publication(NamedTuple):
    """A bibliographic record.

    ``authors`` is the full ordered author list; its length is the total
    author count c used by fractional counting.  An empty author list is
    representable (it marks a structurally corrupt record that downstream
    processing must report, not a valid publication).  ``universities``
    are the sorted ids of those its affiliations name, resolved at ingest.
    """

    pub_id: str
    year: int
    doc_type: str
    journal_id: str
    authors: tuple[AuthorToken, ...]
    universities: tuple[str, ...]

    @property
    def author_count(self) -> int:
        return len(self.authors)


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

    def member(self, staff_id: str) -> StaffMember | None:
        """The member with ``staff_id``, or None for an unknown id."""
        return self._by_id.get(staff_id)

    def university_ids(self) -> tuple[str, ...]:
        return tuple(sorted({u for (_, u) in self._by_cell}))

    def area_ids(self) -> tuple[str, ...]:
        return tuple(sorted({m.area_id for m in self._members}))

    def universities_in_area(self, area_id: str) -> tuple[str, ...]:
        """The area's universities in registry order."""
        return tuple(u for (a, u) in self._by_cell if a == area_id)

    def headcounts(self, area_id: str, university_id: str,
                   years: Sequence[int]) -> tuple[int, ...]:
        """Per rank, in ``RANKS`` order, the cell's members on staff at
        31 December of each of ``years``, summed over the years."""
        counts = dict.fromkeys(RANKS, 0)
        for m in self._by_cell.get((area_id, university_id), ()):
            for year in years:
                if m.year_from <= year <= m.year_to:
                    counts[m.rank] += 1
        return tuple(counts.values())

    def coverage(self) -> tuple[int, int]:
        """Year span covered by at least one member of a non-empty
        registry."""
        return (
            min(m.year_from for m in self._members),
            max(m.year_to for m in self._members),
        )
