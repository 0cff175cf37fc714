"""Author-to-staff assignment.

The matching pipeline is deliberately rule-based and transparent:
affiliation strings are canonicalized through a pattern dictionary,
author tokens are matched to staff by surname and initials within the
universities named on the publication, and anything still ambiguous is
exported for human review rather than auto-resolved.
"""

from __future__ import annotations

import functools
import unicodedata
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

from .records import AuthorToken, Publication, StaffRegistry

MATCHED = "matched"
AMBIGUOUS = "ambiguous"
UNMATCHED = "unmatched"

CATEGORY_RESOLVED = "resolved"
CATEGORY_MANUAL = "manual"
CATEGORY_DISCARDED = "discarded"
CATEGORY_UNRESOLVABLE = "unresolvable"


def _fold_once(text: str) -> str:
    decomposed = unicodedata.normalize("NFKD", text)
    stripped = "".join(ch for ch in decomposed if not unicodedata.combining(ch))
    return stripped.casefold()


def normalize_text(text: str) -> str:
    """Case-fold, strip diacritics, drop punctuation, collapse whitespace.

    The fold step is iterated to a fixed point because case-folding can
    reintroduce decomposable characters; the result is stable under
    re-application.
    """
    folded = _fold_once(text)
    while True:
        again = _fold_once(folded)
        if again == folded:
            break
        folded = again
    cleaned = "".join(ch if ch.isalnum() else " " for ch in folded)
    return " ".join(cleaned.split())


@functools.lru_cache(maxsize=None)
def surname_variants(surname: str) -> frozenset[str]:
    """Normalized surname forms: the spaced form, and, when the surname
    has several parts (hyphenated or spaced), the joined form as well.

    Memoized for the life of the process: a corpus repeats each surname
    on every staff row and author token, and the result is immutable.
    """
    base = normalize_text(surname)
    if not base:
        return frozenset()
    variants = {base}
    if " " in base:
        variants.add(base.replace(" ", ""))
    return frozenset(variants)


@functools.lru_cache(maxsize=None)
def _normalized_initial(letter: str) -> str:
    folded = normalize_text(letter)
    return folded[0] if folded else letter.casefold()


@functools.lru_cache(maxsize=None)
def _normalized_initials(initials: tuple[str, ...]) -> tuple[str, ...]:
    """Normalized initial sequence, memoized like ``surname_variants``:
    ``match_author`` compares it for every member in every token's scope."""
    return tuple(_normalized_initial(ch) for ch in initials)


class AffiliationDictionary:
    """Map from raw affiliation patterns to canonical university ids.

    Patterns are compared after text normalization, so case, diacritics
    and punctuation never matter.  Ingest rejects blank patterns and
    university ids and patterns that would point at two universities.
    Each distinct raw string is normalized once per dictionary: raw
    affiliations repeat on every publication of a university.
    """

    def __init__(self, rows: Iterable[tuple[str, str]]):
        self._mapping = {
            normalize_text(raw_pattern): university_id
            for raw_pattern, university_id in rows
        }
        self._memo: dict[str, str | None] = {}

    def __len__(self) -> int:
        return len(self._mapping)

    def lookup(self, raw: str) -> str | None:
        if raw not in self._memo:
            self._memo[raw] = self._mapping.get(normalize_text(raw))
        return self._memo[raw]


@dataclass(frozen=True)
class MatchOutcome:
    """Result of matching one author token: matched to a staff id,
    ambiguous among several candidates, or unmatched."""

    kind: str
    staff_id: str | None = None
    candidates: tuple[str, ...] = ()

    @staticmethod
    def matched(staff_id: str) -> "MatchOutcome":
        return MatchOutcome(MATCHED, staff_id=staff_id)

    @staticmethod
    def ambiguous(candidates: Iterable[str]) -> "MatchOutcome":
        return MatchOutcome(AMBIGUOUS, candidates=tuple(candidates))

    @staticmethod
    def unmatched() -> "MatchOutcome":
        return MatchOutcome(UNMATCHED)


@dataclass(frozen=True)
class ManualReviewRow:
    """One ambiguous author token queued for human resolution."""

    pub_id: str
    position: int
    token_text: str
    candidate_ids: tuple[str, ...]


@dataclass(frozen=True)
class DisambiguationStats:
    total: int
    resolved: int
    manual: int
    discarded: int
    unresolvable: int


@dataclass(frozen=True)
class DisambiguationResult:
    """Per publication id, its authors' outcomes (position k at index
    k - 1, ``()`` for an author-less publication) and its category, plus
    ``matched_cells``: per publication with at least one matched author,
    the matched-author count b of each (area, university) cell, in
    author-position order.  Ingest rejects duplicate publication ids, so
    every publication has exactly one entry and one category."""

    outcomes: Mapping[str, tuple[MatchOutcome, ...]]
    categories: Mapping[str, str]
    manual_review: tuple[ManualReviewRow, ...]
    errors: tuple[str, ...]
    matched_cells: Mapping[str, Mapping[tuple[str, str], int]]

    @property
    def stats(self) -> DisambiguationStats:
        counts = Counter(self.categories.values())
        return DisambiguationStats(
            total=len(self.categories),
            resolved=counts[CATEGORY_RESOLVED],
            manual=counts[CATEGORY_MANUAL],
            discarded=counts[CATEGORY_DISCARDED],
            unresolvable=counts[CATEGORY_UNRESOLVABLE],
        )


class _SurnameIndex:
    """Per-university index from surname variant to staff members: the
    one place where candidates are selected by surname."""

    def __init__(self, staff: StaffRegistry):
        self._by_university: dict[str, dict[str, list]] = {}
        for member in staff:
            bucket = self._by_university.setdefault(member.university_id, {})
            for variant in surname_variants(member.surname):
                bucket.setdefault(variant, []).append(member)

    def candidates(
        self, token: AuthorToken, universities: Iterable[str], year: int
    ):
        token_variants = surname_variants(token.surname)
        found = {}
        for university_id in universities:
            bucket = self._by_university.get(university_id)
            if not bucket:
                continue
            for variant in token_variants:
                for member in bucket.get(variant, ()):
                    if member.active_in(year):
                        found[member.staff_id] = member
        return list(found.values())


def match_author(token: AuthorToken, staff_in_scope) -> MatchOutcome:
    """Apply the initial rules to one token against its surname scope.

    ``staff_in_scope`` holds the members ``_SurnameIndex.candidates``
    selected for the token: active in the publication year, at a
    university the publication names, and sharing a surname variant with
    the token; surnames are not compared again here.  Rules, in order:
    keep members whose first initial agrees with the token's; if the
    token carries several initials, also require the token's initial
    sequence to be a prefix of the member's; a single survivor (by staff
    id) is a match, several are ambiguous, none is unmatched.
    """
    token_initials = _normalized_initials(token.initials)
    candidates = []
    for member in staff_in_scope:
        member_initials = _normalized_initials(member.initials)
        if not member_initials or member_initials[0] != token_initials[0]:
            continue
        if len(token_initials) > 1:
            if len(member_initials) < len(token_initials):
                continue
            if member_initials[: len(token_initials)] != token_initials:
                continue
        candidates.append(member)
    candidates.sort(key=lambda m: m.staff_id)
    if len(candidates) == 1:
        return MatchOutcome.matched(candidates[0].staff_id)
    if candidates:
        return MatchOutcome.ambiguous(m.staff_id for m in candidates)
    return MatchOutcome.unmatched()


def disambiguate_corpus(
    publications: Iterable[Publication],
    staff: StaffRegistry,
    dictionary: AffiliationDictionary,
    overrides: Mapping[tuple[str, int], str | None] | None = None,
) -> DisambiguationResult:
    """Classify every publication and record its authors' outcomes.

    Publications with no author list at all are reported as unresolvable
    and skipped.  A publication with any ambiguous token goes to manual
    review; one with no staff evidence at all is discarded; the rest are
    resolved.  Overrides (from a review file that ``load_overrides`` has
    checked against the corpus) replace rule matching for the named
    positions.  Each matched author, override or not, counts toward the
    (area, university) cell of its staff member.
    """
    overrides = overrides or {}
    index = _SurnameIndex(staff)

    outcomes: dict[str, tuple[MatchOutcome, ...]] = {}
    manual_rows: list[ManualReviewRow] = []
    categories: dict[str, str] = {}
    errors: list[str] = []
    matched_cells: dict[str, dict[tuple[str, str], int]] = {}
    # Affiliation fields and outcomes repeat across the corpus: each
    # distinct field's universities are resolved once, and equal
    # outcomes are kept as one object for the life of the result.
    canonical_of: dict[tuple[str, ...], tuple[str, ...]] = {}
    shared: dict[MatchOutcome, MatchOutcome] = {}

    for pub in publications:
        if not pub.authors:
            outcomes[pub.pub_id] = ()
            categories[pub.pub_id] = CATEGORY_UNRESOLVABLE
            errors.append(
                f"publication {pub.pub_id!r} has an empty author list"
            )
            continue
        canonical = canonical_of.get(pub.raw_affiliations)
        if canonical is None:
            canonical = canonical_of[pub.raw_affiliations] = tuple(
                sorted(
                    {
                        uid
                        for raw in pub.raw_affiliations
                        if (uid := dictionary.lookup(raw)) is not None
                    }
                )
            )
        pub_outcomes = []
        cells: dict[tuple[str, str], int] = {}
        for position, token in enumerate(pub.authors, start=1):
            key = (pub.pub_id, position)
            if key in overrides:
                staff_id = overrides[key]
                outcome = (MatchOutcome.unmatched() if staff_id is None
                           else MatchOutcome.matched(staff_id))
            else:
                scope = index.candidates(token, canonical, pub.year)
                outcome = match_author(token, scope)
            outcome = shared.setdefault(outcome, outcome)
            pub_outcomes.append(outcome)
            if outcome.kind == MATCHED:
                member = staff.member(outcome.staff_id)
                cell = (member.area_id, member.university_id)
                cells[cell] = cells.get(cell, 0) + 1
            elif outcome.kind == AMBIGUOUS:
                manual_rows.append(
                    ManualReviewRow(
                        pub.pub_id, position, str(token), outcome.candidates
                    )
                )
        outcomes[pub.pub_id] = tuple(pub_outcomes)
        if cells:
            matched_cells[pub.pub_id] = cells
        if any(o.kind == AMBIGUOUS for o in pub_outcomes):
            categories[pub.pub_id] = CATEGORY_MANUAL
        elif cells:
            categories[pub.pub_id] = CATEGORY_RESOLVED
        else:
            categories[pub.pub_id] = CATEGORY_DISCARDED

    return DisambiguationResult(
        outcomes=outcomes,
        categories=categories,
        manual_review=tuple(manual_rows),
        errors=tuple(errors),
        matched_cells=matched_cells,
    )
