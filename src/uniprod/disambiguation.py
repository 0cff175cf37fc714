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
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import StructuralError
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

    def __post_init__(self):
        if self.kind not in (MATCHED, AMBIGUOUS, UNMATCHED):
            raise StructuralError(f"invalid outcome kind {self.kind!r}")
        if self.kind == MATCHED and not self.staff_id:
            raise StructuralError("matched outcome requires a staff id")
        if self.kind == AMBIGUOUS and len(self.candidates) < 2:
            raise StructuralError(
                "ambiguous outcome requires at least two candidates"
            )

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
class Assignment:
    """Outcome for one author position (1-based) of one publication."""

    pub_id: str
    position: int
    outcome: MatchOutcome


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

    def __post_init__(self):
        parts = self.resolved + self.manual + self.discarded + self.unresolvable
        if parts != self.total:
            raise StructuralError(
                f"categories do not partition the corpus: "
                f"{self.resolved}+{self.manual}+{self.discarded}"
                f"+{self.unresolvable} != {self.total}"
            )


@dataclass(frozen=True)
class DisambiguationResult:
    assignments: tuple[Assignment, ...]
    stats: DisambiguationStats
    manual_review: tuple[ManualReviewRow, ...]
    categories: Mapping[str, str]
    errors: tuple[str, ...]


class _SurnameIndex:
    """Per-university index from surname variant to staff members."""

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
        return [found[k] for k in sorted(found)]


def match_author(token: AuthorToken, staff_in_scope) -> MatchOutcome:
    """Apply the matching rules to one token against pre-scoped staff.

    Rules, in order: keep staff whose surname and first initial agree
    with the token; if the token carries several initials, also require
    the token's initial sequence to be a prefix of the member's; a single
    survivor is a match, several are ambiguous, none is unmatched.
    """
    token_initials = _normalized_initials(token.initials)
    token_variants = surname_variants(token.surname)
    candidates = []
    for member in staff_in_scope:
        if surname_variants(member.surname).isdisjoint(token_variants):
            continue
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


def _validate_override(
    pub: Publication,
    position: int,
    staff_id: str | None,
    staff: StaffRegistry,
    canonical: tuple[str, ...],
) -> MatchOutcome:
    if staff_id is None:
        return MatchOutcome.unmatched()
    member = staff.member(staff_id)
    if member.university_id not in canonical:
        raise StructuralError(
            f"override for publication {pub.pub_id!r} position {position} "
            f"assigns staff {staff_id!r} at university "
            f"{member.university_id!r}, which the publication's "
            "affiliations do not name"
        )
    if not member.active_in(pub.year):
        raise StructuralError(
            f"override for publication {pub.pub_id!r} position {position} "
            f"assigns staff {staff_id!r}, inactive in {pub.year}"
        )
    return MatchOutcome.matched(staff_id)


def disambiguate_corpus(
    publications: Iterable[Publication],
    staff: StaffRegistry,
    dictionary: AffiliationDictionary,
    overrides: Mapping[tuple[str, int], str | None] | None = None,
) -> DisambiguationResult:
    """Classify every publication and assign its author tokens.

    Publications with no author list at all are reported as unresolvable
    and skipped.  A publication with any ambiguous token goes to manual
    review; one with no staff evidence at all is discarded; the rest are
    resolved.  Overrides (from a review file that ``load_overrides`` has
    checked against the corpus) replace rule matching for the named
    positions; each must still name a staff member of one of the
    publication's universities, active in its year.
    """
    publications = tuple(publications)
    overrides = dict(overrides or {})
    index = _SurnameIndex(staff)

    assignments: list[Assignment] = []
    manual_rows: list[ManualReviewRow] = []
    categories: dict[str, str] = {}
    errors: list[str] = []
    counts = {
        CATEGORY_RESOLVED: 0,
        CATEGORY_MANUAL: 0,
        CATEGORY_DISCARDED: 0,
        CATEGORY_UNRESOLVABLE: 0,
    }

    for pub in publications:
        if not pub.authors:
            categories[pub.pub_id] = CATEGORY_UNRESOLVABLE
            counts[CATEGORY_UNRESOLVABLE] += 1
            errors.append(
                f"publication {pub.pub_id!r} has an empty author list"
            )
            continue
        canonical = tuple(
            sorted(
                {
                    uid
                    for raw in pub.raw_affiliations
                    if (uid := dictionary.lookup(raw)) is not None
                }
            )
        )
        matched_any = False
        ambiguous_any = False
        for position, token in enumerate(pub.authors, start=1):
            key = (pub.pub_id, position)
            if key in overrides:
                outcome = _validate_override(
                    pub, position, overrides[key], staff, canonical
                )
            else:
                scope = index.candidates(token, canonical, pub.year)
                outcome = match_author(token, scope)
            assignments.append(Assignment(pub.pub_id, position, outcome))
            if outcome.kind == MATCHED:
                matched_any = True
            elif outcome.kind == AMBIGUOUS:
                ambiguous_any = True
                manual_rows.append(
                    ManualReviewRow(
                        pub.pub_id, position, str(token), outcome.candidates
                    )
                )
        if ambiguous_any:
            category = CATEGORY_MANUAL
        elif matched_any:
            category = CATEGORY_RESOLVED
        else:
            category = CATEGORY_DISCARDED
        categories[pub.pub_id] = category
        counts[category] += 1

    stats = DisambiguationStats(
        total=len(publications),
        resolved=counts[CATEGORY_RESOLVED],
        manual=counts[CATEGORY_MANUAL],
        discarded=counts[CATEGORY_DISCARDED],
        unresolvable=counts[CATEGORY_UNRESOLVABLE],
    )
    return DisambiguationResult(
        assignments=tuple(assignments),
        stats=stats,
        manual_review=tuple(manual_rows),
        categories=categories,
        errors=tuple(errors),
    )
