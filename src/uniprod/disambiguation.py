"""Author-to-staff assignment.

The matching is deliberately rule-based and transparent, and reads
staff and names only: ``ingest`` resolved the universities each
publication names (``Publication.universities``).  Within those, an
author token is matched to the staff active in its year who share its
surname key (the normalized surname without spaces; an empty key
matches nothing) and whose normalized initials start with the token's.
Anything still ambiguous is exported for human review rather than
auto-resolved.

``decide`` is the one matching loop: it yields each publication with
its authors' outcomes, and ``disambiguate_corpus`` keeps only what the
study reads of them, so no outcome outlives the matching.
"""

from __future__ import annotations

import functools
import unicodedata
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple

from .records import AuthorToken, Publication, StaffRegistry

MATCHED = "matched"
AMBIGUOUS = "ambiguous"
UNMATCHED = "unmatched"


def normalize_text(text: str) -> str:
    """Case-fold, strip diacritics, drop punctuation, collapse whitespace.

    One fold is stable under re-application: NFKD, the dropping of
    combining marks and ``casefold`` each map one character at a time,
    and no code point's fold folds again (a test checks every one).
    """
    decomposed = unicodedata.normalize("NFKD", text)
    folded = "".join(ch for ch in decomposed
                     if not unicodedata.combining(ch)).casefold()
    cleaned = "".join(ch if ch.isalnum() else " " for ch in folded)
    return " ".join(cleaned.split())


@functools.lru_cache(maxsize=None)
def surname_key(surname: str) -> str:
    """The surname's normalized form with its spaces removed, so that a
    compound surname spelled spaced, hyphenated or joined has one key.
    An empty key (a surname of punctuation only) matches nothing.

    Memoized for the life of the process: a corpus repeats each surname
    on every staff row and author token.
    """
    return normalize_text(surname).replace(" ", "")


@functools.lru_cache(maxsize=None)
def _normalized_initial(letter: str) -> str:
    folded = normalize_text(letter)
    return folded[0] if folded else letter.casefold()


@functools.lru_cache(maxsize=None)
def _normalized_initials(initials: tuple[str, ...]) -> tuple[str, ...]:
    """Normalized initial sequence, memoized like ``surname_key``:
    ``match_author`` compares it for every member in every token's scope."""
    return tuple(_normalized_initial(ch) for ch in initials)


class MatchOutcome(NamedTuple):
    """Result of matching one author token: matched to a staff id,
    ambiguous among several candidates, or unmatched.

    ``matched`` interns for one ``decide`` call: it returns one object
    per staff id until the call finishes, since a corpus repeats few
    decisions over many tokens.  Every unmatched token shares one
    module constant; an ambiguous outcome is built as it is found."""

    kind: str
    staff_id: str | None = None
    candidates: tuple[str, ...] = ()

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def matched(staff_id: str) -> "MatchOutcome":
        return MatchOutcome(MATCHED, staff_id=staff_id)


_UNMATCHED = MatchOutcome(UNMATCHED)


@dataclass(frozen=True)
class DisambiguationResult:
    """What the study reads of the matching: ``matched_cells``, per
    publication with at least one matched author, the matched-author
    count b of each (area, university) cell, in author-position order
    (publications whose maps are equal, in the same order, share one
    dict, so the maps are read-only); ``manual_review``, the
    ``manual_review`` table's rows, one per ambiguous author token, in
    publication order; the errors; and ``stats``, the
    ``disambiguation_stats`` row of publications per category.  No
    outcome is kept: ``decide`` gives them."""

    manual_review: tuple[dict, ...]
    errors: tuple[str, ...]
    matched_cells: Mapping[str, Mapping[tuple[str, str], int]]
    stats: dict


def match_author(token: AuthorToken, staff_in_scope) -> MatchOutcome:
    """Apply the initials rule to one token against its surname scope.

    ``staff_in_scope`` holds the members ``decide`` selected for the
    token: active in the publication year, at a university the
    publication names, and with the token's surname key; surnames are
    not compared again here.  A member survives when the token's
    normalized initials are a prefix of its own (for a one-initial token,
    when the first initials agree); a single survivor is a match, several
    are ambiguous (in staff-id order), none is unmatched.
    """
    token_initials = _normalized_initials(token.initials)
    k = len(token_initials)
    found = [member.staff_id for member in staff_in_scope
             if _normalized_initials(member.initials)[:k] == token_initials]
    if len(found) == 1:
        return MatchOutcome.matched(found[0])
    if found:
        return MatchOutcome(AMBIGUOUS, candidates=tuple(sorted(found)))
    return _UNMATCHED


def decide(
    publications: Iterable[Publication],
    staff: StaffRegistry,
    overrides: Mapping[tuple[str, int], str | None] | None = None,
) -> Iterator[tuple[Publication, tuple[MatchOutcome, ...]]]:
    """Yield each publication with its authors' outcomes, in input order.

    The outcomes are in author order, ``()`` for a publication with no
    author list.  Overrides (from a review file that ``load_overrides``
    has checked against the corpus) replace rule matching for the named
    positions.  Every other token is decided by one ``match_author``
    call on its scope, built in the order of the publication's
    universities and of the registry.  Matched outcomes are interned
    until the call finishes, and then released.
    """
    # The one place where candidates are selected by surname: per
    # university, its members by surname key.  A member whose key is
    # empty is never filed, so no token can reach it.
    by_surname: dict[str, dict[str, list]] = defaultdict(dict)
    for member in staff:
        if key := surname_key(member.surname):
            by_surname[member.university_id].setdefault(key, []).append(member)
    try:
        for pub in publications:
            if not pub.authors:
                yield pub, ()
                continue
            year = pub.year
            filed = [by_surname[u] for u in pub.universities]
            outcomes = []
            for position, token in enumerate(pub.authors, start=1):
                if overrides and (pub.pub_id, position) in overrides:
                    staff_id = overrides[pub.pub_id, position]
                    outcomes.append(_UNMATCHED if staff_id is None
                                    else MatchOutcome.matched(staff_id))
                    continue
                token_key = surname_key(token.surname)
                scope = [member for by_key in filed
                         for member in by_key.get(token_key, ())
                         if member.year_from <= year <= member.year_to]
                outcomes.append(match_author(token, scope))
            yield pub, tuple(outcomes)
    finally:
        MatchOutcome.matched.cache_clear()


def disambiguate_corpus(
    publications: Iterable[Publication],
    staff: StaffRegistry,
    overrides: Mapping[tuple[str, int], str | None] | None = None,
) -> DisambiguationResult:
    """Classify every publication by its outcomes from ``decide``.

    Publications with no author list at all are reported as unresolvable.
    A publication with any ambiguous token goes to manual review; one
    with no staff evidence at all is discarded; the rest are resolved.
    Each matched author, override or not, counts toward the (area,
    university) cell of its staff member.
    """
    cell_of = {member.staff_id: (member.area_id, member.university_id)
               for member in staff}
    counts = dict.fromkeys(("resolved", "manual", "discarded",
                            "unresolvable"), 0)
    manual_rows: list[dict] = []
    errors: list[str] = []
    matched_cells: dict[str, dict[tuple[str, str], int]] = {}
    # One dict per distinct cell-count map, in its order: a corpus has
    # many publications and few distinct maps.
    shared_cells: dict[tuple, dict[tuple[str, str], int]] = {}

    for pub, outcomes in decide(publications, staff, overrides):
        pub_id = pub.pub_id
        if not outcomes:
            counts["unresolvable"] += 1
            errors.append(f"publication {pub_id!r} has an empty author list")
            continue
        cells: dict[tuple[str, str], int] = {}
        ambiguous = False
        for outcome in outcomes:
            if outcome.kind == MATCHED:
                cell = cell_of[outcome.staff_id]
                cells[cell] = cells.get(cell, 0) + 1
            elif outcome.kind == AMBIGUOUS:
                ambiguous = True
        if cells:
            matched_cells[pub_id] = shared_cells.setdefault(
                tuple(cells.items()), cells)
        if ambiguous:
            counts["manual"] += 1
            manual_rows += (
                {"pub_id": pub_id, "author_position": position,
                 "token": str(token),
                 "candidates": ";".join(outcome.candidates)}
                for position, (token, outcome)
                in enumerate(zip(pub.authors, outcomes), start=1)
                if outcome.kind == AMBIGUOUS)
        elif cells:
            counts["resolved"] += 1
        else:
            counts["discarded"] += 1

    return DisambiguationResult(
        manual_review=tuple(manual_rows),
        errors=tuple(errors),
        matched_cells=matched_cells,
        stats={"total": sum(counts.values()), **counts},
    )
