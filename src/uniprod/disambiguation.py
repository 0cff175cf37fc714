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
study reads of them, so no outcome outlives the matching.  The module
keeps no state between calls.  Each ``decide`` call builds one
``Candidate`` per staff member with a surname key, files the candidates
by (university, year) and then by key, and normalizes each distinct
surname and initial letter once; all of it goes with the call.  About
90% of publications name one university (85% of author tokens, on the
generated benchmark corpora), and their tokens' scopes are the filed
lists themselves, with no list built.
"""

from __future__ import annotations

import unicodedata
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .records import Publication, StaffRegistry

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


def surname_key(surname: str) -> str:
    """The surname's normalized form with its spaces removed, so that a
    compound surname spelled spaced, hyphenated or joined has one key.
    An empty key (a surname of punctuation only) matches nothing."""
    return normalize_text(surname).replace(" ", "")


def _normalized_initial(letter: str) -> str:
    folded = normalize_text(letter)
    return folded[0] if folded else letter.casefold()


class MatchOutcome(NamedTuple):
    """Result of matching one author token: matched to a staff id,
    ambiguous among several candidates, or unmatched.

    Within one ``decide`` call each staff member's matched outcome is
    one object, built with its ``Candidate``; every unmatched token
    shares one module constant; an ambiguous outcome, and an override's
    matched outcome, is built as it is found."""

    kind: str
    staff_id: str | None = None
    candidates: tuple[str, ...] = ()


_UNMATCHED = MatchOutcome(UNMATCHED)


class Candidate(NamedTuple):
    """One staff member as the matching reads it: the years it is on
    staff, its normalized initials and its matched outcome."""

    year_from: int
    year_to: int
    initials: tuple[str, ...]
    outcome: MatchOutcome


class _Memo(dict):
    """Each value computed from its key once, on its first lookup."""

    __slots__ = ("compute",)

    def __init__(self, compute):
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


@dataclass(frozen=True)
class DisambiguationResult:
    """What the study reads of the matching: ``matched_by_cell``, per
    (area, university) cell, each publication with b >= 1 matched
    authors in the cell as ``(publication, b)``, in publication order,
    whatever its document type; ``manual_review``, the ``manual_review``
    table's rows, one per ambiguous author token, in publication order;
    the errors; and ``stats``, the ``disambiguation_stats`` row of
    publications per category.  No outcome is kept: ``decide`` gives
    them."""

    manual_review: tuple[dict, ...]
    errors: tuple[str, ...]
    matched_by_cell: Mapping[tuple[str, str], list[tuple[Publication, int]]]
    stats: dict


def match_author(initials: tuple[str, ...],
                 candidates: Sequence[Candidate]) -> MatchOutcome:
    """Apply the initials rule to one token's normalized initials.

    ``candidates`` are the members ``decide`` selected for the token:
    active in the publication year, at a university the publication
    names, and with the token's surname key; surnames and years are not
    compared again here.  A member survives when the token's initials
    are a prefix of its own (for a one-initial token, when the first
    initials agree); a single survivor is a match, several are
    ambiguous (in staff-id order), none is unmatched.
    """
    k = len(initials)
    found = []
    for candidate in candidates:
        if candidate.initials[:k] == initials:
            found.append(candidate.outcome)
    if len(found) == 1:
        return found[0]
    if found:
        return MatchOutcome(AMBIGUOUS, candidates=tuple(sorted(
            outcome.staff_id for outcome in found)))
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
    call on its scope: the candidates filed under its surname key for
    each university the publication names, in that order, and in
    registry order within each.
    """
    # Memos for this call only: normalize_text runs once per distinct
    # surname and per distinct initial letter.
    key_of = _Memo(surname_key)
    letter_of = _Memo(_normalized_initial)
    initials_of = _Memo(lambda letters: tuple(letter_of[ch]
                                              for ch in letters))
    # The one place where candidates are selected by surname: per
    # university, its candidates by surname key.  A member whose key is
    # empty is never filed, so no token can reach it.
    by_university: dict[str, dict[str, list[Candidate]]] = {}
    for member in staff:
        if key := key_of[member.surname]:
            by_university.setdefault(member.university_id, {}).setdefault(
                key, []).append(Candidate(
                    member.year_from, member.year_to,
                    initials_of[member.initials],
                    MatchOutcome(MATCHED, staff_id=member.staff_id)))
    # Then per (university, year), on first lookup, the candidates on
    # staff that year.  A list whose candidates are all on staff is
    # filed as it is, so most years share their university's lists.
    def filed(slot: tuple[str, int]) -> dict[str, list[Candidate]]:
        university, year = slot
        by_key = {}
        for key, candidates in by_university.get(university, {}).items():
            active = [c for c in candidates
                      if c.year_from <= year <= c.year_to]
            if active:
                by_key[key] = (candidates if len(active) == len(candidates)
                               else active)
        return by_key

    index = _Memo(filed)
    for pub in publications:
        year = pub.year
        universities = pub.universities
        # Most publications name one university: a token's scope is then
        # the filed list itself.
        if len(universities) == 1:
            one, joined = index[universities[0], year], ()
        else:
            one, joined = None, [index[u, year] for u in universities]
        outcomes = []
        for position, token in enumerate(pub.authors, start=1):
            if overrides and (pub.pub_id, position) in overrides:
                staff_id = overrides[pub.pub_id, position]
                outcomes.append(_UNMATCHED if staff_id is None
                                else MatchOutcome(MATCHED, staff_id=staff_id))
                continue
            key = key_of[token.surname]
            if one is not None:
                scope = one.get(key, ())
            else:
                scope = [c for by_key in joined for c in by_key.get(key, ())]
            outcomes.append(match_author(initials_of[token.initials], scope))
        yield pub, tuple(outcomes)


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
    university) cell of its staff member, and the publication is filed
    under each cell it counts toward.
    """
    cell_of = {member.staff_id: (member.area_id, member.university_id)
               for member in staff}
    counts = dict.fromkeys(("resolved", "manual", "discarded",
                            "unresolvable"), 0)
    manual_rows: list[dict] = []
    errors: list[str] = []
    matched_by_cell = defaultdict(list)

    for pub, outcomes in decide(publications, staff, overrides):
        pub_id = pub.pub_id
        if not outcomes:
            counts["unresolvable"] += 1
            errors.append(f"publication {pub_id!r} has an empty author list")
            continue
        cells: dict[tuple[str, str], int] = {}
        ambiguous = False
        for outcome in outcomes:
            if outcome is _UNMATCHED:
                continue
            if outcome.kind == MATCHED:
                cell = cell_of[outcome.staff_id]
                cells[cell] = cells.get(cell, 0) + 1
            elif outcome.kind == AMBIGUOUS:
                ambiguous = True
        for cell, b in cells.items():
            matched_by_cell[cell].append((pub, b))
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
        matched_by_cell=dict(matched_by_cell),
        stats={"total": sum(counts.values()), **counts},
    )
