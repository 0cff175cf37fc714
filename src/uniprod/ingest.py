"""CSV ingestion: the one place that validates outside input.

All five input files are UTF-8 CSV with a header row (a leading
byte-order mark is dropped).  Every check on their contents happens
here, once: blank ids and names, rank and document-type codes, integer
years and active ranges, author initials, finite non-negative amounts
up to ``MAX_AMOUNT``, duplicate keys, bytes that are not UTF-8, NUL
bytes, and the references of a manual-override file.  Each affiliation
field is resolved here too, to the universities its patterns name.
Malformed rows are collected as ``file:line:`` diagnostics (not raised
one at a time) so a single run reports every problem; referential gaps
that the pipeline can survive become warnings instead.  The record
types built here carry values and check nothing.  Each file's bytes are
read once and its rows streamed, as positional cell lists, into its
loader, which keeps no list of rows; a NUL byte is reported and its row
skipped on every Python version (the csv module of 3.10 rejects the
whole file).  Records are keyed by their first field.  The staff and
publication loaders parse each distinct value of a repeated column once.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .disambiguation import normalize_text
from .errors import IngestError, StructuralError
from .records import (
    AuthorToken,
    DOC_TYPES,
    Publication,
    RANKS,
    StaffMember,
    StaffRegistry,
)

STAFF_FIELDS = ("staff_id", "surname", "first_names", "rank",
                "university_id", "area_id", "year_from", "year_to")
PUBLICATION_FIELDS = ("pub_id", "year", "doc_type", "journal_id",
                      "authors", "raw_affiliations")
JOURNAL_FIELDS = ("journal_id", "year", "impact_weight")
FUNDING_FIELDS = ("university_id", "area_id", "year", "prin_keur")
AFFILIATION_FIELDS = ("raw_pattern", "university_id")
OVERRIDE_FIELDS = ("pub_id", "author_position", "staff_id")

#: Largest accepted impact weight or funding amount.  Far above any real
#: value, and small enough that sums over millions of rows, and their
#: squared deviations, stay finite.
MAX_AMOUNT = 1e12

#: Undecodable bytes read with ``errors="surrogateescape"``.
_UNDECODABLE = re.compile("[\udc80-\udcff]")


@dataclass(frozen=True)
class Corpus:
    """The validated in-memory form of the five input files.

    ``journals`` maps (journal_id, year) to the impact weight; a pair
    with no entry has no weight.  ``funding`` maps (university_id,
    area_id, year) to the competitive funding in k€; a cell with no grant
    in a year has no entry.  Rows for unknown universities are dropped.
    ``affiliations`` maps each normalized affiliation pattern to its
    university id; each publication's ``universities`` were resolved
    against it here, so the matching does not read it.
    """

    staff: StaffRegistry
    publications: tuple[Publication, ...]
    journals: dict[tuple[str, int], float]
    funding: dict[tuple[str, str, int], float]
    affiliations: dict[str, str]
    warnings: tuple[str, ...]


def _flag_lines(lines: Iterable[str], name: str,
                diagnostics: list[str]) -> Iterator[str]:
    """Pass lines through without NUL bytes, reporting each one that held
    bytes that are not UTF-8 or a NUL byte."""
    for number, line in enumerate(lines, start=1):
        if _UNDECODABLE.search(line):
            diagnostics.append(f"{name}:{number}: invalid UTF-8")
        elif "\x00" in line:
            diagnostics.append(f"{name}:{number}: NUL byte")
        # A line flagged for its bad byte may hold a NUL too; the csv
        # module of 3.10 would reject the whole file over it.
        yield line.replace("\x00", "")


class _Unreadable(Exception):
    """Raised by ``_read_rows`` after a fatal diagnostic: the rest of the
    file is not read, and its loader keeps none of its records."""


def _read_rows(path: Path, fields: tuple[str, ...],
               diagnostics: list[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield one CSV file's rows as (line_number, cells) pairs, numbered
    by the last physical line of each row, as the csv reader parses them.

    Rows of the wrong width or with undecodable or NUL bytes are reported
    and skipped.  A file that cannot be opened, is empty, has the wrong
    header or is not CSV gets a fatal diagnostic and raises
    ``_Unreadable`` where the reader finds it, after the rows before it
    were yielded.
    """
    name = path.name
    try:
        data = path.read_bytes()
    except OSError as exc:
        diagnostics.append(f"{name}: cannot open: {exc}")
        raise _Unreadable from None
    # utf-8-sig drops the byte-order mark of spreadsheet exports.  The
    # strict decode is only the check for bytes that are not UTF-8: the
    # reader takes its lines from the bytes, a buffer at a time, with
    # those bytes escaped.  Only a file that fails the check or holds a
    # NUL byte has its lines checked one by one, as the reader reaches
    # them.
    try:
        data.decode("utf-8-sig")
        flagged = b"\x00" in data
    except UnicodeDecodeError:
        flagged = True
    lines = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig",
                             errors="surrogateescape", newline="")
    if flagged:
        lines = _flag_lines(lines, name, diagnostics)
    reader = csv.reader(lines)
    reported = len(diagnostics)
    try:
        header = next(reader, None)
        if header is None:
            diagnostics.append(f"{name}: empty file, expected header "
                               f"{','.join(fields)}")
            raise _Unreadable
        if len(diagnostics) > reported:  # flagged header
            raise _Unreadable
        if tuple(h.strip() for h in header) != fields:
            diagnostics.append(
                f"{name}:1: header must be {','.join(fields)}, "
                f"got {','.join(header)}"
            )
            raise _Unreadable
        width = len(fields)
        for raw in reader:
            if len(diagnostics) > reported:  # flagged row
                reported = len(diagnostics)
                continue
            if not any(map(str.strip, raw)):
                continue
            if len(raw) != width:
                diagnostics.append(f"{name}:{reader.line_num}: expected "
                                   f"{width} fields, got {len(raw)}")
                reported = len(diagnostics)
                continue
            yield reader.line_num, raw
    except csv.Error as exc:
        diagnostics.append(f"{name}:{reader.line_num}: unreadable CSV: {exc}")
        raise _Unreadable from None


def _text(cell: str, field: str) -> str:
    value = cell.strip()
    if not value:
        raise StructuralError(f"{field} is blank")
    return value


def _code(cell: str, field: str, allowed: tuple[str, ...]) -> str:
    value = cell.strip()
    if value not in allowed:
        raise StructuralError(
            f"{field} must be one of {'/'.join(allowed)}, got {value!r}"
        )
    return value


def _number(cell: str, field: str, parse: Callable, kind: str):
    """``parse`` (``int`` or ``float``) of the stripped cell.  Both also
    read digit-group underscores ("2_001") and non-ASCII digits
    ("２００１"); a cell with either is not a number here."""
    text = cell.strip()
    if text.isascii() and "_" not in text:
        try:
            return parse(text)
        except ValueError:
            pass
    raise StructuralError(f"{field} must be {kind}, got {cell!r}")


def _integer(cell: str, field: str) -> int:
    return _number(cell, field, int, "an integer")


def _amount(cell: str, field: str) -> float:
    value = _number(cell, field, float, "a number")
    if not (math.isfinite(value) and value >= 0):
        raise StructuralError(
            f"{field} must be finite and >= 0, got {cell.strip()!r}"
        )
    if value > MAX_AMOUNT:
        raise StructuralError(
            f"{field} must be at most {MAX_AMOUNT:g}, got {cell.strip()!r}"
        )
    return value


def _records(path: Path, fields: tuple[str, ...], parse: Callable,
             describe: Callable, diagnostics: list[str],
             keep: Callable | None = None) -> list:
    """``parse(*cells)`` of each row, in file order.  Each StructuralError
    it or ``keep(line, record)`` raises is a ``file:line:`` diagnostic,
    and so is a record whose key, its first field, an earlier record
    has: ``describe(key)``, naming the line of the first.  A record that
    ``keep`` refuses is dropped before its key is checked.
    These diagnostics follow the reader's for the file; an unreadable
    file keeps no record and adds none."""
    name = path.name
    first: dict = {}
    kept = []
    problems: list[str] = []
    try:
        for line, row in _read_rows(path, fields, diagnostics):
            try:
                record = parse(*row)
                if keep is not None and not keep(line, record):
                    continue
            except StructuralError as exc:
                problems.append(f"{name}:{line}: {exc}")
                continue
            key = record[0]
            if key in first:
                problems.append(f"{name}:{line}: {describe(key)} "
                                f"(first defined at line {first[key]})")
                continue
            first[key] = line
            kept.append(record)
    except _Unreadable:
        return []
    diagnostics.extend(problems)
    return kept


def _author_token(piece: str) -> AuthorToken:
    """One stripped, non-empty SURNAME,INITIALS entry as a token."""
    if "," not in piece:
        raise StructuralError(
            f"author entry {piece!r} lacks the SURNAME,INITIALS comma"
        )
    surname, _, initials_part = piece.partition(",")
    surname = surname.strip()
    if not surname:
        raise StructuralError(f"author entry {piece!r} has a blank surname")
    initials = tuple(map(str.upper, filter(str.isalpha, initials_part)))
    if not initials:
        raise StructuralError(f"author entry {piece!r} carries no initials")
    return AuthorToken(surname, initials)


def _author_tokens(
    field: str, known: dict[str | AuthorToken, AuthorToken]
) -> tuple[AuthorToken, ...]:
    """Split a semicolon-joined author list into tokens.

    Each author is SURNAME,INITIALS where the initials part holds the
    initial letters, optionally dotted ("M.A." and "MA" both mean two
    initials).  An empty field means an author-less record.  Each
    entry's token is taken from ``known``, and the entries parsed are
    added there, keyed by entry and by token value, so equal entries
    and equal tokens (``ROSSI,M.`` and ``ROSSI,M``) share one object.
    A bad entry raises before anything is stored.
    """
    tokens = []
    for piece in field.split(";"):
        piece = piece.strip()
        if not piece:
            continue
        token = known.get(piece)
        if token is None:
            token = _author_token(piece)
            token = known[piece] = known.setdefault(token, token)
        tokens.append(token)
    return tuple(tokens)


def _journal_weight(journal_id: str, year: str, weight: str):
    return ((_text(journal_id, "journal_id"), _integer(year, "year")),
            _amount(weight, "impact_weight"))


def _funding_amount(university_id: str, area_id: str, year: str, keur: str):
    return ((_text(university_id, "university_id"), _text(area_id, "area_id"),
             _integer(year, "year")), _amount(keur, "prin_keur"))


def _load_staff(path: Path, diagnostics: list[str]) -> StaffRegistry:
    rank_of = functools.cache(lambda cell: _code(cell, "rank", RANKS))
    university_id_of = functools.cache(
        lambda cell: _text(cell, "university_id"))
    area_id_of = functools.cache(lambda cell: _text(cell, "area_id"))
    year_from_of = functools.cache(lambda cell: _integer(cell, "year_from"))
    year_to_of = functools.cache(lambda cell: _integer(cell, "year_to"))

    def staff_member(staff_id, surname, first_names, rank, university_id,
                     area_id, year_from, year_to) -> StaffMember:
        member = StaffMember(
            _text(staff_id, "staff_id"), _text(surname, "surname"),
            _text(first_names, "first_names"), rank_of(rank),
            university_id_of(university_id), area_id_of(area_id),
            year_from_of(year_from), year_to_of(year_to))
        if member.year_from > member.year_to:
            raise StructuralError(
                f"empty active range {member.year_from}..{member.year_to}"
            )
        return member

    return StaffRegistry(_records(
        path, STAFF_FIELDS, staff_member,
        lambda k: f"duplicate staff id {k!r}", diagnostics,
    ))


def _load_publications(
    path: Path, affiliations: dict[str, str], diagnostics: list[str]
) -> tuple[Publication, ...]:
    # Years, document types, journal ids, author entries and affiliation
    # fields repeat across rows: each distinct one is parsed once per
    # ingest and its value shared (a cell that raises is not cached).  A
    # field names the universities its normalized non-blank parts map to;
    # each distinct part is normalized and looked up once, and equal sets
    # of universities share one sorted tuple.
    year_of = functools.cache(lambda cell: _integer(cell, "year"))
    doc_type_of = functools.cache(
        lambda cell: _code(cell, "doc_type", DOC_TYPES))
    journal_id_of = functools.cache(lambda cell: _text(cell, "journal_id"))
    tokens: dict[str | AuthorToken, AuthorToken] = {}
    university_of = functools.cache(
        lambda part: affiliations.get(normalize_text(part)))
    ids_of = functools.cache(lambda named: tuple(sorted(named)))

    @functools.cache
    def universities_of(field: str) -> tuple[str, ...]:
        parts = filter(None, map(str.strip, field.split(";")))
        return ids_of(frozenset(map(university_of, parts)) - {None})

    def publication(pub_id, year, doc_type, journal_id, authors,
                    field) -> Publication:
        return Publication(
            _text(pub_id, "pub_id"), year_of(year), doc_type_of(doc_type),
            journal_id_of(journal_id), _author_tokens(authors, tokens),
            universities_of(field),
        )

    return tuple(_records(
        path, PUBLICATION_FIELDS, publication,
        lambda k: f"duplicate publication id {k!r}", diagnostics,
    ))


def _load_journals(
    path: Path, diagnostics: list[str]
) -> dict[tuple[str, int], float]:
    return dict(_records(
        path, JOURNAL_FIELDS, _journal_weight,
        lambda k: f"duplicate weight for journal {k[0]!r} year {k[1]}",
        diagnostics,
    ))


def _load_funding(
    path: Path,
    known_universities: frozenset[str],
    diagnostics: list[str],
    warnings: list[str],
) -> dict[tuple[str, str, int], float]:
    def known(line: int, row: tuple[tuple[str, str, int], float]) -> bool:
        university_id = row[0][0]
        if university_id in known_universities:
            return True
        warnings.append(f"{path.name}:{line}: unknown university "
                        f"{university_id!r}; row skipped")
        return False

    return dict(_records(
        path, FUNDING_FIELDS, _funding_amount,
        lambda k: f"duplicate funding row for {k!r}", diagnostics, known,
    ))


def _load_affiliations(
    path: Path, diagnostics: list[str]
) -> dict[str, str]:
    """Each normalized pattern mapped to its university id.  A pattern
    repeated for the same university is dropped silently and one for
    another is a diagnostic, so no key reaches ``_records`` twice."""
    first: dict[str, tuple[int, str]] = {}

    def entry(pattern: str, university_id: str) -> tuple[str, str, str]:
        key = normalize_text(pattern)
        if not key:
            raise StructuralError(
                f"pattern {pattern!r} is empty after normalization")
        return key, _text(university_id, "university_id"), pattern

    def unique(line: int, row: tuple[str, str, str]) -> bool:
        key, university_id, pattern = row
        first_line, first_id = first.setdefault(key, (line, university_id))
        if first_id != university_id:
            raise StructuralError(
                f"pattern {pattern!r} conflicts with line {first_line} "
                f"(maps to both {first_id!r} and {university_id!r})"
            )
        return first_line == line

    return {key: university_id for key, university_id, _ in _records(
        path, AFFILIATION_FIELDS, entry, lambda k: f"duplicate pattern {k!r}",
        diagnostics, unique,
    )}


def load_overrides(
    path: Path, corpus: Corpus
) -> dict[tuple[str, int], str | None]:
    """Parse a manual-review decision file against the ingested corpus.

    Columns: pub_id, author_position (1-based), staff_id.  A blank
    staff_id records the decision that the author is not on staff.
    Every publication, author position and staff id must exist in the
    corpus, and a named staff member must work at one of the
    publication's universities and be active in its year.
    """
    pubs = {p.pub_id: p for p in corpus.publications}

    def override(pub_id: str, position: str,
                 staff_id: str) -> tuple[tuple[str, int], str | None]:
        pub_id = _text(pub_id, "pub_id")
        position = _integer(position, "author_position")
        pub = pubs.get(pub_id)
        if pub is None:
            raise StructuralError(f"unknown publication {pub_id!r}")
        if not 1 <= position <= pub.author_count:
            raise StructuralError(
                f"publication {pub_id!r} has no author position {position} "
                f"(it lists {pub.author_count} author(s))"
            )
        staff_id = staff_id.strip() or None
        if staff_id is None:
            return (pub_id, position), None
        member = corpus.staff.member(staff_id)
        if member is None:
            raise StructuralError(f"unknown staff id {staff_id!r}")
        if member.university_id not in pub.universities:
            raise StructuralError(
                f"staff {staff_id!r} works at university "
                f"{member.university_id!r}, which the affiliations of "
                f"publication {pub_id!r} do not name"
            )
        if not member.active_in(pub.year):
            raise StructuralError(
                f"staff {staff_id!r} is inactive in {pub.year}, the year "
                f"of publication {pub_id!r}"
            )
        return (pub_id, position), staff_id

    path = Path(path)
    diagnostics: list[str] = []
    overrides = dict(_records(
        path, OVERRIDE_FIELDS, override,
        lambda k: f"duplicate override for {k!r}", diagnostics,
    ))
    if diagnostics:
        raise IngestError(
            f"{len(diagnostics)} problem(s) in the override file", diagnostics
        )
    return overrides


def ingest(data_dir: Path) -> Corpus:
    """Load and validate staff.csv, publications.csv, journals.csv,
    funding.csv and affiliations.csv under ``data_dir``.

    Raises IngestError with the full list of line diagnostics when any
    file has structural problems; survivable referential gaps are
    returned as warnings on the corpus.
    """
    root = Path(data_dir)
    diagnostics: list[str] = []
    warnings: list[str] = []

    staff = _load_staff(root / "staff.csv", diagnostics)
    # Publications are resolved against the patterns, which load first.
    late: list[str] = []  # the patterns' diagnostics, reported last
    affiliations = _load_affiliations(root / "affiliations.csv", late)
    publications = _load_publications(root / "publications.csv",
                                      affiliations, diagnostics)
    journals = _load_journals(root / "journals.csv", diagnostics)
    funding = _load_funding(
        root / "funding.csv",
        frozenset(staff.university_ids()),
        diagnostics,
        warnings,
    )
    diagnostics += late

    if diagnostics:
        raise IngestError(
            f"{len(diagnostics)} problem(s) in input files", diagnostics
        )

    unknown_journals = sorted({p.journal_id for p in publications}
                              - {journal_id for journal_id, _ in journals})
    for journal_id in unknown_journals:
        warnings.append(
            f"journal {journal_id!r} appears in publications but not in "
            "the journal table"
        )

    return Corpus(
        staff=staff,
        publications=publications,
        journals=journals,
        funding=funding,
        affiliations=affiliations,
        warnings=tuple(warnings),
    )
