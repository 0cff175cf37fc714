"""CSV ingestion: the one place that validates outside input.

All five input files are UTF-8 CSV with a header row (a leading
byte-order mark is dropped).  Every check on their contents happens
here, once: blank ids and names, rank and document-type codes, integer
years and active ranges, author initials, finite non-negative amounts
up to ``MAX_AMOUNT``, duplicate keys, bytes that are not UTF-8, and the
references of a manual-override file.  Malformed rows are
collected as ``file:line:`` diagnostics (not raised one at a time) so a
single run reports every problem; referential gaps that the pipeline
can survive become warnings instead.  The record types built here carry
values and check nothing.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .config import RunConfig
from .disambiguation import AffiliationDictionary, normalize_text
from .errors import IngestError, StructuralError
from .records import (
    AuthorToken,
    DOC_TYPES,
    FundingTable,
    JournalTable,
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
    """The validated in-memory form of the five input files."""

    staff: StaffRegistry
    publications: tuple[Publication, ...]
    journals: JournalTable
    funding: FundingTable
    affiliations: AffiliationDictionary
    warnings: tuple[str, ...]


def _checked_lines(lines: Iterable[str], name: str,
                   diagnostics: list[str]) -> Iterator[str]:
    """Pass lines through, reporting each one that held bytes that are
    not UTF-8."""
    for number, line in enumerate(lines, start=1):
        if not line.isascii() and _UNDECODABLE.search(line):
            diagnostics.append(f"{name}:{number}: invalid UTF-8")
        yield line


def _read_rows(path: Path, fields: tuple[str, ...], diagnostics: list[str]):
    """Parse one CSV file into (line_number, row_dict) pairs.

    Header mismatches and unparseable CSV are fatal diagnostics; the
    file is then skipped entirely.  Rows of the wrong width or with
    undecodable bytes are reported and skipped.
    """
    name = path.name
    try:
        # utf-8-sig drops the byte-order mark that spreadsheet exports
        # put before the header.
        handle = open(path, newline="", encoding="utf-8-sig",
                      errors="surrogateescape")
    except OSError as exc:
        diagnostics.append(f"{name}: cannot open: {exc}")
        return []
    with handle:
        reader = csv.reader(_checked_lines(handle, name, diagnostics))
        reported = len(diagnostics)
        rows = []
        try:
            header = next(reader, None)
            if header is None:
                diagnostics.append(f"{name}: empty file, expected header "
                                   f"{','.join(fields)}")
                return []
            if len(diagnostics) > reported:  # undecodable header
                return []
            if tuple(h.strip() for h in header) != fields:
                diagnostics.append(
                    f"{name}:1: header must be {','.join(fields)}, "
                    f"got {','.join(header)}"
                )
                return []
            for raw in reader:
                line = reader.line_num
                if len(diagnostics) > reported:  # undecodable row
                    reported = len(diagnostics)
                    continue
                if not raw or all(not cell.strip() for cell in raw):
                    continue
                if len(raw) != len(fields):
                    diagnostics.append(
                        f"{name}:{line}: expected {len(fields)} fields, "
                        f"got {len(raw)}"
                    )
                    reported = len(diagnostics)
                    continue
                rows.append((line, dict(zip(fields, raw))))
        except csv.Error as exc:
            diagnostics.append(f"{name}:{reader.line_num}: unreadable CSV: {exc}")
            return []
        return rows


def _text(row: dict, field: str) -> str:
    value = row[field].strip()
    if not value:
        raise StructuralError(f"{field} is blank")
    return value


def _code(row: dict, field: str, allowed: tuple[str, ...]) -> str:
    value = row[field].strip()
    if value not in allowed:
        raise StructuralError(
            f"{field} must be one of {'/'.join(allowed)}, got {value!r}"
        )
    return value


def _integer(row: dict, field: str) -> int:
    try:
        return int(row[field].strip())
    except ValueError:
        raise StructuralError(
            f"{field} must be an integer, got {row[field]!r}"
        ) from None


def _amount(row: dict, field: str) -> float:
    try:
        value = float(row[field].strip())
    except ValueError:
        raise StructuralError(
            f"{field} must be a number, got {row[field]!r}"
        ) from None
    if not (math.isfinite(value) and value >= 0):
        raise StructuralError(
            f"{field} must be finite and >= 0, got {row[field].strip()!r}"
        )
    if value > MAX_AMOUNT:
        raise StructuralError(
            f"{field} must be at most {MAX_AMOUNT:g}, "
            f"got {row[field].strip()!r}"
        )
    return value


def _parsed(path: Path, fields: tuple[str, ...], parse: Callable,
            diagnostics: list[str]):
    """(line, record) for every row that ``parse`` accepts; each
    StructuralError it raises becomes a ``file:line:`` diagnostic."""
    for line, row in _read_rows(path, fields, diagnostics):
        try:
            record = parse(row)
        except StructuralError as exc:
            diagnostics.append(f"{path.name}:{line}: {exc}")
            continue
        yield line, record


def _unique(path: Path, parsed, key: Callable, describe: Callable,
            diagnostics: list[str]) -> list:
    """The parsed records whose key is new, in file order; a repeated key
    is a diagnostic, ``describe(key)``, naming the line that defined it
    first."""
    first: dict = {}
    kept = []
    for line, record in parsed:
        k = key(record)
        if k in first:
            diagnostics.append(
                f"{path.name}:{line}: {describe(k)} "
                f"(first defined at line {first[k]})"
            )
            continue
        first[k] = line
        kept.append(record)
    return kept


def _staff_member(row: dict) -> StaffMember:
    member = StaffMember(
        staff_id=_text(row, "staff_id"),
        surname=_text(row, "surname"),
        first_names=_text(row, "first_names"),
        rank=_code(row, "rank", RANKS),
        university_id=_text(row, "university_id"),
        area_id=_text(row, "area_id"),
        year_from=_integer(row, "year_from"),
        year_to=_integer(row, "year_to"),
    )
    if member.year_from > member.year_to:
        raise StructuralError(
            f"empty active range {member.year_from}..{member.year_to}"
        )
    return member


def parse_author_field(field: str) -> tuple[AuthorToken, ...]:
    """Split a semicolon-joined author list into tokens.

    Each author is SURNAME,INITIALS where the initials part holds the
    initial letters, optionally dotted ("M.A." and "MA" both mean two
    initials).  An empty field means an author-less record.
    """
    tokens = []
    for piece in field.split(";"):
        piece = piece.strip()
        if not piece:
            continue
        if "," not in piece:
            raise StructuralError(
                f"author entry {piece!r} lacks the SURNAME,INITIALS comma"
            )
        surname, _, initials_part = piece.partition(",")
        surname = surname.strip()
        if not surname:
            raise StructuralError(f"author entry {piece!r} has a blank surname")
        initials = tuple(ch.upper() for ch in initials_part if ch.isalpha())
        if not initials:
            raise StructuralError(f"author entry {piece!r} carries no initials")
        tokens.append(AuthorToken(surname, initials))
    return tuple(tokens)


def _publication(row: dict) -> Publication:
    return Publication(
        pub_id=_text(row, "pub_id"),
        year=_integer(row, "year"),
        doc_type=_code(row, "doc_type", DOC_TYPES),
        journal_id=_text(row, "journal_id"),
        authors=parse_author_field(row["authors"]),
        raw_affiliations=tuple(
            s.strip() for s in row["raw_affiliations"].split(";") if s.strip()
        ),
    )


def _journal_weight(row: dict) -> tuple[str, int, float]:
    return (_text(row, "journal_id"), _integer(row, "year"),
            _amount(row, "impact_weight"))


def _funding_amount(row: dict) -> tuple[str, str, int, float]:
    return (_text(row, "university_id"), _text(row, "area_id"),
            _integer(row, "year"), _amount(row, "prin_keur"))


def _load_staff(path: Path, diagnostics: list[str]) -> StaffRegistry:
    parsed = _parsed(path, STAFF_FIELDS, _staff_member, diagnostics)
    return StaffRegistry(_unique(
        path, parsed, lambda m: m.staff_id,
        lambda k: f"duplicate staff id {k!r}",
        diagnostics,
    ))


def _load_publications(
    path: Path, diagnostics: list[str]
) -> tuple[Publication, ...]:
    parsed = _parsed(path, PUBLICATION_FIELDS, _publication, diagnostics)
    return tuple(_unique(
        path, parsed, lambda p: p.pub_id,
        lambda k: f"duplicate publication id {k!r}",
        diagnostics,
    ))


def _load_journals(path: Path, diagnostics: list[str]) -> JournalTable:
    parsed = _parsed(path, JOURNAL_FIELDS, _journal_weight, diagnostics)
    return JournalTable(_unique(
        path, parsed, lambda r: r[:2],
        lambda k: f"duplicate weight for journal {k[0]!r} year {k[1]}",
        diagnostics,
    ))


def _load_funding(
    path: Path,
    known_universities: frozenset[str],
    diagnostics: list[str],
    warnings: list[str],
) -> FundingTable:
    known = []
    for line, row in _parsed(path, FUNDING_FIELDS, _funding_amount,
                             diagnostics):
        if row[0] not in known_universities:
            warnings.append(
                f"{path.name}:{line}: unknown university {row[0]!r}; "
                "row skipped"
            )
            continue
        known.append((line, row))
    return FundingTable(_unique(
        path, known, lambda r: r[:3],
        lambda k: f"duplicate funding row for {k!r}",
        diagnostics,
    ))


def _load_affiliations(
    path: Path, diagnostics: list[str]
) -> AffiliationDictionary:
    rows = []
    seen: dict[str, tuple[int, str]] = {}
    name = path.name
    for line, row in _read_rows(path, AFFILIATION_FIELDS, diagnostics):
        pattern = row["raw_pattern"]
        university_id = row["university_id"].strip()
        key = normalize_text(pattern)
        if not key:
            diagnostics.append(
                f"{name}:{line}: pattern {pattern!r} is empty after "
                "normalization"
            )
            continue
        if not university_id:
            diagnostics.append(f"{name}:{line}: university_id is blank")
            continue
        if key in seen:
            prev_line, prev_uni = seen[key]
            if prev_uni != university_id:
                diagnostics.append(
                    f"{name}:{line}: pattern {pattern!r} conflicts with "
                    f"line {prev_line} (maps to both {prev_uni!r} and "
                    f"{university_id!r})"
                )
            continue
        seen[key] = (line, university_id)
        rows.append((pattern, university_id))
    return AffiliationDictionary(rows)


def load_overrides(
    path: Path, corpus: Corpus
) -> dict[tuple[str, int], str | None]:
    """Parse a manual-review decision file against the ingested corpus.

    Columns: pub_id, author_position (1-based), staff_id.  A blank
    staff_id records the decision that the author is not on staff.
    Every publication, author position and staff id must exist in the
    corpus.
    """
    author_counts = {p.pub_id: p.author_count for p in corpus.publications}

    def override(row: dict) -> tuple[tuple[str, int], str | None]:
        pub_id = _text(row, "pub_id")
        position = _integer(row, "author_position")
        if pub_id not in author_counts:
            raise StructuralError(f"unknown publication {pub_id!r}")
        if not 1 <= position <= author_counts[pub_id]:
            raise StructuralError(
                f"publication {pub_id!r} has no author position {position} "
                f"(it lists {author_counts[pub_id]} author(s))"
            )
        staff_id = row["staff_id"].strip() or None
        if staff_id is not None and staff_id not in corpus.staff:
            raise StructuralError(f"unknown staff id {staff_id!r}")
        return (pub_id, position), staff_id

    path = Path(path)
    diagnostics: list[str] = []
    parsed = _parsed(path, OVERRIDE_FIELDS, override, diagnostics)
    overrides = dict(_unique(
        path, parsed, lambda r: r[0],
        lambda k: f"duplicate override for {k!r}",
        diagnostics,
    ))
    if diagnostics:
        raise IngestError(
            f"{len(diagnostics)} problem(s) in the override file", diagnostics
        )
    return overrides


def ingest(config: RunConfig) -> Corpus:
    """Load and validate the five input files named by the config.

    Raises IngestError with the full list of line diagnostics when any
    file has structural problems; survivable referential gaps are
    returned as warnings on the corpus.
    """
    for attr in ("staff_path", "publications_path", "journals_path",
                 "funding_path", "affiliations_path"):
        if getattr(config, attr) is None:
            raise IngestError(f"config is missing {attr}")
    diagnostics: list[str] = []
    warnings: list[str] = []

    staff = _load_staff(Path(config.staff_path), diagnostics)
    publications = _load_publications(Path(config.publications_path),
                                      diagnostics)
    journals = _load_journals(Path(config.journals_path), diagnostics)
    funding = _load_funding(
        Path(config.funding_path),
        frozenset(staff.university_ids()),
        diagnostics,
        warnings,
    )
    affiliations = _load_affiliations(Path(config.affiliations_path),
                                      diagnostics)

    if diagnostics:
        raise IngestError(
            f"{len(diagnostics)} problem(s) in input files", diagnostics
        )

    unknown_journals = sorted(
        {p.journal_id for p in publications if p.journal_id not in journals}
    )
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
