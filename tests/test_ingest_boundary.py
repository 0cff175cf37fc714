"""Ingest is the one validation boundary: any malformed input ends in
exit 1 with ``file:line:`` diagnostics, never in a traceback."""

import contextlib
import csv
import io
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from uniprod.cli import main
from uniprod.errors import IngestError
from uniprod.ingest import (JOURNAL_FIELDS, _read_rows, _Unreadable, ingest,
                            load_overrides)

from .fixtures import write_demo_dataset

DATA_FILES = ("staff.csv", "publications.csv", "journals.csv", "funding.csv",
              "affiliations.csv")


def _append(root: Path, name: str, data: bytes) -> None:
    path = root / name
    path.write_bytes(path.read_bytes() + data)


def _run(root: Path, out: Path) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main([str(root), "--out", str(out)])
    return code, err.getvalue()


# Each case: one bad row in a file, and an independent bad row in another
# file that the same run must also report.  The demo staff file ends at
# line 29, publications at 31, journals at 7 and funding at 7.
PINNED = {
    "invalid-utf8-staff": (
        ("staff.csv", b"S900,Ros\xe9,Mario,FP,U1,A01,1998,2006\n",
         "staff.csv:30: invalid UTF-8"),
        ("journals.csv", b"J9,2001,-1\n",
         "journals.csv:8: impact_weight must be finite and >= 0, got '-1'"),
    ),
    "nan-journals": (
        ("journals.csv", b"J9,2001,nan\n",
         "journals.csv:8: impact_weight must be finite and >= 0, got 'nan'"),
        ("staff.csv", b"S900,Neri,Pia,XX,U1,A01,1998,2006\n",
         "staff.csv:30: rank must be one of FP/AP/RF, got 'XX'"),
    ),
    "inf-funding": (
        ("funding.csv", b"U1,A01,2004,inf\n",
         "funding.csv:8: prin_keur must be finite and >= 0, got 'inf'"),
        ("publications.csv", b'PX,2002,poster,J1,"KIM,A.","Univ. of Alpha"\n',
         "publications.csv:32: doc_type must be one of article/review/other, "
         "got 'poster'"),
    ),
    "nul-byte-staff": (
        ("staff.csv", b"S900,Ro\x00ss,Mario,FP,U1,A01,1998,2006\n",
         "staff.csv:30: NUL byte"),
        ("publications.csv", b'PX,2002,article,J1,"KIM,A.",\x00\n',
         "publications.csv:32: NUL byte"),
    ),
    # Finite, but the SS and PR means over it overflow.
    "huge-amounts": (
        ("journals.csv", b"J9,2001,1e308\n",
         "journals.csv:8: impact_weight must be at most 1e+12, got '1e308'"),
        ("funding.csv", b"U1,A01,2004,1e13\n",
         "funding.csv:8: prin_keur must be at most 1e+12, got '1e13'"),
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_bad_rows_in_two_files_are_both_reported(tmp_path, case):
    root = write_demo_dataset(tmp_path / "data")
    for name, data, _ in PINNED[case]:
        _append(root, name, data)
    code, err = _run(root, tmp_path / "r")
    assert code == 1
    lines = err.splitlines()
    assert lines[0] == "error: 2 problem(s) in input files"
    assert sorted(line.strip() for line in lines[1:]) == sorted(
        diagnostic for _, _, diagnostic in PINNED[case]
    )
    assert not (tmp_path / "r").exists()


# ``int`` and ``float`` alone would read each of these cells as a number.
_NOT_NUMBERS = ("2_002", "２００２", "2002\u0660", "1_0.5")

#: (file, row with the cell in place of a numeric field, diagnostic
#: prefix); the demo staff file ends at line 29, publications at 31,
#: journals at 7 and funding at 7.
_NUMBER_CELLS = (
    ("staff.csv", "S900,Neri,Pia,FP,U1,A01,{},2006",
     "staff.csv:30: year_from must be an integer"),
    ("staff.csv", "S900,Neri,Pia,FP,U1,A01,1998,{}",
     "staff.csv:30: year_to must be an integer"),
    ("publications.csv", 'PX,{},article,J1,"KIM,A.","Univ. of Alpha"',
     "publications.csv:32: year must be an integer"),
    ("journals.csv", "J9,2001,{}",
     "journals.csv:8: impact_weight must be a number"),
    ("funding.csv", "U1,A01,2002,{}",
     "funding.csv:8: prin_keur must be a number"),
)


@pytest.mark.parametrize("cell", _NOT_NUMBERS)
@pytest.mark.parametrize("name, row, diagnostic", _NUMBER_CELLS)
def test_underscored_or_non_ascii_numbers_are_rejected(tmp_path, cell, name,
                                                       row, diagnostic):
    root = write_demo_dataset(tmp_path / "data")
    _append(root, name, (row.format(cell) + "\n").encode("utf-8"))
    code, err = _run(root, tmp_path / "r")
    assert code == 1
    assert err.splitlines()[1:] == [f"  {diagnostic}, got {cell!r}"]


@pytest.mark.parametrize("cell", _NOT_NUMBERS)
def test_underscored_or_non_ascii_override_position_is_rejected(tmp_path,
                                                                cell):
    fixes = tmp_path / "fixes.csv"
    fixes.write_text(f"pub_id,author_position,staff_id\nP029,{cell},S027\n",
                     encoding="utf-8")
    corpus = ingest(write_demo_dataset(tmp_path / "data"))
    with pytest.raises(IngestError) as exc:
        load_overrides(fixes, corpus)
    assert exc.value.diagnostics == [
        f"fixes.csv:2: author_position must be an integer, got {cell!r}"]


def _loaded(corpus) -> tuple:
    return (tuple(corpus.staff), corpus.publications,
            corpus.journals, corpus.funding,
            corpus.affiliations, corpus.warnings)


@pytest.mark.parametrize("name", DATA_FILES)
def test_byte_order_mark_is_dropped(tmp_path, name):
    plain = write_demo_dataset(tmp_path / "plain")
    marked = write_demo_dataset(tmp_path / "marked")
    path = marked / name
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert _loaded(ingest(marked)) == _loaded(ingest(plain))
    assert _run(marked, tmp_path / "r")[0] == 0


# Cells drawn from arbitrary text and from values that are nearly valid,
# so that fuzzed rows also reach the checks behind the field parsers.
_CELLS = st.one_of(
    st.text(max_size=10),
    st.sampled_from([
        "", " ", "nan", "inf", "-1", "1e400", "0", "2002", "2003", "9" * 30,
        "FP", "RF", "article", "other", "U1", "U9", "A01", "J1", "S001",
        "P001", "ROSSI1,M.", "NOBODY,X.;", "Univ. of Alpha", "Univ. of Beta",
    ]),
)
_ROWS = st.lists(st.lists(_CELLS, max_size=9), min_size=1, max_size=4)


def _csv_bytes(rows) -> bytes:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue().encode("utf-8", "surrogatepass")


@settings(max_examples=80, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    name=st.sampled_from(DATA_FILES),
    mode=st.sampled_from(["replace", "append"]),
    payload=st.one_of(st.binary(max_size=120), _ROWS.map(_csv_bytes)),
)
def test_arbitrary_input_never_raises(name, mode, payload):
    with tempfile.TemporaryDirectory() as tmp:
        root = write_demo_dataset(Path(tmp) / "data")
        if mode == "replace":
            (root / name).write_bytes(payload)
        else:
            _append(root, name, payload)
        code, err = _run(root, Path(tmp) / "r")
    assert code in (0, 1, 2)
    if code == 1:
        assert err.startswith("error: ")


# The reader's line accounting: every diagnostic names the physical
# line the csv reader had reached, and a row that spans several lines is
# numbered by its last one.
_HEADER = b"journal_id,year,impact_weight"

#: (bytes after the header, diagnostics, line numbers of the kept rows)
_READER_CASES = {
    "crlf": (b"\r\nJ1,2001,1.5\r\nJ2,2001\r\nJ\xff,2002,2\r\nJ3,2002,2\r\n",
             [":3: expected 3 fields, got 2", ":4: invalid UTF-8"], [2, 5]),
    "lone-cr": (b"\rJ1,2001,1.5\rJ2,2001\rJ\xff,2002,2\rJ3,2002,2\r",
                [":3: expected 3 fields, got 2", ":4: invalid UTF-8"], [2, 5]),
    "bad-byte-in-quoted-multi-line-field": (
        b'\nJ1,2001,1.5\n"J\nX\xff",2001,1\nJ3,2002,2\n',
        [":4: invalid UTF-8"], [2, 5]),
    "bad-header": (b"\xff\nJ1,2001,1.5\nJ\xff,2001,1\n1,2\n",
                   [":1: invalid UTF-8"], []),
    # A NUL byte is reported and its row skipped on every Python
    # version; the csv module of 3.10 would reject the whole file.
    "nul-byte": (b'\nJ1,2001,1.5\n"J\n\x002",2001,1\nJ3,2002,2\n',
                 [":4: NUL byte"], [2, 5]),
    "nul-byte-and-bad-byte-on-one-line": (
        b"\nJ1,2001,1.5\nJ\x00\xff,2001,1\nJ3,2002,2\n",
        [":3: invalid UTF-8"], [2, 4]),
    "whitespace-only-row": (b"\nJ1,2001,1.5\n  , \t,  \nJ3,2002,2\n", [],
                            [2, 4]),
    # Vertical tab, form feed, file separator and line separator end a
    # line for str.splitlines, not for the csv reader.
    "line-breaks-csv-does-not-split-on": (
        "\nJ1,2001,1\v5\nJ\f2,2001,1\nJ\udcff,2001,1\nJ3,2\x1c002,2\u2028\n"
        .encode("utf-8", "surrogateescape"),
        [":4: invalid UTF-8"], [2, 3, 5]),
    "field-over-the-csv-size-limit": (
        b"\nJ1,2001,1.5\nJ\xff,2001,1\nJ3,"
        + b"9" * (csv.field_size_limit() + 1) + b",2\nJ4,2002,1\n",
        [":3: invalid UTF-8", ":4: unreadable CSV: field larger than field "
         f"limit ({csv.field_size_limit()})"], []),
}


@pytest.mark.parametrize("case", sorted(_READER_CASES))
@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
def test_reader_line_accounting(tmp_path, case, bom):
    body, expected, kept = _READER_CASES[case]
    path = tmp_path / "journals.csv"
    path.write_bytes(bom + _HEADER + body)
    diagnostics: list[str] = []
    rows = []
    with contextlib.suppress(_Unreadable):
        rows = list(_read_rows(path, JOURNAL_FIELDS, diagnostics))
    assert diagnostics == [f"journals.csv{d}" for d in expected]
    assert [line for line, _ in rows] == kept


@pytest.mark.parametrize("case", ["nul-byte",
                                  "nul-byte-and-bad-byte-on-one-line"])
def test_no_nul_byte_reaches_the_csv_reader(tmp_path, monkeypatch, case):
    """The csv module of 3.10 rejects a whole file over one NUL byte
    and that of 3.11 accepts it, so the reader is never handed one,
    whichever diagnostic its line gets."""
    body, expected, kept = _READER_CASES[case]
    path = tmp_path / "journals.csv"
    path.write_bytes(_HEADER + body)
    seen: list[str] = []
    real = csv.reader
    monkeypatch.setattr(
        csv, "reader",
        lambda lines: real(seen.append(line) or line for line in lines))
    diagnostics: list[str] = []
    rows = list(_read_rows(path, JOURNAL_FIELDS, diagnostics))
    assert diagnostics == [f"journals.csv{d}" for d in expected]
    assert [line for line, _ in rows] == kept
    assert len(seen) == body.count(b"\n")
    assert not any("\x00" in line for line in seen)


@pytest.mark.parametrize("name, bad_row", [
    ("journals.csv", b"J9,2001,-1\n"),
    ("affiliations.csv", b"--,U1\n"),
])
def test_unreadable_file_drops_its_loaders_diagnostics(tmp_path, name,
                                                       bad_row):
    """A fatal reader diagnostic ends the file.  The loader has parsed
    the rows before it, but it keeps neither their records nor its
    diagnostics on them, as if it had never been handed a row."""
    root = write_demo_dataset(tmp_path / "data")
    line = (root / name).read_bytes().count(b"\n") + 2
    limit = csv.field_size_limit()
    _append(root, name, bad_row + b"X," + b"9" * (limit + 1) + b"\n")
    with pytest.raises(IngestError) as exc:
        ingest(root)
    assert exc.value.diagnostics == [
        f"{name}:{line}: unreadable CSV: field larger than field limit "
        f"({limit})"]


#: The reader decodes and splits lines a buffer of this many bytes at a
#: time (``io.TextIOWrapper``'s chunk).
_CHUNK = 8192


def _straddling_file(bom: bytes) -> bytes:
    """A journals file over 64 KiB, CRLF throughout, where a row's CRLF,
    the CRLF inside a quoted field, a bad byte and a valid multi-byte
    character each have an 8 KiB boundary between their bytes; a short
    row and some valid rows follow."""
    body = bytearray(bom + _HEADER + b"\r\n")
    count = 0

    def fill_to(boundary: int, piece: bytes, cut: int) -> None:
        # Valid rows, then one whose weight is padded with zeros so that
        # ``piece`` starts ``cut`` bytes before ``boundary``.
        nonlocal count
        while boundary - len(body) > 64:
            count += 1
            body.extend(b"J%d,2001,1.5\r\n" % count)
        pad = boundary - cut - len(body) - len(b"Jf,2001,1.\r\n")
        body.extend(b"Jf%d,2001,1." % count + b"0" * (pad - len(b"%d" % count))
                    + b"\r\n")
        assert len(body) == boundary - cut
        body.extend(piece)

    fill_to(2 * _CHUNK, b"Jcr,2001,1\r\n", len(b"Jcr,2001,1\r"))
    fill_to(4 * _CHUNK, b'"Jm\r\nM",2001,1\r\n', len(b'"Jm\r'))
    fill_to(6 * _CHUNK, b"J\xe2\x82,2001,1\r\n", len(b"J\xe2"))
    fill_to(7 * _CHUNK, b"J\xe2\x82\xac,2001,1\r\n", len(b"J\xe2\x82"))
    body.extend(b"J9,2001\r\n")
    fill_to(8 * _CHUNK + 1000, b"Jz,2002,2\r\n", 0)
    return bytes(body)


def _reference_pass(data: bytes) -> tuple[list[str], list]:
    """Diagnostics and kept (line, cells) of one whole-text csv pass over
    a file whose header is valid."""
    text = data.decode("utf-8-sig", "surrogateescape")
    bad = {number for number, line
           in enumerate(io.StringIO(text, newline=""), start=1)
           if re.search("[\udc80-\udcff]", line)}
    reader = csv.reader(io.StringIO(text, newline=""))
    next(reader)
    diagnostics, kept, last = [], [], 1
    for cells in reader:
        span = range(last + 1, reader.line_num + 1)
        last = reader.line_num
        if bad.intersection(span):
            diagnostics += [f"journals.csv:{n}: invalid UTF-8"
                            for n in span if n in bad]
        elif not any(map(str.strip, cells)):
            pass
        elif len(cells) != len(JOURNAL_FIELDS):
            diagnostics.append(f"journals.csv:{reader.line_num}: expected "
                               f"{len(JOURNAL_FIELDS)} fields, "
                               f"got {len(cells)}")
        else:
            kept.append((reader.line_num, cells))
    return diagnostics, kept


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
def test_reader_chunk_boundaries(tmp_path, bom):
    data = _straddling_file(bom)
    assert len(data) > 64 * 1024
    for boundary, pair in ((2, b"\r\n"), (4, b"\r\n"), (6, b"\xe2\x82"),
                           (7, b"\x82\xac")):
        assert data[boundary * _CHUNK - 1:][:2] == pair
    path = tmp_path / "journals.csv"
    path.write_bytes(data)
    diagnostics: list[str] = []
    rows = list(_read_rows(path, JOURNAL_FIELDS, diagnostics))
    expected, kept = _reference_pass(data)
    assert len(expected) == 2 and ["Jm\r\nM", "2001", "1"] in (
        cells for _, cells in kept)
    assert diagnostics == expected
    assert rows == kept


@pytest.mark.parametrize("ending", [b"\r\n", b"\r"])
def test_crlf_and_lone_cr_files_load_as_lf(tmp_path, ending):
    plain = write_demo_dataset(tmp_path / "plain")
    other = write_demo_dataset(tmp_path / "other")
    for name in DATA_FILES:
        path = other / name
        path.write_bytes(path.read_bytes().replace(b"\n", ending))
    assert _loaded(ingest(other)) == _loaded(ingest(plain))
