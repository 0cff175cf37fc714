"""Ingest is the one validation boundary: any malformed input ends in
exit 1 with ``file:line:`` diagnostics, never in a traceback."""

import contextlib
import csv
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from uniprod.cli import main
from uniprod.config import RunConfig
from uniprod.ingest import ingest

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


def _loaded(corpus) -> tuple:
    return (tuple(corpus.staff), corpus.publications,
            vars(corpus.journals), vars(corpus.funding),
            vars(corpus.affiliations), corpus.warnings)


@pytest.mark.parametrize("name", DATA_FILES)
def test_byte_order_mark_is_dropped(tmp_path, name):
    plain = write_demo_dataset(tmp_path / "plain")
    marked = write_demo_dataset(tmp_path / "marked")
    path = marked / name
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert _loaded(ingest(RunConfig.for_data_dir(marked))) == _loaded(
        ingest(RunConfig.for_data_dir(plain))
    )
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
