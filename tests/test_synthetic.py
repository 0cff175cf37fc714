"""The synthetic generator's argument checks and its output files."""

import os

import pytest

from uniprod.ingest import ingest
from uniprod.synthetic import MAX_UNIVERSITIES, write_synthetic_dataset


@pytest.mark.parametrize("kwargs, message", [
    ({"n_areas": 0}, "n_areas must be at least 1, got 0"),
    ({"n_universities": 0}, "n_universities must be in 1-"),
    ({"n_universities": MAX_UNIVERSITIES + 1}, "n_universities must be in 1-"),
    ({"years": ()}, "years must hold at least one output year"),
    ({"pubs_per_staff_year": float("nan")},
     "pubs_per_staff_year must be finite and >= 0, got nan"),
    ({"pubs_per_staff_year": float("inf")},
     "pubs_per_staff_year must be finite and >= 0, got inf"),
    ({"pubs_per_staff_year": -1},
     "pubs_per_staff_year must be finite and >= 0, got -1"),
], ids=["no-areas", "no-universities", "too-many-universities", "no-years",
        "nan-rate", "inf-rate", "negative-rate"])
def test_empty_shape_rejected_before_writing(tmp_path, kwargs, message):
    out_dir = tmp_path / "data"
    with pytest.raises(ValueError, match=f"^{message}"):
        write_synthetic_dataset(out_dir, **kwargs)
    assert not out_dir.exists()


def assert_same_files(got, want):
    names = sorted(p.name for p in want.iterdir())
    assert sorted(p.name for p in got.iterdir()) == names
    for name in names:
        assert (got / name).read_bytes() == (want / name).read_bytes(), name


def test_rerun_writes_new_files(tmp_path):
    """A re-run into one directory replaces each CSV: a hard link to an
    earlier file keeps that file, and the bytes equal a run into a fresh
    directory."""
    shape = {"seed": 3, "n_areas": 2, "n_universities": 6}
    out = write_synthetic_dataset(tmp_path / "data", **shape)
    link = tmp_path / "link"
    os.link(out / "staff.csv", link)
    write_synthetic_dataset(out, **shape)
    fresh = write_synthetic_dataset(tmp_path / "fresh", **shape)
    assert not os.path.samefile(out / "staff.csv", link)
    assert_same_files(out, fresh)


def test_repeated_years_write_each_year_once(tmp_path):
    """Output years are a set: a repeated or unsorted year writes the
    same bytes as the sorted distinct years, and the result ingests
    without a diagnostic (a duplicate journal-year would be one)."""
    shape = {"seed": 3, "n_areas": 2, "n_universities": 6}
    out = write_synthetic_dataset(tmp_path / "repeated",
                                  years=(2002, 2001, 2001), **shape)
    plain = write_synthetic_dataset(tmp_path / "plain",
                                    years=(2001, 2002), **shape)
    assert_same_files(out, plain)
    assert len(ingest(out).publications) > 0
