"""CSV ingestion: diagnostics with line numbers, warnings, overrides."""

import csv
import gc
import math
import tracemalloc

import pytest

from uniprod.disambiguation import normalize_text
from uniprod.errors import IngestError, StructuralError
from uniprod.ingest import MAX_AMOUNT, _author_tokens, ingest, load_overrides
from uniprod.records import Publication
from uniprod.synthetic import write_synthetic_dataset

from .fixtures import write_demo_dataset
from .oracles import ingest_oracle


def _config(root):
    return root


def _write(root, name, text):
    root.mkdir(parents=True, exist_ok=True)
    (root / name).write_text(text, encoding="utf-8")


@pytest.fixture()
def demo_root(tmp_path):
    return write_demo_dataset(tmp_path / "data")


class TestHappyPath:
    def test_demo_dataset_loads(self, demo_root):
        corpus = ingest(_config(demo_root))
        assert len(corpus.publications) == 30
        assert corpus.staff.headcounts("A01", "U2", [2001])[1] == 3
        assert corpus.journals[("J1", 2002)] == 1.5
        assert corpus.funding[("U1", "A01", 2001)] == 120.0
        assert corpus.affiliations["univ of alpha"] == "U1"

    def test_unknown_journal_becomes_warning(self, demo_root):
        corpus = ingest(_config(demo_root))
        assert any("'J3'" in w for w in corpus.warnings)

    def test_affiliations_are_split_and_blank_parts_dropped(self, demo_root):
        path = demo_root / "publications.csv"
        path.write_text(
            path.read_text()
            + 'PX,2002,article,J1,"KIM,A."," Univ. of Alpha ;; ALPHA UNIV"\n',
            encoding="utf-8",
        )
        corpus = ingest(_config(demo_root))
        [pub] = [p for p in corpus.publications if p.pub_id == "PX"]
        assert pub.universities == ("U1",)

    def test_blank_rows_are_skipped(self, demo_root):
        path = demo_root / "journals.csv"
        path.write_text(path.read_text() + "\n,,\n\n", encoding="utf-8")
        corpus = ingest(_config(demo_root))
        assert corpus.journals[("J2", 2003)] == 0.8



def _name_universities(root, patterns, fields):
    """Write ``patterns`` as ``affiliations.csv`` and append one
    publication per affiliation field of ``fields`` (its raw strings)."""
    with open(root / "affiliations.csv", "w", newline="",
              encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("raw_pattern", "university_id"))
        writer.writerows(patterns)
    with open(root / "publications.csv", "a", newline="",
              encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerows(
            (f"PN{i}", 2002, "article", "J1", "KIM,A.", ";".join(field))
            for i, field in enumerate(fields))


def _named(root):
    """The ``universities`` of the publications ``_name_universities``
    appended, in their order."""
    return [p.universities for p in ingest(root).publications
            if p.pub_id.startswith("PN")]


_PATTERNS = [
    ("UNIV TESTONE", "U1"),
    ("Universita degli Studi di Testone", "U1"),
    ("UNIV DUESTO", "U2"),
]


class TestPublicationUniversities:
    """Ingest resolves each affiliation field to the sorted distinct ids
    of the universities that its raw strings' normalized forms map to."""

    def test_exact_hit(self, demo_root):
        _name_universities(demo_root, _PATTERNS, [("UNIV TESTONE",)])
        assert _named(demo_root) == [("U1",)]

    def test_messy_spelling_hits(self, demo_root):
        _name_universities(demo_root, _PATTERNS,
                           [("Università degli Studi di 'Testone'",)])
        assert _named(demo_root) == [("U1",)]

    def test_miss_names_none(self, demo_root):
        _name_universities(demo_root, _PATTERNS, [("MIT",)])
        assert _named(demo_root) == [()]

    def test_field_names_sorted_distinct_universities(self, demo_root):
        field = ("UNIV DUESTO", "MIT", "univ. testone", "UNIV TESTONE")
        _name_universities(demo_root, _PATTERNS, [field])
        assert _named(demo_root) == [("U1", "U2")]

    def test_conflicting_patterns_rejected(self, demo_root):
        # Ingest rejects two patterns that normalize alike but name
        # different universities.
        (demo_root / "affiliations.csv").write_text(
            "raw_pattern,university_id\nUNIV X,U1\nuniv x.,U2\n",
            encoding="utf-8",
        )
        with pytest.raises(IngestError, match="conflicts"):
            ingest(demo_root)

    def test_maps_keep_their_own_lookups(self, tmp_path):
        # Each data directory's patterns decide its own publications:
        # no memo outlives one ingest.
        first, second, empty = (write_demo_dataset(tmp_path / name)
                                for name in ("first", "second", "empty"))
        _name_universities(first, [("UNIV X", "U1")], [("Univ. X",)])
        _name_universities(second, [("univ x.", "U2")], [("Univ. X",)])
        _name_universities(empty, [], [("Univ. X",)])
        assert _named(first) == [("U1",)]
        assert _named(second) == [("U2",)]
        assert _named(first) == [("U1",)]
        assert _named(empty) == [()]


class TestDiagnostics:
    def test_missing_file(self, demo_root):
        (demo_root / "funding.csv").unlink()
        with pytest.raises(IngestError, match="funding.csv"):
            ingest(_config(demo_root))

    def test_missing_files_are_all_reported(self, demo_root):
        (demo_root / "funding.csv").unlink()
        (demo_root / "affiliations.csv").unlink()
        with pytest.raises(IngestError) as exc:
            ingest(demo_root)
        diagnostics = exc.value.diagnostics
        assert len(diagnostics) == 2
        assert diagnostics[0].startswith("funding.csv: cannot open: ")
        assert diagnostics[1].startswith("affiliations.csv: cannot open: ")

    def test_wrong_header(self, demo_root):
        _write(demo_root, "journals.csv", "journal,yr,weight\nJ1,2001,1.0\n")
        with pytest.raises(IngestError, match="header must be"):
            ingest(_config(demo_root))

    def test_empty_file(self, demo_root):
        _write(demo_root, "journals.csv", "")
        with pytest.raises(IngestError, match="empty file"):
            ingest(_config(demo_root))

    def test_field_count_reported_with_line(self, demo_root):
        _write(demo_root, "journals.csv",
               "journal_id,year,impact_weight\nJ1,2001\n")
        with pytest.raises(IngestError, match=r"journals\.csv:2"):
            ingest(_config(demo_root))

    def test_duplicate_staff_id_lists_both_lines(self, demo_root):
        path = demo_root / "staff.csv"
        text = path.read_text()
        first_row = text.splitlines()[1]
        path.write_text(text + first_row + "\n", encoding="utf-8")
        with pytest.raises(IngestError) as exc:
            ingest(_config(demo_root))
        message = str(exc.value)
        assert "duplicate staff id 'S001'" in message
        assert "line 2" in message

    def test_bad_year_value(self, demo_root):
        _write(demo_root, "journals.csv",
               "journal_id,year,impact_weight\nJ1,MMXI,1.0\n")
        with pytest.raises(IngestError, match="must be an integer"):
            ingest(_config(demo_root))

    def test_bad_rank(self, demo_root):
        _write(
            demo_root, "staff.csv",
            "staff_id,surname,first_names,rank,university_id,area_id,"
            "year_from,year_to\nS.X,Kim,Ana,ZZ,U1,A01,1998,2006\n",
        )
        with pytest.raises(IngestError, match="rank must be one of"):
            ingest(_config(demo_root))

    def test_bad_doc_type(self, demo_root):
        _write(
            demo_root, "publications.csv",
            "pub_id,year,doc_type,journal_id,authors,raw_affiliations\n"
            'PX,2002,poster,J1,"KIM,A.","Univ. of Alpha"\n',
        )
        with pytest.raises(IngestError, match="doc_type must be one of"):
            ingest(_config(demo_root))

    def test_author_without_comma(self, demo_root):
        _write(
            demo_root, "publications.csv",
            "pub_id,year,doc_type,journal_id,authors,raw_affiliations\n"
            'PX,2002,article,J1,"KIM","Univ. of Alpha"\n',
        )
        with pytest.raises(IngestError, match="SURNAME,INITIALS"):
            ingest(_config(demo_root))

    def test_duplicate_publication_id_lists_both_lines(self, demo_root):
        # Each later copy names the first line, not the copy before it.
        path = demo_root / "publications.csv"
        text = path.read_text()
        path.write_text(text + 2 * (text.splitlines()[1] + "\n"),
                        encoding="utf-8")
        with pytest.raises(IngestError) as exc:
            ingest(_config(demo_root))
        assert exc.value.diagnostics == [
            f"publications.csv:{line}: duplicate publication id 'P001' "
            "(first defined at line 2)" for line in (32, 33)
        ]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400",
                                       "1e308"])
    def test_non_finite_amounts(self, demo_root, value):
        # 1e308 is finite, but its sums and squared deviations are not.
        rule = ("must be at most 1e+12" if value == "1e308"
                else "must be finite and >= 0")
        _write(demo_root, "journals.csv",
               f"journal_id,year,impact_weight\nJ1,2001,{value}\n")
        _write(demo_root, "funding.csv",
               f"university_id,area_id,year,prin_keur\nU1,A01,2001,{value}\n")
        with pytest.raises(IngestError) as exc:
            ingest(_config(demo_root))
        assert exc.value.diagnostics == [
            f"journals.csv:2: impact_weight {rule}, got {value!r}",
            f"funding.csv:2: prin_keur {rule}, got {value!r}",
        ]

    def test_zero_and_largest_amounts_load(self, demo_root):
        _write(demo_root, "journals.csv",
               "journal_id,year,impact_weight\nJ1,2001,0\nJ1,2002,1e12\n")
        _write(demo_root, "funding.csv", "university_id,area_id,year,"
               "prin_keur\nU1,A01,2001,0\nU1,A01,2002,1e12\n")
        corpus = ingest(_config(demo_root))
        assert corpus.journals == {("J1", 2001): 0.0,
                                   ("J1", 2002): MAX_AMOUNT}
        assert corpus.funding == {("U1", "A01", 2001): 0.0,
                                  ("U1", "A01", 2002): MAX_AMOUNT}

    def test_amount_just_above_the_largest(self, demo_root):
        value = repr(math.nextafter(MAX_AMOUNT, math.inf))
        _write(demo_root, "journals.csv",
               f"journal_id,year,impact_weight\nJ1,2001,{value}\n")
        _write(demo_root, "funding.csv",
               f"university_id,area_id,year,prin_keur\nU1,A01,2001,{value}\n")
        with pytest.raises(IngestError) as exc:
            ingest(_config(demo_root))
        assert exc.value.diagnostics == [
            f"journals.csv:2: impact_weight must be at most 1e+12, "
            f"got {value!r}",
            f"funding.csv:2: prin_keur must be at most 1e+12, got {value!r}",
        ]

    def test_invalid_utf8_reported_with_line(self, demo_root):
        path = demo_root / "staff.csv"
        path.write_bytes(path.read_bytes()
                         + b"S900,Ros\xe9,Mario,FP,U1,A01,1998,2006\n"
                         + b"S901,Neri,Pia,XX,U1,A01,1998,2006\n")
        with pytest.raises(IngestError) as exc:
            ingest(_config(demo_root))
        assert exc.value.diagnostics == [
            "staff.csv:30: invalid UTF-8",
            "staff.csv:31: rank must be one of FP/AP/RF, got 'XX'",
        ]

    def test_negative_weight(self, demo_root):
        _write(demo_root, "journals.csv",
               "journal_id,year,impact_weight\nJ1,2001,-0.5\n")
        with pytest.raises(IngestError, match=">= 0"):
            ingest(_config(demo_root))

    def test_duplicate_journal_year(self, demo_root):
        _write(demo_root, "journals.csv",
               "journal_id,year,impact_weight\nJ1,2001,1.0\nJ1,2001,2.0\n")
        with pytest.raises(IngestError, match="duplicate weight"):
            ingest(_config(demo_root))

    def test_conflicting_affiliation_patterns(self, demo_root):
        _write(demo_root, "affiliations.csv",
               "raw_pattern,university_id\nUniv. X,U1\nUNIV X,U2\n")
        with pytest.raises(IngestError, match="conflicts"):
            ingest(_config(demo_root))

    def test_every_affiliation_diagnostic_in_order(self, demo_root):
        """The reader's diagnostics come first, then each rejected row's
        in line order; a repeat that maps to the same university is
        accepted silently."""
        _write(demo_root, "affiliations.csv",
               "raw_pattern,university_id\n"
               "Univ. X,U1\n"
               "...,U2\n"
               "Univ Y,  \n"
               "UNIV X,U1\n"
               "univ x.,U2\n"
               "Univ Z,U3,extra\n")
        with pytest.raises(IngestError) as exc:
            ingest(_config(demo_root))
        assert exc.value.diagnostics == [
            "affiliations.csv:7: expected 2 fields, got 3",
            "affiliations.csv:3: pattern '...' is empty after normalization",
            "affiliations.csv:4: university_id is blank",
            "affiliations.csv:6: pattern 'univ x.' conflicts with line 2 "
            "(maps to both 'U1' and 'U2')",
        ]

    def test_all_problems_reported_at_once(self, demo_root):
        _write(demo_root, "journals.csv",
               "journal_id,year,impact_weight\nJ1,2001,-1\nJ2,bad,1\n")
        _write(demo_root, "funding.csv",
               "university_id,area_id,year,prin_keur\nU1,A01,2001,-5\n")
        with pytest.raises(IngestError) as exc:
            ingest(_config(demo_root))
        assert len(exc.value.diagnostics) == 3


class TestFundingWarnings:
    def test_unknown_university_skipped_with_warning(self, demo_root):
        path = demo_root / "funding.csv"
        path.write_text(path.read_text() + "U9,A01,2001,50\n",
                        encoding="utf-8")
        corpus = ingest(_config(demo_root))
        assert any("'U9'" in w for w in corpus.warnings)
        assert ("U9", "A01", 2001) not in corpus.funding

    def test_duplicate_funding_row(self, demo_root):
        path = demo_root / "funding.csv"
        text = path.read_text()
        path.write_text(text + text.splitlines()[1] + "\n", encoding="utf-8")
        with pytest.raises(IngestError, match="duplicate funding row"):
            ingest(_config(demo_root))


class TestAuthorField:
    def test_dotted_and_undotted_initials(self):
        assert [str(t) for t in _author_tokens("ROSSI,M.A.", {})] == \
            [str(t) for t in _author_tokens("ROSSI,MA", {})]

    def test_multiple_authors(self):
        tokens = _author_tokens("ROSSI,M.;BIANCHI,L.", {})
        assert [t.surname for t in tokens] == ["ROSSI", "BIANCHI"]

    def test_empty_field_is_empty_tuple(self):
        assert _author_tokens("", {}) == ()
        assert _author_tokens("  ", {}) == ()

    def test_trailing_semicolon_tolerated(self):
        assert len(_author_tokens("ROSSI,M.;", {})) == 1

    def test_comma_required(self):
        with pytest.raises(StructuralError):
            _author_tokens("ROSSI", {})


class TestOverrideFile:
    @pytest.fixture()
    def corpus(self, demo_root):
        return ingest(_config(demo_root))

    def test_round_trip(self, tmp_path, corpus):
        # A path may be a string; cells are read stripped, as in the
        # input files.
        path = tmp_path / "fixes.csv"
        path.write_text(
            "pub_id,author_position,staff_id\n"
            "P001,1,S001\nP001,2,\n P029 , 1 , S027 \n",
            encoding="utf-8",
        )
        assert load_overrides(str(path), corpus) == {
            ("P001", 1): "S001", ("P001", 2): None, ("P029", 1): "S027",
        }

    def test_duplicate_override_rejected(self, tmp_path, corpus):
        path = tmp_path / "fixes.csv"
        path.write_text(
            "pub_id,author_position,staff_id\nP001,1,S001\nP001,1,S002\n",
            encoding="utf-8",
        )
        with pytest.raises(IngestError, match="duplicate override"):
            load_overrides(path, corpus)

    def test_bad_position_rejected(self, tmp_path, corpus):
        path = tmp_path / "fixes.csv"
        path.write_text("pub_id,author_position,staff_id\nP001,0,S001\n",
                        encoding="utf-8")
        with pytest.raises(IngestError, match="no author position 0"):
            load_overrides(path, corpus)

    def test_unknown_references_reported_with_lines(self, tmp_path, corpus):
        path = tmp_path / "fixes.csv"
        path.write_text(
            "pub_id,author_position,staff_id\n"
            "P029,1,S99999\nP999,1,S001\nP029,3,S027\n",
            encoding="utf-8",
        )
        with pytest.raises(IngestError) as exc:
            load_overrides(path, corpus)
        assert exc.value.diagnostics == [
            "fixes.csv:2: unknown staff id 'S99999'",
            "fixes.csv:3: unknown publication 'P999'",
            "fixes.csv:4: publication 'P029' has no author position 3 "
            "(it lists 2 author(s))",
        ]

    def test_override_validation(self, tmp_path, demo_root):
        # S001 works at U1, but P029 names only "Univ. of Beta" (U2);
        # S099 left in 1999, before P030 (2000, Univ. of Alpha).
        staff_path = demo_root / "staff.csv"
        staff_path.write_text(
            staff_path.read_text() + "S099,Rossi9,Mario,FP,U1,A01,1990,1999\n",
            encoding="utf-8",
        )
        corpus = ingest(_config(demo_root))
        path = tmp_path / "fixes.csv"
        path.write_text(
            "pub_id,author_position,staff_id\n"
            "P029,1,S001\nP029,2,S006\nP030,1,S099\n",
            encoding="utf-8",
        )
        with pytest.raises(IngestError) as exc:
            load_overrides(path, corpus)
        assert exc.value.diagnostics == [
            "fixes.csv:2: staff 'S001' works at university 'U1', which the "
            "affiliations of publication 'P029' do not name",
            "fixes.csv:4: staff 'S099' is inactive in 2000, the year of "
            "publication 'P030'",
        ]


class TestSharedValues:
    """Ingest parses each distinct author entry and affiliation field
    once and shares the result; only object identity shows it."""

    @pytest.fixture()
    def synthetic_root(self, tmp_path):
        return write_synthetic_dataset(tmp_path / "data", seed=11, n_areas=2,
                                       n_universities=8)

    @staticmethod
    def _rows(root):
        with open(root / "publications.csv", newline="",
                  encoding="utf-8") as handle:
            return list(csv.DictReader(handle))

    def test_same_publications_as_a_per_row_parse(self, synthetic_root):
        corpus = ingest(synthetic_root)
        rows = self._rows(synthetic_root)
        assert [p.pub_id for p in corpus.publications] == \
            [r["pub_id"] for r in rows]
        for pub, row in zip(corpus.publications, rows):
            assert pub.authors == _author_tokens(row["authors"], {})
            assert pub.universities == tuple(sorted(
                {corpus.affiliations[key]
                 for s in row["raw_affiliations"].split(";")
                 if (key := normalize_text(s)) in corpus.affiliations}))

    def test_equal_values_are_one_object(self, synthetic_root):
        pubs = ingest(synthetic_root).publications
        rows = self._rows(synthetic_root)
        by_entry: dict[str, set[int]] = {}
        for pub, row in zip(pubs, rows):
            entries = [e.strip() for e in row["authors"].split(";")
                       if e.strip()]
            for entry, token in zip(entries, pub.authors, strict=True):
                by_entry.setdefault(entry, set()).add(id(token))
        assert len(by_entry) < sum(len(p.authors) for p in pubs)
        assert all(len(ids) == 1 for ids in by_entry.values())
        # Spellings such as ROSSI,M. and ROSSI,M parse to one token value.
        tokens = [t for p in pubs for t in p.authors]
        assert len(set(tokens)) < len(by_entry)
        assert len({id(t) for t in tokens}) == len(set(tokens))
        fields = [p.universities for p in pubs]
        assert len(set(fields)) < len(fields)
        assert len({id(f) for f in fields}) == len(set(fields))
        for name in ("year", "doc_type", "journal_id"):
            values = [getattr(p, name) for p in pubs]
            assert len(set(values)) < len(values)
            assert len({id(v) for v in values}) == len(set(values)), name

    def test_repeated_bad_entry_reported_on_each_line(self, demo_root):
        path = demo_root / "publications.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        for number in (2, 3):
            lines[number - 1] = lines[number - 1].replace(
                '"ROSSI1,M.;', '"ROSSI1,M.;BADENTRY;', 1)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(IngestError) as exc:
            ingest(demo_root)
        assert [d for d in exc.value.diagnostics if "BADENTRY" in d] == [
            f"publications.csv:{n}: author entry 'BADENTRY' lacks the "
            "SURNAME,INITIALS comma"
            for n in (2, 3)
        ]

    @pytest.mark.parametrize("cell, diagnostic", [
        ("20O1,article,J1", "year must be an integer, got '20O1'"),
        ("2001,poster,J1",
         "doc_type must be one of article/review/other, got 'poster'"),
        ("2001,article, ", "journal_id is blank"),
    ])
    def test_repeated_bad_cell_reported_on_each_line(self, demo_root, cell,
                                                     diagnostic):
        path = demo_root / "publications.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        for number in (2, 3):
            pub_id, _ = lines[number - 1].split(",", 1)
            lines[number - 1] = (f'{pub_id},{cell},"KIM,A.",'
                                 '"Univ. of Alpha"')
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(IngestError) as exc:
            ingest(demo_root)
        assert exc.value.diagnostics == [
            f"publications.csv:{n}: {diagnostic}" for n in (2, 3)]


def test_same_records_as_a_dictreader_oracle(tmp_path):
    root = write_synthetic_dataset(tmp_path / "data", seed=5, n_areas=2,
                                   n_universities=6)
    corpus = ingest(root)
    staff, publications, journals, funding, affiliations, warnings = (
        ingest_oracle(root))
    assert list(corpus.staff) == staff
    assert all(type(p) is Publication for p in corpus.publications)
    assert list(corpus.publications) == publications
    assert corpus.journals == journals
    assert corpus.funding == funding
    assert corpus.affiliations == affiliations
    assert list(corpus.warnings) == warnings
    assert len(publications) > 100 and warnings


def test_ingest_peak_memory_stays_near_what_it_keeps(tmp_path):
    """Ingest streams each file's rows into its records: the most memory
    it holds at once stays near what the corpus keeps.  On this corpus
    the traced peak is 2.23 times the retained size when every row is
    listed before the loader parses the first one, and 1.43 times when
    rows are streamed; the bound lies halfway."""
    root = write_synthetic_dataset(tmp_path / "data", seed=7, n_areas=3,
                                   n_universities=20, pubs_per_staff_year=2.0)
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        corpus = ingest(root)
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(corpus.publications) > 5000
    assert (peak - base) / (retained - base) < 1.83
