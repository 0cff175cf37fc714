"""CSV ingestion: diagnostics with line numbers, warnings, overrides."""

import pytest

from uniprod.errors import IngestError, StructuralError
from uniprod.ingest import ingest, load_overrides, parse_author_field

from .fixtures import write_demo_dataset


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
        assert corpus.staff.headcount("A01", "U2", "AP", 2001) == 3.0
        assert corpus.journals.weight_for("J1", 2002) == 1.5
        assert corpus.funding.amount("U1", "A01", 2001) == 120.0
        assert corpus.affiliations.lookup("univ of alpha") == "U1"

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
        assert pub.raw_affiliations == ("Univ. of Alpha", "ALPHA UNIV")

    def test_blank_rows_are_skipped(self, demo_root):
        path = demo_root / "journals.csv"
        path.write_text(path.read_text() + "\n,,\n\n", encoding="utf-8")
        corpus = ingest(_config(demo_root))
        assert corpus.journals.weight_for("J2", 2003) == 0.8


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
        path = demo_root / "publications.csv"
        text = path.read_text()
        path.write_text(text + text.splitlines()[1] + "\n", encoding="utf-8")
        with pytest.raises(IngestError) as exc:
            ingest(_config(demo_root))
        assert exc.value.diagnostics == [
            "publications.csv:32: duplicate publication id 'P001' "
            "(first defined at line 2)"
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
        assert corpus.funding.amount("U9", "A01", 2001) == 0.0

    def test_duplicate_funding_row(self, demo_root):
        path = demo_root / "funding.csv"
        text = path.read_text()
        path.write_text(text + text.splitlines()[1] + "\n", encoding="utf-8")
        with pytest.raises(IngestError, match="duplicate funding row"):
            ingest(_config(demo_root))


class TestAuthorField:
    def test_dotted_and_undotted_initials(self):
        assert [str(t) for t in parse_author_field("ROSSI,M.A.")] == \
            [str(t) for t in parse_author_field("ROSSI,MA")]

    def test_multiple_authors(self):
        tokens = parse_author_field("ROSSI,M.;BIANCHI,L.")
        assert [t.surname for t in tokens] == ["ROSSI", "BIANCHI"]

    def test_empty_field_is_empty_tuple(self):
        assert parse_author_field("") == ()
        assert parse_author_field("  ") == ()

    def test_trailing_semicolon_tolerated(self):
        assert len(parse_author_field("ROSSI,M.;")) == 1

    def test_comma_required(self):
        with pytest.raises(StructuralError):
            parse_author_field("ROSSI")


class TestOverrideFile:
    @pytest.fixture()
    def corpus(self, demo_root):
        return ingest(_config(demo_root))

    def test_round_trip(self, tmp_path, corpus):
        path = tmp_path / "fixes.csv"
        path.write_text(
            "pub_id,author_position,staff_id\n"
            "P001,1,S001\nP001,2,\nP029,1,S027\n",
            encoding="utf-8",
        )
        assert load_overrides(path, corpus) == {
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
