"""Record carriers, and the ingest rules that guarantee their contents.

The record types check nothing themselves.  The rejection tests below
go through ingest: author entries through ``ingest._author_tokens``,
every other record as one bad row that must yield its ``file:line:``
diagnostic.
"""

import pytest

from uniprod.bibliometrics import MatchedCorpus
from uniprod.errors import IngestError, StructuralError
from uniprod.ingest import _author_tokens, ingest
from uniprod.records import (
    AuthorToken,
    DOC_TYPES,
    Publication,
    StaffMember,
    StaffRegistry,
)

from .fixtures import write_demo_dataset


def make_staff(staff_id="S1", surname="Rossi", first_names="Mario",
               rank="FP", university_id="U1", area_id="A1",
               year_from=1998, year_to=2010):
    return StaffMember(staff_id, surname, first_names, rank,
                       university_id, area_id, year_from, year_to)


def rejected(tmp_path, file_name, row):
    """The one diagnostic of ingesting the demo dataset with ``row``
    appended to ``file_name``; it must point at that row's line."""
    root = write_demo_dataset(tmp_path / "data")
    path = root / file_name
    text = path.read_text(encoding="utf-8") + row + "\n"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(IngestError) as exc:
        ingest(root)
    [diagnostic] = exc.value.diagnostics
    assert diagnostic.startswith(f"{file_name}:{len(text.splitlines())}: ")
    return diagnostic


class TestAuthorToken:
    def test_basic(self):
        for entry in ("ROSSI,M.a.", "ROSSI ,M.a."):
            [t] = _author_tokens(entry, {})
            assert t == AuthorToken("ROSSI", ("M", "A"))
            assert str(t) == "ROSSI,M.A."

    def test_blank_surname(self):
        with pytest.raises(StructuralError, match="blank surname"):
            _author_tokens("  ,M.", {})

    def test_no_initials(self):
        with pytest.raises(StructuralError, match="no initials"):
            _author_tokens("ROSSI,", {})

    @pytest.mark.parametrize("bad", ["", "MA", "1", "."])
    def test_bad_initial(self, bad):
        # Initials are read letter by letter, so every one is a single
        # upper-case letter whatever surrounds it.
        [t] = _author_tokens(f"ROSSI,{bad}m", {})
        assert t.initials[-1] == "M"
        assert all(len(i) == 1 and i.isalpha() and i.isupper()
                   for i in t.initials)


class TestStaffMember:
    def test_initials_from_first_names(self):
        assert make_staff(first_names="Maria Anna").initials == ("M", "A")
        assert make_staff(first_names="Jean-Luc").initials == ("J", "L")
        assert make_staff(first_names="mario").initials == ("M",)
        # The first letter of each part: a part with no letter gives none.
        assert make_staff(first_names="Maria (Pia)").initials == ("M", "P")
        assert make_staff(first_names=".Maria").initials == ("M",)
        assert make_staff(first_names="Maria 2 Pia").initials == ("M", "P")

    def test_active_in(self):
        m = make_staff(year_from=2000, year_to=2003)
        assert not m.active_in(1999)
        assert m.active_in(2000)
        assert m.active_in(2003)
        assert not m.active_in(2004)

    def test_bad_rank(self, tmp_path):
        assert "rank must be one of FP/AP/RF, got 'prof'" in rejected(
            tmp_path, "staff.csv", "S900,Rossi,Mario,prof,U1,A01,1998,2006")

    def test_inverted_years(self, tmp_path):
        assert "empty active range 2005..2001" in rejected(
            tmp_path, "staff.csv", "S900,Rossi,Mario,FP,U1,A01,2005,2001")

    def test_non_integer_years(self, tmp_path):
        assert "year_from must be an integer" in rejected(
            tmp_path, "staff.csv", "S900,Rossi,Mario,FP,U1,A01,2001.5,2003")


class TestPublication:
    def make(self, **kw):
        base = dict(
            pub_id="P1",
            year=2002,
            doc_type="article",
            journal_id="J1",
            authors=(AuthorToken("ROSSI", ("M",)),),
            universities=("U1",),
        )
        base.update(kw)
        return Publication(**base)

    def test_basic(self):
        p = self.make()
        assert p.author_count == 1
        assert p.universities == ("U1",)

    def test_other_doc_type_not_counted(self):
        # Only articles and reviews enter a cell's outputs.
        pairs = [(self.make(pub_id=f"P{k}", doc_type=doc_type), 1)
                 for k, doc_type in enumerate(DOC_TYPES)]
        rows = MatchedCorpus({("A1", "U1"): pairs}).cell_rows(
            "A1", "U1", [2002])
        assert [pub.doc_type for pub, _ in rows] == ["article", "review"]

    def test_empty_author_list_is_representable(self):
        assert self.make(authors=()).author_count == 0

    def test_bad_doc_type(self, tmp_path):
        assert "doc_type must be one of" in rejected(
            tmp_path, "publications.csv",
            'PX,2002,letter,J1,"KIM,A.","Univ. of Alpha"')


class TestStaffRegistry:
    def registry(self):
        return StaffRegistry([
            make_staff("S1", "Rossi", "Mario", "FP", "U1", "A1", 1998, 2010),
            make_staff("S2", "Rossi", "Marta", "AP", "U1", "A1", 2001, 2004),
            make_staff("S3", "Bianchi", "Carla", "RF", "U1", "A2", 1995, 2000),
            make_staff("S4", "Verdi", "Anna", "FP", "U2", "A1", 2000, 2009),
        ])

    def test_duplicate_id(self, tmp_path):
        assert "duplicate staff id 'S001'" in rejected(
            tmp_path, "staff.csv", "S001,Bianchi,Mario,FP,U1,A01,1998,2006")

    def test_member_lookup(self):
        reg = self.registry()
        assert reg.member("S2").first_names == "Marta"
        assert reg.member("S99") is None

    def test_headcounts(self):
        # Per rank (FP, AP, RF), members on staff at the end of each
        # year, both ends of an active range included, summed over the
        # years.
        reg = self.registry()
        assert reg.headcounts("A1", "U1", [2002]) == (1, 1, 0)
        assert reg.headcounts("A1", "U1", [2000]) == (1, 0, 0)
        assert reg.headcounts("A1", "U1", [2001, 2004, 2005]) == (3, 2, 0)
        assert reg.headcounts("A2", "U1", [1995, 2000, 2001]) == (0, 0, 2)
        assert reg.headcounts("A1", "U2", [1999, 2000, 2009, 2010]) \
            == (2, 0, 0)
        assert reg.headcounts("A9", "U9", [2002]) == (0, 0, 0)
        assert reg.headcounts("A1", "U1", []) == (0, 0, 0)

    def test_id_listings(self):
        reg = self.registry()
        assert reg.university_ids() == ("U1", "U2")
        assert reg.area_ids() == ("A1", "A2")
        assert reg.universities_in_area("A1") == ("U1", "U2")
        assert reg.universities_in_area("A2") == ("U1",)
        # Registry order, not id order: the DEA units are sorted once,
        # in ``assemble_problem``.
        reg = StaffRegistry([
            make_staff("S1", university_id="U3"),
            make_staff("S2", university_id="U1"),
            make_staff("S3", university_id="U2", area_id="A2"),
            make_staff("S4", university_id="U3"),
            make_staff("S5", university_id="U2"),
        ])
        assert reg.university_ids() == ("U1", "U2", "U3")
        assert reg.universities_in_area("A1") == ("U3", "U1", "U2")

    def test_coverage(self):
        reg = self.registry()
        assert reg.coverage() == (1995, 2010)


class TestJournalTable:
    def test_negative_weight(self, tmp_path):
        assert "impact_weight must be finite and >= 0" in rejected(
            tmp_path, "journals.csv", "J1,2004,-0.1")

    def test_duplicate_row(self, tmp_path):
        assert "duplicate weight for journal 'J1' year 2001" in rejected(
            tmp_path, "journals.csv", "J1,2001,2.0")


class TestFundingTable:
    def test_duplicate_row(self, tmp_path):
        assert "duplicate funding row" in rejected(
            tmp_path, "funding.csv", "U1,A01,2001,5")

    def test_negative_amount(self, tmp_path):
        assert "prin_keur must be finite and >= 0" in rejected(
            tmp_path, "funding.csv", "U1,A01,2004,-5")
