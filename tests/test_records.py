"""Record carriers, and the ingest rules that guarantee their contents.

The record types check nothing themselves.  The rejection tests below
go through ingest: author entries through ``parse_author_field``, every
other record as one bad row that must yield its ``file:line:``
diagnostic.
"""

import pytest

from uniprod.errors import IngestError, StructuralError, UnknownIdError
from uniprod.ingest import ingest, parse_author_field
from uniprod.records import (
    AuthorToken,
    FundingTable,
    JournalTable,
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
        [t] = parse_author_field("ROSSI,M.a.")
        assert t.initials == ("M", "A")
        assert str(t) == "ROSSI,M.A."

    def test_blank_surname(self):
        with pytest.raises(StructuralError, match="blank surname"):
            parse_author_field("  ,M.")

    def test_no_initials(self):
        with pytest.raises(StructuralError, match="no initials"):
            parse_author_field("ROSSI,")

    @pytest.mark.parametrize("bad", ["", "MA", "1", "."])
    def test_bad_initial(self, bad):
        # Initials are read letter by letter, so every one is a single
        # upper-case letter whatever surrounds it.
        [t] = parse_author_field(f"ROSSI,{bad}m")
        assert t.initials[-1] == "M"
        assert all(len(i) == 1 and i.isalpha() and i.isupper()
                   for i in t.initials)


class TestStaffMember:
    def test_initials_from_first_names(self):
        assert make_staff(first_names="Maria Anna").initials == ("M", "A")
        assert make_staff(first_names="Jean-Luc").initials == ("J", "L")
        assert make_staff(first_names="mario").initials == ("M",)

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
            raw_affiliations=("UNIV X",),
        )
        base.update(kw)
        return Publication(**base)

    def test_basic(self):
        p = self.make()
        assert p.author_count == 1
        assert p.counts_as_output
        assert p.raw_affiliations == ("UNIV X",)

    def test_other_doc_type_not_counted(self):
        assert not self.make(doc_type="other").counts_as_output

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
        assert "S2" in reg
        with pytest.raises(UnknownIdError):
            reg.member("S99")

    def test_headcount(self):
        reg = self.registry()
        assert reg.headcount("A1", "U1", "FP", 2002) == 1
        assert reg.headcount("A1", "U1", "AP", 2002) == 1
        assert reg.headcount("A1", "U1", "AP", 2000) == 0
        assert reg.headcount("A2", "U1", "RF", 1999) == 1
        assert reg.headcount("A2", "U1", "RF", 2002) == 0
        assert reg.headcount("A9", "U9", "FP", 2002) == 0
        with pytest.raises(StructuralError):
            reg.headcount("A1", "U1", "XX", 2002)

    def test_id_listings(self):
        reg = self.registry()
        assert reg.university_ids() == ("U1", "U2")
        assert reg.area_ids() == ("A1", "A2")
        assert reg.universities_in_area("A1") == ("U1", "U2")
        assert reg.universities_in_area("A2") == ("U1",)

    def test_coverage(self):
        reg = self.registry()
        assert reg.coverage() == (1995, 2010)
        assert StaffRegistry([]).coverage() is None


class TestJournalTable:
    def test_lookup(self):
        t = JournalTable([("J1", 2001, 1.5), ("J1", 2002, 2.0), ("J2", 2001, 0.0)])
        assert t.weight_for("J1", 2002) == 2.0
        assert t.weight_for("J1", 2003) is None
        assert t.weight_for("J9", 2001) is None
        assert "J2" in t and "J9" not in t
        assert len(t) == 3

    def test_negative_weight(self, tmp_path):
        assert "impact_weight must be finite and >= 0" in rejected(
            tmp_path, "journals.csv", "J1,2004,-0.1")

    def test_duplicate_row(self, tmp_path):
        assert "duplicate weight for journal 'J1' year 2001" in rejected(
            tmp_path, "journals.csv", "J1,2001,2.0")


class TestFundingTable:
    def test_lookup_defaults_to_zero(self):
        t = FundingTable([("U1", "A1", 2001, 120.0), ("U1", "A1", 2002, 0.0)])
        assert t.amount("U1", "A1", 2001) == 120.0
        assert t.amount("U1", "A1", 2002) == 0.0
        assert t.amount("U1", "A1", 2003) == 0.0
        assert t.amount("U2", "A1", 2001) == 0.0

    def test_duplicate_row(self, tmp_path):
        assert "duplicate funding row" in rejected(
            tmp_path, "funding.csv", "U1,A01,2001,5")

    def test_negative_amount(self, tmp_path):
        assert "prin_keur must be finite and >= 0" in rejected(
            tmp_path, "funding.csv", "U1,A01,2004,-5")
