import numpy as np
import pytest

from uniprod.bibliometrics import (
    EXCLUDED_BELOW_STAFF_THRESHOLD,
    EXCLUDED_ZERO_OUTPUTS,
    InputVector,
    MatchedCorpus,
    OutputVector,
    assemble_problem,
    build_input_vector,
    compute_output_vector,
)
from uniprod.config import RunConfig
from uniprod.disambiguation import (
    AffiliationDictionary,
    Assignment,
    MatchOutcome,
    disambiguate_corpus,
)
from uniprod.errors import (
    AreaNotAnalyzableError,
    MissingDataError,
    StructuralError,
)
from uniprod.ingest import Corpus
from uniprod.pipeline import run_pipeline
from uniprod.records import (
    AuthorToken,
    FundingTable,
    JournalTable,
    Publication,
    StaffMember,
    StaffRegistry,
)

from .oracles import cell_outputs_bruteforce


def staff(staff_id, surname, first_names, rank, university_id, area_id,
          year_from=1998, year_to=2010):
    return StaffMember(staff_id, surname, first_names, rank,
                       university_id, area_id, year_from, year_to)


REGISTRY = StaffRegistry([
    staff("S1", "Rossi", "Mario", "FP", "U1", "A1"),
    staff("S2", "Bianchi", "Carla", "AP", "U1", "A1"),
    staff("S3", "Gallo", "Luca", "RF", "U1", "A1"),
    staff("S4", "Verdi", "Anna", "FP", "U1", "A2"),
    staff("S5", "Neri", "Paolo", "FP", "U2", "A1"),
    staff("S6", "Russo", "Giovanni", "AP", "U2", "A2"),
])

JOURNALS = JournalTable([
    ("J1", 2001, 3.0), ("J1", 2002, 3.0),
    ("J2", 2002, 1.5), ("J3", 2002, 0.5),
])


def pub(pub_id, year=2002, doc_type="article", journal_id="J1", n_authors=1):
    tokens = tuple(
        AuthorToken(f"AUTHOR{k}", ("X",)) for k in range(n_authors)
    )
    return Publication(pub_id, year, doc_type, journal_id, tokens, ("AFF",))


def matched(pub_id, position, staff_id):
    return Assignment(pub_id, position, MatchOutcome.matched(staff_id))


def corpus_of(pub_specs, assigns):
    return MatchedCorpus(pub_specs, assigns, REGISTRY)


def outputs(corpus, area_id, university_id, years, warnings=None):
    return compute_output_vector(corpus, JOURNALS, area_id, university_id,
                                 years, warnings)


class TestComputePu:
    def test_many_matched_authors_count_once(self):
        c = corpus_of(
            [pub("P1", n_authors=3)],
            [matched("P1", 1, "S1"), matched("P1", 2, "S2"),
             matched("P1", 3, "S3")],
        )
        assert outputs(c, "A1", "U1", [2002]).pu == 1

    def test_multi_area_publication_counts_in_each_cell(self):
        c = corpus_of(
            [pub("P1", n_authors=2)],
            [matched("P1", 1, "S1"), matched("P1", 2, "S4")],
        )
        assert outputs(c, "A1", "U1", [2002]).pu == 1
        assert outputs(c, "A2", "U1", [2002]).pu == 1

    def test_empty_cell(self):
        c = corpus_of([pub("P1")], [matched("P1", 1, "S1")])
        assert outputs(c, "A1", "U2", [2002]).pu == 0

    def test_year_filter_and_doc_type(self):
        c = corpus_of(
            [pub("P1", year=2001), pub("P2", year=2002),
             pub("P3", year=2002, doc_type="other")],
            [matched("P1", 1, "S1"), matched("P2", 1, "S1"),
             matched("P3", 1, "S1")],
        )
        assert outputs(c, "A1", "U1", [2002]).pu == 1
        assert outputs(c, "A1", "U1", [2001, 2002]).pu == 2


class TestComputePc:
    def test_half_credit(self):
        c = corpus_of(
            [pub("P1", n_authors=4)],
            [matched("P1", 1, "S1"), matched("P1", 2, "S2")],
        )
        assert outputs(c, "A1", "U1", [2002]).pc == pytest.approx(0.5, abs=0)

    def test_single_author_full_credit(self):
        c = corpus_of([pub("P1", n_authors=1)], [matched("P1", 1, "S1")])
        assert outputs(c, "A1", "U1", [2002]).pc == 1.0

    def test_sum_of_fractions(self):
        c = corpus_of(
            [pub("P1", n_authors=2), pub("P2", n_authors=3)],
            [matched("P1", 1, "S1"), matched("P2", 1, "S2")],
        )
        assert outputs(c, "A1", "U1", [2002]).pc == pytest.approx(5.0 / 6.0,
                                                                abs=1e-15)


class TestComputeSs:
    def test_single_weight(self):
        c = corpus_of([pub("P1", year=2001)], [matched("P1", 1, "S1")])
        assert outputs(c, "A1", "U1", [2001]).ss == 3.0

    def test_weight_sum(self):
        c = corpus_of(
            [pub("P1", journal_id="J2"), pub("P2", journal_id="J3")],
            [matched("P1", 1, "S1"), matched("P2", 1, "S1")],
        )
        assert outputs(c, "A1", "U1", [2002]).ss == 2.0

    def test_missing_weight_contributes_zero_with_warning(self):
        c = corpus_of(
            [pub("P1", journal_id="J2"), pub("P2", journal_id="JX")],
            [matched("P1", 1, "S1"), matched("P2", 1, "S1")],
        )
        warnings: list[str] = []
        got = outputs(c, "A1", "U1", [2002], warnings).ss
        assert got == 1.5
        assert len(warnings) == 1
        assert "JX" in warnings[0] and "P2" in warnings[0]


class TestCorpusInvariants:
    def test_pc_bounded_by_pu_and_matches_bruteforce(self):
        rng = np.random.default_rng(31)
        surnames = ["Rossi", "Bianchi", "Verdi", "Neri", "Russo", "Gallo"]
        firsts = ["Mario", "Marta", "Anna", "Paolo", "Elena", "Luca"]
        pool = []
        sid = 0
        for uni in ("U1", "U2", "U3"):
            for area in ("A1", "A2"):
                for _ in range(int(rng.integers(1, 4))):
                    sid += 1
                    pool.append(staff(
                        f"S{sid}",
                        surnames[rng.integers(len(surnames))],
                        firsts[rng.integers(len(firsts))],
                        "FP", uni, area,
                    ))
        registry = StaffRegistry(pool)
        pattern_of = {"U1": "UNIV ONE", "U2": "UNIV TWO", "U3": "UNIV THREE"}
        dictionary = AffiliationDictionary(
            [(p, u) for u, p in pattern_of.items()]
        )
        journals = JournalTable(
            [(f"J{j}", y, float(j)) for j in (1, 2) for y in (2001, 2002, 2003)]
        )
        pubs = []
        for i in range(30):
            n_auth = int(rng.integers(1, 5))
            authors, affs = [], set()
            for _ in range(n_auth):
                if rng.random() < 0.7:
                    m = pool[rng.integers(len(pool))]
                    authors.append(AuthorToken(m.surname.upper(), m.initials))
                    affs.add(pattern_of[m.university_id])
                else:
                    authors.append(AuthorToken("SMITH", ("J",)))
            pubs.append(Publication(
                f"P{i:03d}",
                int(rng.integers(2001, 2004)),
                "article" if rng.random() < 0.8 else "other",
                f"J{int(rng.integers(1, 4))}",
                tuple(authors),
                tuple(sorted(affs)) or ("ELSEWHERE INSTITUTE",),
            ))
        result = disambiguate_corpus(pubs, registry, dictionary)
        corpus = MatchedCorpus(pubs, result.assignments, registry)
        years = [2001, 2002, 2003]
        for area in ("A1", "A2"):
            for uni in ("U1", "U2", "U3"):
                vector = compute_output_vector(corpus, journals, area, uni,
                                               years)
                pu, pc, ss = vector.pu, vector.pc, vector.ss
                assert 0.0 <= pc <= pu
                opu, opc, oss = cell_outputs_bruteforce(
                    pubs, result.assignments, registry, journals,
                    area, uni, years,
                )
                assert pu == opu
                assert pc == opc
                assert ss == pytest.approx(oss, abs=1e-12)

    def test_additive_over_year_partition(self):
        c = corpus_of(
            [pub("P1", year=2001), pub("P2", year=2002, n_authors=3),
             pub("P3", year=2003, n_authors=2)],
            [matched("P1", 1, "S1"), matched("P2", 1, "S1"),
             matched("P3", 1, "S2"), matched("P3", 2, "S3")],
        )
        whole = compute_output_vector(c, JOURNALS, "A1", "U1",
                                      [2001, 2002, 2003])
        first = compute_output_vector(c, JOURNALS, "A1", "U1", [2001])
        rest = compute_output_vector(c, JOURNALS, "A1", "U1", [2002, 2003])
        assert whole.pu == first.pu + rest.pu
        assert whole.pc == pytest.approx(first.pc + rest.pc, abs=1e-12)
        assert whole.ss == pytest.approx(first.ss + rest.ss, abs=1e-12)


class TestBuildInputVector:
    def registry_with_growth(self):
        members = []
        for k in range(10):
            members.append(staff(f"F{k}", "Longa", "Pia", "FP", "U1", "A1",
                                 1995, 2005))
        for k in range(2):
            members.append(staff(f"G{k}", "Media", "Ugo", "FP", "U1", "A1",
                                 2001, 2005))
        for k in range(2):
            members.append(staff(f"H{k}", "Corta", "Ida", "FP", "U1", "A1",
                                 2002, 2005))
        return StaffRegistry(members)

    def test_mean_headcounts(self):
        reg = self.registry_with_growth()
        vec = build_input_vector(reg, FundingTable([]), "A1", "U1",
                                 (2001, 2002, 2003), lag=1)
        assert vec.fp == pytest.approx(12.0)
        assert vec.ap == vec.rf == 0.0
        assert vec.staff_total == pytest.approx(12.0)

    def test_single_year_window(self):
        reg = self.registry_with_growth()
        vec = build_input_vector(reg, FundingTable([]), "A1", "U1",
                                 (2002,), lag=1)
        assert vec.fp == 12.0

    def test_funding_mean_with_zero_years(self):
        reg = self.registry_with_growth()
        funding = FundingTable([("U1", "A1", 2001, 300.0)])
        vec = build_input_vector(reg, funding, "A1", "U1",
                                 (2001, 2002, 2003), lag=1)
        assert vec.pr == pytest.approx(100.0)

    def test_missing_snapshot_year(self):
        # Coverage is a property of the run, checked once by run_pipeline
        # before any cell is built.
        corpus = Corpus(self.registry_with_growth(), (), JournalTable([]),
                        FundingTable([]), AffiliationDictionary([]), ())
        with pytest.raises(MissingDataError) as exc:
            run_pipeline(corpus, RunConfig(years=(2001,), lag=10))
        assert "1991" in str(exc.value)

    def test_empty_years(self):
        with pytest.raises(StructuralError):
            build_input_vector(self.registry_with_growth(), FundingTable([]),
                               "A1", "U1", (), lag=1)


class TestAssembleProblem:
    def vectors(self, staff_totals, outputs=None):
        inputs = {}
        outs = {}
        for i, total in enumerate(staff_totals):
            uid = f"U{i + 1}"
            inputs[uid] = InputVector(fp=total, ap=0.0, rf=0.0, pr=10.0)
            out = (outputs or {}).get(uid, OutputVector(5.0, 2.0, 1.0))
            outs[uid] = out
        return inputs, outs

    def test_below_threshold_excluded(self):
        inputs, outputs = self.vectors([3.0, 10.0, 8.0])
        problem, exclusions = assemble_problem(inputs, outputs, "A1",
                                               min_staff=4.0)
        assert [d.dmu_id for d in problem.dmus] == ["U2", "U3"]
        assert len(exclusions) == 1
        assert exclusions[0].university_id == "U1"
        assert exclusions[0].reason == EXCLUDED_BELOW_STAFF_THRESHOLD

    def test_boundary_included(self):
        inputs, outputs = self.vectors([4.0, 10.0])
        problem, exclusions = assemble_problem(inputs, outputs, "A1",
                                               min_staff=4.0)
        assert [d.dmu_id for d in problem.dmus] == ["U1", "U2"]
        assert exclusions == ()

    def test_zero_staff_excluded_whatever_min_staff(self):
        inputs, outputs = self.vectors([0.0, 10.0, 8.0])
        problem, exclusions = assemble_problem(inputs, outputs, "A1",
                                               min_staff=0.0)
        assert [d.dmu_id for d in problem.dmus] == ["U2", "U3"]
        assert [(e.university_id, e.reason, e.detail) for e in exclusions] == [
            ("U1", EXCLUDED_BELOW_STAFF_THRESHOLD,
             "no staff in the snapshot years"),
        ]

    def test_all_below_threshold(self):
        inputs, outputs = self.vectors([1.0, 2.0, 3.0])
        with pytest.raises(AreaNotAnalyzableError) as exc:
            assemble_problem(inputs, outputs, "A1", min_staff=4.0)
        assert exc.value.area_id == "A1"
        assert len(exc.value.exclusions) == 3

    def test_zero_output_university_excluded(self):
        inputs, outputs = self.vectors(
            [10.0, 10.0, 10.0],
            outputs={"U2": OutputVector(0.0, 0.0, 0.0)},
        )
        problem, exclusions = assemble_problem(inputs, outputs, "A1",
                                               min_staff=4.0)
        assert [d.dmu_id for d in problem.dmus] == ["U1", "U3"]
        assert exclusions[0].reason == EXCLUDED_ZERO_OUTPUTS

    def test_mismatched_universes(self):
        inputs, outputs = self.vectors([10.0, 8.0])
        del outputs["U2"]
        with pytest.raises(StructuralError):
            assemble_problem(inputs, outputs, "A1", min_staff=4.0)
