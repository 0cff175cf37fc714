from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from uniprod import disambiguation
from uniprod.disambiguation import (
    AMBIGUOUS,
    MATCHED,
    UNMATCHED,
    AffiliationDictionary,
    MatchOutcome,
    disambiguate_corpus,
    match_author,
    normalize_text,
    surname_variants,
)
from uniprod.config import RunConfig
from uniprod.errors import IngestError, StructuralError
from uniprod.ingest import ingest
from uniprod.records import AuthorToken, Publication, StaffMember, StaffRegistry
from uniprod.synthetic import write_synthetic_dataset

from .fixtures import write_demo_dataset


def staff(staff_id, surname, first_names, university_id,
          rank="FP", area_id="A1", year_from=1998, year_to=2010):
    return StaffMember(staff_id, surname, first_names, rank,
                       university_id, area_id, year_from, year_to)


def pub(pub_id, authors, affiliations, year=2002, doc_type="article"):
    tokens = tuple(
        AuthorToken(s, tuple(i)) for s, i in authors
    )
    return Publication(pub_id, year, doc_type, "J1", tokens, affiliations)


DICT = AffiliationDictionary([
    ("UNIV TESTONE", "U1"),
    ("Universita degli Studi di Testone", "U1"),
    ("UNIV DUESTO", "U2"),
])


class TestNormalizeText:
    def test_case_and_punctuation(self):
        assert normalize_text("UNIV  ROMA, 'TOR-VERGATA'") == "univ roma tor vergata"

    def test_diacritics(self):
        assert normalize_text("Università di Perugia") == "universita di perugia"

    def test_empty_and_symbols(self):
        assert normalize_text("") == ""
        assert normalize_text("...---") == ""

    @given(st.text(max_size=60))
    def test_idempotent(self, s):
        once = normalize_text(s)
        assert normalize_text(once) == once


class TestSurnameVariants:
    def test_hyphen_generates_both_forms(self):
        assert surname_variants("García-López") == {"garcia lopez", "garcialopez"}

    def test_plain(self):
        assert surname_variants("Rossi") == {"rossi"}

    def test_spaced(self):
        assert surname_variants("De Luca") == {"de luca", "deluca"}

    @given(st.text(min_size=1, max_size=30))
    def test_variants_are_normalization_stable(self, s):
        for v in surname_variants(s):
            assert normalize_text(v) == v


class TestAffiliationDictionary:
    def test_exact_hit(self):
        assert DICT.lookup("UNIV TESTONE") == "U1"

    def test_messy_spelling_hits(self):
        assert DICT.lookup("Università degli Studi di 'Testone'") == "U1"

    def test_miss_returns_none(self):
        assert DICT.lookup("MIT") is None

    def test_conflicting_patterns_rejected(self, tmp_path):
        # The dictionary trusts its rows; ingest is what rejects two
        # patterns that normalize alike but name different universities.
        root = write_demo_dataset(tmp_path / "data")
        (root / "affiliations.csv").write_text(
            "raw_pattern,university_id\nUNIV X,U1\nuniv x.,U2\n",
            encoding="utf-8",
        )
        with pytest.raises(IngestError, match="conflicts"):
            ingest(RunConfig.for_data_dir(root))

    def test_instances_keep_their_own_lookups(self):
        first = AffiliationDictionary([("UNIV X", "U1")])
        second = AffiliationDictionary([("univ x.", "U2")])
        assert first.lookup("Univ. X") == "U1"
        assert second.lookup("Univ. X") == "U2"
        assert first.lookup("Univ. X") == "U1"
        assert AffiliationDictionary([]).lookup("Univ. X") is None


class TestMatchAuthor:
    def test_unique_candidate(self):
        out = match_author(
            AuthorToken("ROSSI", "M"),
            [staff("S1", "Rossi", "Mario", "U1")],
        )
        assert out == MatchOutcome.matched("S1")

    def test_homonyms_are_ambiguous(self):
        out = match_author(
            AuthorToken("ROSSI", "M"),
            [staff("S1", "Rossi", "Mario", "U1"),
             staff("S2", "Rossi", "Marta", "U1")],
        )
        assert out.kind == AMBIGUOUS
        assert out.candidates == ("S1", "S2")

    def test_multi_initial_pruning(self):
        out = match_author(
            AuthorToken("ROSSI", ("M", "A")),
            [staff("S1", "Rossi", "Mario", "U1"),
             staff("S2", "Rossi", "Maria Anna", "U1")],
        )
        assert out == MatchOutcome.matched("S2")

    def test_multi_initial_prefix_of_longer_name(self):
        out = match_author(
            AuthorToken("ROSSI", ("M", "A")),
            [staff("S2", "Rossi", "Maria Anna Carla", "U1")],
        )
        assert out == MatchOutcome.matched("S2")

    def test_no_candidates(self):
        out = match_author(AuthorToken("SMITH", "J"), [])
        assert out.kind == UNMATCHED

    def test_initial_mismatch(self):
        out = match_author(
            AuthorToken("ROSSI", "K"),
            [staff("S1", "Rossi", "Mario", "U1")],
        )
        assert out.kind == UNMATCHED

    def test_diacritic_and_hyphen_tolerant(self):
        out = match_author(
            AuthorToken("GARCIALOPEZ", "J"),
            [staff("S1", "García-López", "José", "U1")],
        )
        assert out == MatchOutcome.matched("S1")


REGISTRY = StaffRegistry([
    staff("S1", "Rossi", "Mario", "U1"),
    staff("S2", "Rossi", "Marta", "U1"),
    staff("S3", "Bianchi", "Carla", "U1"),
    staff("S4", "Verdi", "Anna", "U1"),
    staff("S5", "Neri", "Paolo", "U1"),
    staff("S6", "Russo", "Giovanni", "U2"),
    staff("S7", "Esposito", "Maria", "U2"),
    staff("S8", "Esposito", "Marco", "U2"),
    staff("S9", "Romano", "Luca", "U2"),
    staff("S10", "Ferrari", "Elena", "U2"),
])


class TestDisambiguateCorpus:
    def test_single_clean_record(self):
        res = disambiguate_corpus(
            [pub("P1", [("BIANCHI", "C")], ("UNIV TESTONE",))], REGISTRY, DICT
        )
        assert res.stats.resolved == 1
        assert res.stats.manual == res.stats.discarded == 0
        assert res.assignments[0].outcome == MatchOutcome.matched("S3")

    def test_no_staff_match_discarded(self):
        res = disambiguate_corpus(
            [pub("P1", [("SMITH", "J")], ("UNIV TESTONE",))], REGISTRY, DICT
        )
        assert res.stats.discarded == 1
        assert res.categories["P1"] == "discarded"

    def test_empty_author_list_unresolvable(self):
        res = disambiguate_corpus(
            [pub("P1", [], ("UNIV TESTONE",)),
             pub("P2", [("NERI", "P")], ("UNIV TESTONE",))],
            REGISTRY, DICT,
        )
        assert res.stats.unresolvable == 1
        assert res.stats.resolved == 1
        assert len(res.errors) == 1 and "P1" in res.errors[0]

    def test_ten_record_corpus_with_two_homonyms(self):
        pubs = [
            pub("P01", [("BIANCHI", "C")], ("UNIV TESTONE",)),
            pub("P02", [("ROSSI", "M")], ("UNIV TESTONE",)),
            pub("P03", [("VERDI", "A"), ("SMITH", "J")], ("UNIV TESTONE",)),
            pub("P04", [("ESPOSITO", "M")], ("UNIV DUESTO",)),
            pub("P05", [("NERI", "P"), ("ROMANO", "L")],
                ("UNIV TESTONE", "UNIV DUESTO")),
            pub("P06", [("DOE", "J"), ("FERRARI", "E")], ("UNIV DUESTO",)),
            pub("P07", [("FERRARI", "E")], ("UNIV DUESTO",)),
            pub("P08", [("RUSSO", "G")], ("UNIV DUESTO",)),
            pub("P09", [("BIANCHI", "C"), ("NERI", "P")], ("UNIV TESTONE",)),
            pub("P10", [("ROMANO", "L")], ("UNIV DUESTO",)),
        ]
        res = disambiguate_corpus(pubs, REGISTRY, DICT)
        assert res.stats.manual == 2
        assert res.stats.resolved == 8
        assert res.stats.discarded == res.stats.unresolvable == 0
        expected = {
            ("P01", 1): MatchOutcome.matched("S3"),
            ("P02", 1): MatchOutcome.ambiguous(("S1", "S2")),
            ("P03", 1): MatchOutcome.matched("S4"),
            ("P03", 2): MatchOutcome.unmatched(),
            ("P04", 1): MatchOutcome.ambiguous(("S7", "S8")),
            ("P05", 1): MatchOutcome.matched("S5"),
            ("P05", 2): MatchOutcome.matched("S9"),
            ("P06", 1): MatchOutcome.unmatched(),
            ("P06", 2): MatchOutcome.matched("S10"),
            ("P07", 1): MatchOutcome.matched("S10"),
            ("P08", 1): MatchOutcome.matched("S6"),
            ("P09", 1): MatchOutcome.matched("S3"),
            ("P09", 2): MatchOutcome.matched("S5"),
            ("P10", 1): MatchOutcome.matched("S9"),
        }
        got = {(a.pub_id, a.position): a.outcome for a in res.assignments}
        assert got == expected
        review = {(r.pub_id, r.position) for r in res.manual_review}
        assert review == {("P02", 1), ("P04", 1)}

    def test_scope_safety(self):
        # Neri is at U1; a publication naming only U2 cannot reach him.
        res = disambiguate_corpus(
            [pub("P1", [("NERI", "P")], ("UNIV DUESTO",))], REGISTRY, DICT
        )
        assert res.assignments[0].outcome.kind == UNMATCHED

    def test_year_scoping(self):
        reg = StaffRegistry(
            [staff("S1", "Neri", "Paolo", "U1", year_from=1995, year_to=2000)]
        )
        res = disambiguate_corpus(
            [pub("P1", [("NERI", "P")], ("UNIV TESTONE",), year=2002)], reg, DICT
        )
        assert res.assignments[0].outcome.kind == UNMATCHED

    def test_unknown_affiliation_means_no_scope(self):
        res = disambiguate_corpus(
            [pub("P1", [("NERI", "P")], ("SOME FOREIGN INSTITUTE",))],
            REGISTRY, DICT,
        )
        assert res.assignments[0].outcome.kind == UNMATCHED
        assert res.categories["P1"] == "discarded"

    def test_override_resolves_homonym(self):
        pubs = [pub("P1", [("ROSSI", "M")], ("UNIV TESTONE",))]
        res = disambiguate_corpus(
            pubs, REGISTRY, DICT, overrides={("P1", 1): "S2"}
        )
        assert res.assignments[0].outcome == MatchOutcome.matched("S2")
        assert res.stats.resolved == 1 and res.stats.manual == 0

    def test_override_to_none_discards(self):
        pubs = [pub("P1", [("ROSSI", "M")], ("UNIV TESTONE",))]
        res = disambiguate_corpus(
            pubs, REGISTRY, DICT, overrides={("P1", 1): None}
        )
        assert res.assignments[0].outcome.kind == UNMATCHED
        assert res.stats.discarded == 1

    def test_override_validation(self):
        # Unknown publications, positions and staff ids are rejected by
        # load_overrides; the university and activity rules stay here.
        pubs = [pub("P1", [("ROSSI", "M")], ("UNIV TESTONE",))]
        with pytest.raises(StructuralError):
            # S6 works at U2, which this publication does not name
            disambiguate_corpus(pubs, REGISTRY, DICT,
                                overrides={("P1", 1): "S6"})
        retired = StaffRegistry(
            [staff("S1", "Rossi", "Mario", "U1", year_from=1995, year_to=2000)]
        )
        with pytest.raises(StructuralError, match="inactive in 2002"):
            disambiguate_corpus(pubs, retired, DICT,
                                overrides={("P1", 1): "S1"})

    def test_deterministic(self):
        pubs = [
            pub("P1", [("ROSSI", "M"), ("BIANCHI", "C")], ("UNIV TESTONE",)),
            pub("P2", [("ESPOSITO", "M")], ("UNIV DUESTO",)),
        ]
        a = disambiguate_corpus(pubs, REGISTRY, DICT)
        b = disambiguate_corpus(pubs, REGISTRY, DICT)
        assert a.assignments == b.assignments
        assert a.stats == b.stats
        assert a.manual_review == b.manual_review

    def test_partition_property(self):
        pubs = [
            pub("P1", [("ROSSI", "M")], ("UNIV TESTONE",)),
            pub("P2", [], ("UNIV TESTONE",)),
            pub("P3", [("SMITH", "J")], ("UNIV TESTONE",)),
            pub("P4", [("NERI", "P")], ("UNIV TESTONE",)),
        ]
        res = disambiguate_corpus(pubs, REGISTRY, DICT)
        s = res.stats
        assert s.resolved + s.manual + s.discarded + s.unresolvable == s.total == 4
        assert sorted(res.categories) == ["P1", "P2", "P3", "P4"]


@pytest.fixture()
def synthetic_corpus(tmp_path):
    root = write_synthetic_dataset(tmp_path / "data", seed=11, n_areas=2,
                                   n_universities=8)
    return ingest(RunConfig.for_data_dir(root))


def _outcomes(corpus):
    res = disambiguate_corpus(corpus.publications, corpus.staff,
                              corpus.affiliations)
    return res.assignments, res.stats, res.manual_review, res.categories


def _clearing(cached):
    def call(arg):
        cached.cache_clear()
        return cached(arg)
    return call


class TestMemoizedMatching:
    """Names are normalized once per process (surnames, initials), per
    dictionary (affiliations) and per staff member (initials); none of
    it may change an outcome."""

    def test_same_outcomes_as_with_caches_cleared(self, synthetic_corpus,
                                                  monkeypatch):
        memoized = _outcomes(synthetic_corpus)
        assert memoized[1].resolved and memoized[1].manual

        monkeypatch.setattr(disambiguation, "surname_variants",
                            _clearing(surname_variants))
        monkeypatch.setattr(disambiguation, "_normalized_initial",
                            _clearing(disambiguation._normalized_initial))
        monkeypatch.setattr(disambiguation, "_normalized_initials",
                            _clearing(disambiguation._normalized_initials))
        lookup = AffiliationDictionary.lookup

        def fresh_lookup(self, raw):
            self._memo.clear()
            return lookup(self, raw)

        monkeypatch.setattr(AffiliationDictionary, "lookup", fresh_lookup)
        monkeypatch.setattr(StaffMember, "initials",
                            property(StaffMember.__dict__["initials"].func))
        assert _outcomes(synthetic_corpus) == memoized

    def test_each_distinct_string_is_normalized_once(self, synthetic_corpus,
                                                     monkeypatch):
        corpus = synthetic_corpus
        surname_variants.cache_clear()
        disambiguation._normalized_initial.cache_clear()
        disambiguation._normalized_initials.cache_clear()
        calls = Counter()
        normalize = disambiguation.normalize_text

        def counting(text):
            calls[text] += 1
            return normalize(text)

        monkeypatch.setattr(disambiguation, "normalize_text", counting)
        _outcomes(corpus)
        tokens = [t for p in corpus.publications for t in p.authors]
        distinct = (
            {m.surname for m in corpus.staff}
            | {t.surname for t in tokens}
            | {ch for m in corpus.staff for ch in m.initials}
            | {ch for t in tokens for ch in t.initials}
            | {raw for p in corpus.publications for raw in p.raw_affiliations}
        )
        assert calls and set(calls) <= distinct
        assert max(calls.values()) == 1

        calls.clear()
        _outcomes(corpus)
        assert not calls
