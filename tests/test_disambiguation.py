import gc
import sys
import unicodedata
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uniprod import disambiguation
from uniprod.disambiguation import (
    AMBIGUOUS,
    MATCHED,
    UNMATCHED,
    Candidate,
    MatchOutcome,
    decide,
    disambiguate_corpus,
    match_author,
    normalize_text,
    surname_key,
)
from uniprod.ingest import ingest
from uniprod.records import AuthorToken, Publication, StaffMember, StaffRegistry
from uniprod.synthetic import write_synthetic_dataset

from .fixtures import _AFFILIATIONS, write_demo_dataset
from .oracles import (
    _oracle_initials,
    _oracle_variants,
    match_outcome_bruteforce,
    raw_affiliation_fields,
)


def staff(staff_id, surname, first_names, university_id,
          rank="FP", area_id="A1", year_from=1998, year_to=2010):
    return StaffMember(staff_id, surname, first_names, rank,
                       university_id, area_id, year_from, year_to)


def pub(pub_id, authors, affiliations, year=2002, doc_type="article"):
    """A publication whose universities are those ``DICT`` maps its raw
    affiliation strings' normalized forms to, as ingest resolves them."""
    tokens = tuple(
        AuthorToken(s, tuple(i)) for s, i in authors
    )
    universities = tuple(sorted({DICT[normalize_text(raw)]
                                 for raw in affiliations
                                 if normalize_text(raw) in DICT}))
    return Publication(pub_id, year, doc_type, "J1", tokens, universities)


def candidate(member):
    """The member as ``decide`` files it, its initials normalized by the
    oracle's rule."""
    return Candidate(member.year_from, member.year_to,
                     _oracle_initials(member.initials),
                     MatchOutcome(MATCHED, member.staff_id))


def match(token, members):
    """``match_author`` on the token's normalized initials and the
    members' candidates."""
    return match_author(_oracle_initials(token.initials),
                        [candidate(m) for m in members])


def outcomes_of(publications, registry, overrides=None):
    """Each publication's outcomes by id, from one ``decide`` call."""
    return {p.pub_id: outcomes
            for p, outcomes in decide(publications, registry, overrides)}


def category_of(publication, registry):
    """The one category whose count is 1 when the publication is
    disambiguated alone."""
    stats = disambiguate_corpus([publication], registry).stats
    (category,) = [name for name, count in stats.items()
                   if name != "total" and count == 1]
    return category


def pattern_map(rows):
    """The map ``ingest`` builds from (raw pattern, university id) rows."""
    return {normalize_text(pattern): university_id
            for pattern, university_id in rows}


DICT = pattern_map([
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

    def test_one_fold_is_stable_for_every_code_point(self):
        """``normalize_text`` folds once.  NFKD, the dropping of combining
        marks and ``casefold`` each map one character at a time, so a
        string's fold is stable when every code point's is.  Unicode's
        stability policy freezes the fold of characters already encoded;
        this checks the running interpreter's Unicode data."""
        def fold(text):
            decomposed = unicodedata.normalize("NFKD", text)
            return "".join(ch for ch in decomposed
                           if not unicodedata.combining(ch)).casefold()

        unstable = [f"U+{cp:04X}" for cp in range(sys.maxunicode + 1)
                    if fold(once := fold(chr(cp))) != once]
        assert unstable == []


class TestSurnameKey:
    def test_hyphen_joins(self):
        assert surname_key("García-López") == "garcialopez"

    def test_plain(self):
        assert surname_key("Rossi") == "rossi"

    def test_spaced_and_joined_share_a_key(self):
        assert surname_key("De Luca") == surname_key("DELUCA") == "deluca"

    @given(st.text(min_size=1, max_size=30))
    def test_key_is_normalization_stable(self, s):
        key = surname_key(s)
        assert normalize_text(key) == key


# Separators, case, accents (precomposed and combining) and characters
# whose folding changes length: ß -> ss, İ -> i + dot, ǰ -> j + caron,
# the ligature ﬁ -> fi.
_SURNAME_CHARS = "aAsSiIjfe -'\u00e9\u00c9\u0301\u00df\u0130\u01f0\ufb01"
_surnames = st.text(alphabet=_SURNAME_CHARS, max_size=8)


@st.composite
def _surname_pairs(draw):
    """Two independent surnames, or one and a respelling of it with its
    separators swapped or dropped and its letters' case changed."""
    a = draw(_surnames)
    if draw(st.booleans()):
        return a, draw(_surnames)
    b = "".join(
        draw(st.sampled_from(["", " ", "-", "'"])) if ch in " -'"
        else draw(st.sampled_from([ch, ch.swapcase()]))
        for ch in a
    )
    return a, b


@settings(max_examples=2000, derandomize=True, deadline=None)
@given(_surname_pairs())
def test_surname_key_agrees_with_variant_sets(pair):
    """One key per surname selects exactly the pairs whose spaced and
    joined variant sets intersect, the rule the key replaced."""
    a, b = pair
    same_key = surname_key(a) == surname_key(b) != ""
    assert same_key == bool(_oracle_variants(a) & _oracle_variants(b))


def test_empty_keys_and_missing_initials_never_match(tmp_path):
    """A token and a member whose surnames are punctuation only share the
    empty key, which matches nothing; a member without initials matches
    no token; a multi-initial token needs all its initials."""
    root = write_demo_dataset(tmp_path / "data")
    with open(root / "staff.csv", "a", encoding="utf-8") as f:
        f.write("S090,-,Paolo,FP,U1,A01,1998,2006\n"
                "S091,Marino,-,FP,U1,A01,1998,2006\n"
                "S092,Lombardi,Mario,FP,U1,A01,1998,2006\n")
    with open(root / "publications.csv", "a", encoding="utf-8") as f:
        f.write('P090,2002,article,J1,"\',P.;-,P.","Univ. of Alpha"\n'
                'P091,2002,article,J1,"MARINO,P.;MARINO,A.","Univ. of Alpha"\n'
                'P092,2002,article,J1,"LOMBARDI,M.A.;LOMBARDI,M.",'
                '"Univ. of Alpha"\n')
    corpus = ingest(root)
    fields = raw_affiliation_fields(root)
    outcomes = outcomes_of(corpus.publications, corpus.staff)
    unmatched = MatchOutcome(UNMATCHED)
    assert outcomes["P090"] == (unmatched, unmatched)
    assert outcomes["P091"] == (unmatched, unmatched)
    assert outcomes["P092"] == (unmatched, MatchOutcome(MATCHED, "S092"))
    for p in corpus.publications:
        if p.pub_id in ("P090", "P091", "P092"):
            assert [(o.kind, o.staff_id, o.candidates)
                    for o in outcomes[p.pub_id]] == [
                match_outcome_bruteforce(token, p, fields[p.pub_id],
                                         corpus.staff, corpus.affiliations)
                for token in p.authors
            ]


class TestMatchAuthor:
    def test_unique_candidate(self):
        out = match(
            AuthorToken("ROSSI", "M"),
            [staff("S1", "Rossi", "Mario", "U1")],
        )
        assert out == MatchOutcome(MATCHED, "S1")

    def test_homonyms_are_ambiguous(self):
        out = match(
            AuthorToken("ROSSI", "M"),
            [staff("S1", "Rossi", "Mario", "U1"),
             staff("S2", "Rossi", "Marta", "U1")],
        )
        assert out.kind == AMBIGUOUS
        assert out.candidates == ("S1", "S2")

    def test_multi_initial_pruning(self):
        out = match(
            AuthorToken("ROSSI", ("M", "A")),
            [staff("S1", "Rossi", "Mario", "U1"),
             staff("S2", "Rossi", "Maria Anna", "U1")],
        )
        assert out == MatchOutcome(MATCHED, "S2")

    def test_multi_initial_prefix_of_longer_name(self):
        out = match(
            AuthorToken("ROSSI", ("M", "A")),
            [staff("S2", "Rossi", "Maria Anna Carla", "U1")],
        )
        assert out == MatchOutcome(MATCHED, "S2")

    def test_no_candidates(self):
        out = match(AuthorToken("SMITH", "J"), [])
        assert out.kind == UNMATCHED

    def test_initial_mismatch(self):
        out = match(
            AuthorToken("ROSSI", "K"),
            [staff("S1", "Rossi", "Mario", "U1")],
        )
        assert out.kind == UNMATCHED

    def test_punctuation_in_first_names_gives_no_initial(self):
        out = match(
            AuthorToken("ROSSI", ("M", "P")),
            [staff("S1", "Rossi", "Maria (Pia)", "U1")],
        )
        assert out == MatchOutcome(MATCHED, "S1")

    def test_diacritic_and_hyphen_tolerant(self):
        out = match(
            AuthorToken("GARCIALOPEZ", "J"),
            [staff("S1", "García-López", "José", "U1")],
        )
        assert out == MatchOutcome(MATCHED, "S1")


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
        pubs = [pub("P1", [("BIANCHI", "C")], ("UNIV TESTONE",))]
        res = disambiguate_corpus(pubs, REGISTRY)
        assert res.stats["resolved"] == 1
        assert res.stats["manual"] == res.stats["discarded"] == 0
        assert outcomes_of(pubs, REGISTRY)["P1"][0] == (
            MatchOutcome(MATCHED, "S3"))

    def test_no_staff_match_discarded(self):
        p = pub("P1", [("SMITH", "J")], ("UNIV TESTONE",))
        res = disambiguate_corpus([p], REGISTRY)
        assert res.stats["discarded"] == 1
        assert category_of(p, REGISTRY) == "discarded"

    def test_empty_author_list_unresolvable(self):
        res = disambiguate_corpus(
            [pub("P1", [], ("UNIV TESTONE",)),
             pub("P2", [("NERI", "P")], ("UNIV TESTONE",))],
            REGISTRY,
        )
        assert res.stats["unresolvable"] == 1
        assert res.stats["resolved"] == 1
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
        res = disambiguate_corpus(pubs, REGISTRY)
        assert res.stats["manual"] == 2
        assert res.stats["resolved"] == 8
        assert res.stats["discarded"] == res.stats["unresolvable"] == 0
        expected = {
            ("P01", 1): MatchOutcome(MATCHED, "S3"),
            ("P02", 1): MatchOutcome(AMBIGUOUS, candidates=("S1", "S2")),
            ("P03", 1): MatchOutcome(MATCHED, "S4"),
            ("P03", 2): MatchOutcome(UNMATCHED),
            ("P04", 1): MatchOutcome(AMBIGUOUS, candidates=("S7", "S8")),
            ("P05", 1): MatchOutcome(MATCHED, "S5"),
            ("P05", 2): MatchOutcome(MATCHED, "S9"),
            ("P06", 1): MatchOutcome(UNMATCHED),
            ("P06", 2): MatchOutcome(MATCHED, "S10"),
            ("P07", 1): MatchOutcome(MATCHED, "S10"),
            ("P08", 1): MatchOutcome(MATCHED, "S6"),
            ("P09", 1): MatchOutcome(MATCHED, "S3"),
            ("P09", 2): MatchOutcome(MATCHED, "S5"),
            ("P10", 1): MatchOutcome(MATCHED, "S9"),
        }
        got = {(pub_id, position): outcome
               for pub_id, outcomes in outcomes_of(pubs, REGISTRY).items()
               for position, outcome in enumerate(outcomes, start=1)}
        assert got == expected
        review = {(r["pub_id"], r["author_position"])
                  for r in res.manual_review}
        assert review == {("P02", 1), ("P04", 1)}

    def test_scope_safety(self):
        # Neri is at U1; a publication naming only U2 cannot reach him.
        outcomes = outcomes_of(
            [pub("P1", [("NERI", "P")], ("UNIV DUESTO",))], REGISTRY
        )
        assert outcomes["P1"][0].kind == UNMATCHED

    def test_year_scoping(self):
        reg = StaffRegistry(
            [staff("S1", "Neri", "Paolo", "U1", year_from=1995, year_to=2000)]
        )
        outcomes = outcomes_of(
            [pub("P1", [("NERI", "P")], ("UNIV TESTONE",), year=2002)], reg
        )
        assert outcomes["P1"][0].kind == UNMATCHED

    def test_unknown_affiliation_means_no_scope(self):
        p = pub("P1", [("NERI", "P")], ("SOME FOREIGN INSTITUTE",))
        assert outcomes_of([p], REGISTRY)["P1"][0].kind == UNMATCHED
        assert category_of(p, REGISTRY) == "discarded"

    def test_override_resolves_homonym(self):
        pubs = [pub("P1", [("ROSSI", "M")], ("UNIV TESTONE",))]
        overrides = {("P1", 1): "S2"}
        res = disambiguate_corpus(pubs, REGISTRY, overrides)
        assert outcomes_of(pubs, REGISTRY, overrides)["P1"][0] == (
            MatchOutcome(MATCHED, "S2"))
        assert res.stats["resolved"] == 1 and res.stats["manual"] == 0

    def test_override_to_none_discards(self):
        pubs = [pub("P1", [("ROSSI", "M")], ("UNIV TESTONE",))]
        overrides = {("P1", 1): None}
        res = disambiguate_corpus(pubs, REGISTRY, overrides)
        assert outcomes_of(pubs, REGISTRY, overrides)["P1"][0].kind == (
            UNMATCHED)
        assert res.stats["discarded"] == 1

    def test_deterministic(self):
        pubs = [
            pub("P1", [("ROSSI", "M"), ("BIANCHI", "C")], ("UNIV TESTONE",)),
            pub("P2", [("ESPOSITO", "M")], ("UNIV DUESTO",)),
        ]
        a = disambiguate_corpus(pubs, REGISTRY)
        b = disambiguate_corpus(pubs, REGISTRY)
        assert outcomes_of(pubs, REGISTRY) == outcomes_of(
            pubs, REGISTRY)
        assert a.stats == b.stats
        assert a.manual_review == b.manual_review

    def test_partition_property(self):
        pubs = [
            pub("P1", [("ROSSI", "M")], ("UNIV TESTONE",)),
            pub("P2", [], ("UNIV TESTONE",)),
            pub("P3", [("SMITH", "J")], ("UNIV TESTONE",)),
            pub("P4", [("NERI", "P")], ("UNIV TESTONE",)),
        ]
        res = disambiguate_corpus(pubs, REGISTRY)
        s = res.stats
        assert (s["resolved"] + s["manual"] + s["discarded"]
                + s["unresolvable"] == s["total"] == 4)
        categories = Counter(category_of(p, REGISTRY) for p in pubs)
        assert categories == {name: count for name, count in s.items()
                              if name != "total" and count}


@pytest.mark.parametrize("seed", [101, 202, 303])
def test_matching_equals_registry_scan(tmp_path, seed):
    """Every outcome equals a whole-registry scan of the matching rules,
    on corpora with joined and spaced compound surnames and staff who
    are not active in every year."""
    root = write_synthetic_dataset(
        tmp_path / "data", seed=seed, n_areas=2, n_universities=8)
    corpus = ingest(root)
    fields = raw_affiliation_fields(root)
    decided = list(decide(corpus.publications, corpus.staff))
    assert [p for p, _ in decided] == list(corpus.publications)
    for p, outcomes in decided:
        got = [(o.kind, o.staff_id, o.candidates) for o in outcomes]
        expected = [
            match_outcome_bruteforce(token, p, fields[p.pub_id],
                                     corpus.staff, corpus.affiliations)
            for token in p.authors
        ]
        assert got == expected, p.pub_id


@pytest.fixture()
def synthetic_corpus(tmp_path):
    root = write_synthetic_dataset(tmp_path / "data", seed=11, n_areas=2,
                                   n_universities=8)
    return ingest(root)


def _outcomes(corpus):
    res = disambiguate_corpus(corpus.publications, corpus.staff)
    return (outcomes_of(corpus.publications, corpus.staff),
            res.stats, res.manual_review, res.matched_by_cell)


class _Forgetful(dict):
    """A stand-in for ``disambiguation._Memo`` that remembers nothing."""

    def __init__(self, compute):
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        return self.compute(key)


class TestMemoizedMatching:
    """Names are normalized once per ``decide`` call (surnames, initial
    letters), and raw affiliations once per ingest; none of it may change
    an outcome."""

    def test_same_outcomes_as_with_caches_cleared(self, synthetic_corpus,
                                                  monkeypatch):
        memoized = _outcomes(synthetic_corpus)
        assert memoized[1]["resolved"] and memoized[1]["manual"]

        monkeypatch.setattr(disambiguation, "_Memo", _Forgetful)
        assert _outcomes(synthetic_corpus) == memoized

    def test_each_distinct_string_is_normalized_once(self, synthetic_corpus,
                                                     monkeypatch):
        corpus = synthetic_corpus
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
        )
        assert calls and set(calls) <= distinct
        # Two decide calls: disambiguate_corpus's and outcomes_of's.
        assert set(calls.values()) == {2}

        first = dict(calls)
        calls.clear()
        _outcomes(corpus)
        assert calls == first

    def test_patterns_and_raw_affiliations_are_normalized_once(
            self, tmp_path, monkeypatch):
        """Counted through the ``ingest`` and the ``disambiguation``
        bindings apart: ingest normalizes each ``affiliations.csv``
        pattern and each distinct raw affiliation string once, and the
        matching normalizes no raw affiliation string."""
        in_ingest, in_matching = Counter(), Counter()

        def counting(calls):
            def count(text):
                calls[text] += 1
                return normalize_text(text)
            return count

        # The package exports the ``ingest`` function under the module's name.
        monkeypatch.setattr(sys.modules["uniprod.ingest"], "normalize_text",
                            counting(in_ingest))
        monkeypatch.setattr(disambiguation, "normalize_text",
                            counting(in_matching))
        root = write_demo_dataset(tmp_path / "data")
        # A spelling no other test reads, so no memo of an earlier
        # corpus can hide its normalization.
        with open(root / "publications.csv", "a", encoding="utf-8") as f:
            f.write('PN1,2002,article,J1,"ROSSI1,M.",'
                    '" (Univ. of Alpha, counted once) ;;Univ. of Alpha"\n')
        corpus = ingest(root)
        raws = {raw for field in raw_affiliation_fields(root).values()
                for raw in field}
        assert "(Univ. of Alpha, counted once)" in raws
        assert in_ingest == (Counter(pattern for pattern, _ in _AFFILIATIONS)
                             + Counter(raws))

        disambiguate_corpus(corpus.publications, corpus.staff)
        assert not raws & set(in_matching)

    def test_equal_outcomes_are_one_object(self, synthetic_corpus):
        # Within one call; an ambiguous outcome is built as it is found.
        corpus = synthetic_corpus
        outcomes = [o for per_pub in outcomes_of(
                        corpus.publications, corpus.staff).values()
                    for o in per_pub]
        assert {o.kind for o in outcomes} == {MATCHED, AMBIGUOUS, UNMATCHED}
        shared = [o for o in outcomes if o.kind != AMBIGUOUS]
        assert len({id(o) for o in shared}) == len(set(shared))

    def test_overridden_outcomes_are_shared_too(self, synthetic_corpus):
        corpus = synthetic_corpus
        pubs = [p for p in corpus.publications if len(p.authors) >= 2][:2]
        overrides = {(p.pub_id, 1): None for p in pubs}
        outcomes = outcomes_of(corpus.publications, corpus.staff, overrides)
        first, second = (outcomes[p.pub_id][0] for p in pubs)
        assert first == second == MatchOutcome(UNMATCHED)
        assert first is second


@pytest.fixture()
def paper_shaped(tmp_path):
    """A paper-shaped corpus (the paper's publication rate on fewer
    areas and universities) and overrides for some author positions:
    each ambiguous token of every third publication with one resolved
    to its first candidate, and the first author of every fifth
    publication declared not on staff."""
    corpus = ingest(write_synthetic_dataset(tmp_path / "data", seed=23,
                                            n_areas=3, n_universities=10))
    overrides = {}
    for i, (p, outcomes) in enumerate(decide(
            corpus.publications, corpus.staff)):
        if i % 5 == 0 and p.authors:
            overrides[p.pub_id, 1] = None
        if i % 3 == 0:
            for position, o in enumerate(outcomes, start=1):
                if o.kind == AMBIGUOUS:
                    overrides[p.pub_id, position] = o.candidates[0]
    assert any(overrides.values()) and None in overrides.values()
    return corpus, overrides


def test_match_author_called_once_per_token_on_its_scope(paper_shaped,
                                                         monkeypatch):
    """The benchmark's tracer counts tokens and scope sizes from the
    ``match_author`` calls: one per token that no override decides, with
    the token's normalized initials, on the staff active in the year, at
    a university the publication names, under the token's surname key,
    in the order of the named universities and then of the registry."""
    corpus, overrides = paper_shaped
    calls = []

    def recording(initials, scope):
        calls.append((initials, list(scope)))
        return match_author(initials, scope)

    monkeypatch.setattr(disambiguation, "match_author", recording)
    disambiguate_corpus(corpus.publications, corpus.staff, overrides)
    expected = []
    for p in corpus.publications:
        universities = p.universities
        for position, token in enumerate(p.authors, start=1):
            if (p.pub_id, position) in overrides:
                continue
            key = surname_key(token.surname)
            expected.append((_oracle_initials(token.initials), [
                candidate(m) for u in universities for m in corpus.staff
                if m.university_id == u and m.active_in(p.year)
                and key and surname_key(m.surname) == key
            ]))
    assert len(calls) == len(expected)
    assert sum(len(scope) for _, scope in expected) > len(expected) / 2
    assert sum(len(p.universities) == 1 for p in corpus.publications) > (
        sum(len(p.universities) > 1 for p in corpus.publications) > 0)
    assert calls == expected


def test_no_outcome_or_memo_outlives_matching(synthetic_corpus):
    """The matching keeps no state between calls: no cache in the module,
    and no ``MatchOutcome`` left alive after a ``decide`` call or after
    ``match_author`` calls made outside one."""
    def live_outcomes():
        # Counted both among the collector's objects and among their
        # referents: the collector may untrack a tuple of strings, but
        # not a container that holds one.
        gc.collect()
        tracked = gc.get_objects()
        referents = {id(r) for r in gc.get_referents(*tracked)
                     if type(r) is MatchOutcome}
        return (sum(type(o) is MatchOutcome for o in tracked),
                len(referents))

    found = dict(vars(disambiguation))
    for name, value in vars(disambiguation).items():
        if isinstance(value, type):
            found.update((f"{name}.{attr}", getattr(value, attr))
                         for attr in vars(value))
    assert [name for name, value in found.items()
            if hasattr(value, "cache_info")] == []

    corpus = synthetic_corpus
    before = live_outcomes()
    decided = sum(len(o) for _, o in decide(corpus.publications, corpus.staff))
    assert decided and live_outcomes() == before
    rossi = [staff("S1", "Rossi", "Mario", "U1"),
             staff("S2", "Rossi", "Maria Anna", "U1")]
    assert [match(AuthorToken("ROSSI", i), rossi).kind
            for i in ("M", "MA", "MAC")] == [AMBIGUOUS, MATCHED, UNMATCHED]
    assert live_outcomes() == before
