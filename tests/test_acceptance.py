"""Acceptance gate: ten go/no-go checks for the whole library.

Each test prints exactly one visible ``[PASS]``/``[FAIL]`` line (shown
even while pytest captures output) and asserts the same verdict, so a
normal ``pytest`` run doubles as the acceptance protocol.  Every check
compares the library against an independent reference — vertex
enumeration, best-ratio arithmetic, brute-force recounting, hand-worked
statistics, or a hand-labelled corpus — at an explicit tolerance.
"""

from __future__ import annotations

import math
import random
import time

import numpy as np
import pytest

from uniprod.analysis import (
    compare_rankings,
    global_index,
    normalize_scores,
    rank,
    sensitivity_drop_input,
)
from uniprod.bibliometrics import MatchedCorpus, compute_output_vector
from uniprod.cli import main as cli_main
from uniprod.config import RunConfig
from uniprod.dea import CRS, NIRS, VRS, DeaProblem, DmuRecord, decompose, scores
from uniprod.disambiguation import AffiliationDictionary, disambiguate_corpus
from uniprod.ingest import ingest, parse_author_field
from uniprod.lp import LinearProgram, solve_lp
from uniprod.records import (
    JournalTable,
    Publication,
    StaffMember,
    StaffRegistry,
)
from uniprod.synthetic import write_synthetic_dataset

from .oracles import (
    cell_outputs_bruteforce,
    crs_ratio_oracle,
    lp_vertex_oracle,
    random_dea_problem,
    random_small_lp,
)

SQRT2_OVER_2 = math.sqrt(2.0) / 2.0


@pytest.fixture()
def gate(capsys):
    """Report one criterion verdict visibly, then enforce it."""

    def check(criterion: str, ok: bool, detail: str = "") -> None:
        line = f"[{'PASS' if ok else 'FAIL'}] {criterion}"
        if detail:
            line += f"  ({detail})"
        with capsys.disabled():
            print(line)
        assert ok, f"{criterion}: {detail or 'criterion not met'}"

    return check


def test_c01_simplex_matches_vertex_enumeration(gate):
    """500 random LPs: status must agree exactly with the oracle and
    optimal objectives must agree within 1e-6, all in under 10 s."""
    rng = np.random.default_rng(20260823)
    started = time.perf_counter()
    mismatches = 0
    worst_gap = 0.0
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(500):
        sense, objective, constraints = random_small_lp(rng)
        sol = solve_lp(LinearProgram(sense, objective, constraints))
        status, value = lp_vertex_oracle(sense, objective, constraints)
        statuses[status] = statuses.get(status, 0) + 1
        if sol.status != status:
            mismatches += 1
            continue
        if status == "optimal":
            gap = abs(sol.objective - value)
            worst_gap = max(worst_gap, gap)
            if gap > 1e-6:
                mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 10.0 and statuses["optimal"] >= 100
    gate(
        "C01 two-phase simplex agrees with the vertex-enumeration oracle "
        "on 500 random programs (status exact, objective within 1e-6, "
        "under 10 s)",
        ok,
        f"{mismatches} mismatches, worst objective gap {worst_gap:.2e}, "
        f"{statuses['optimal']} optimal / {statuses['infeasible']} infeasible / "
        f"{statuses['unbounded']} unbounded, {elapsed:.2f} s",
    )


def test_c02_single_dimension_scores_equal_best_ratio(gate):
    """1-input/1-output CRS efficiency must equal the closed-form
    best-ratio score on 200 random problems within 1e-9."""
    rng = np.random.default_rng(31)
    worst_gap = 0.0
    bad = 0
    for _ in range(200):
        n = int(rng.integers(2, 11))
        xs = rng.uniform(0.5, 50.0, size=n)
        ys = rng.uniform(0.5, 200.0, size=n)
        problem = DeaProblem(
            tuple(
                DmuRecord(f"D{j}", (float(xs[j]),), (float(ys[j]),))
                for j in range(n)
            ),
            ("FP",),
            ("PU",),
        )
        got = scores(problem, CRS)
        want = crs_ratio_oracle(xs, ys)
        for j in range(n):
            gap = abs(got[f"D{j}"] - want[j])
            worst_gap = max(worst_gap, gap)
            if gap > 1e-9:
                bad += 1
    ok = bad == 0
    gate(
        "C02 single-input/single-output CRS scores equal the best-ratio "
        "oracle on 200 random problems (within 1e-9)",
        ok,
        f"{bad} deviations, worst gap {worst_gap:.2e}",
    )


def test_c03_decomposition_invariants(gate):
    """On 50 random multi-dimensional problems: 0 < TE <= PTE <= 1,
    SE = TE/PTE within 1e-9, CRS <= NIRS <= VRS score ordering, at least
    one efficient unit under every returns regime, and CRS-efficient
    units classified as constant returns."""
    rng = np.random.default_rng(47)
    failures = []
    for case in range(50):
        problem = random_dea_problem(rng, n_dmus=int(rng.integers(3, 16)))
        results = decompose(problem)
        nirs_scores = scores(problem, NIRS)
        te_values, pte_values, nirs_values = [], [], []
        for r in results:
            s_n = nirs_scores[r.dmu_id]
            te_values.append(r.te)
            pte_values.append(r.pte)
            nirs_values.append(s_n)
            if not (0.0 < r.te <= r.pte <= 1.0):
                failures.append((case, r.dmu_id, "range", r.te, r.pte))
            if abs(r.se - r.te / r.pte) > 1e-9:
                failures.append((case, r.dmu_id, "se", r.se))
            if not (r.te <= s_n + 1e-9 and s_n <= r.pte + 1e-9):
                failures.append((case, r.dmu_id, "ordering", r.te, s_n, r.pte))
            if r.rts not in ("constant", "increasing", "decreasing"):
                failures.append((case, r.dmu_id, "rts", r.rts))
            if r.te == 1.0 and r.rts != "constant":
                failures.append((case, r.dmu_id, "rts-at-frontier", r.rts))
        for label, values in (
            ("crs", te_values),
            ("nirs", nirs_values),
            ("vrs", pte_values),
        ):
            if max(values) < 1.0 - 1e-6:
                failures.append((case, label, "no efficient unit"))
    ok = not failures
    gate(
        "C03 efficiency decomposition invariants hold on 50 random "
        "problems (0 < TE <= PTE <= 1, SE = TE/PTE within 1e-9, "
        "CRS <= NIRS <= VRS, each regime has an efficient unit)",
        ok,
        f"{len(failures)} violations" + (f", first: {failures[0]}" if failures else ""),
    )


def _rescale_column(problem, kind, index, factor):
    dmus = []
    for d in problem.dmus:
        inputs = list(d.inputs)
        outputs = list(d.outputs)
        if kind == "input":
            inputs[index] *= factor
        else:
            outputs[index] *= factor
        dmus.append(DmuRecord(d.dmu_id, tuple(inputs), tuple(outputs)))
    return DeaProblem(tuple(dmus), problem.input_labels, problem.output_labels)


def test_c04_units_invariance(gate):
    """Multiplying any one input or output column by a constant must not
    change any CRS or VRS score by more than 1e-6."""
    rng = np.random.default_rng(53)
    worst_gap = 0.0
    checks = 0
    for _ in range(3):
        problem = random_dea_problem(rng, n_dmus=8)
        base = {regime: scores(problem, regime) for regime in (CRS, VRS)}
        columns = [("input", i) for i in range(len(problem.input_labels))]
        columns += [("output", i) for i in range(len(problem.output_labels))]
        for kind, index in columns:
            for factor in (0.01, 7.0, 1000.0):
                rescaled = _rescale_column(problem, kind, index, factor)
                for regime in (CRS, VRS):
                    got = scores(rescaled, regime)
                    for dmu_id, value in base[regime].items():
                        worst_gap = max(worst_gap, abs(got[dmu_id] - value))
                        checks += 1
    ok = worst_gap <= 1e-6
    gate(
        "C04 CRS and VRS scores are invariant to per-column unit "
        "rescaling by 0.01x, 7x and 1000x (within 1e-6)",
        ok,
        f"worst drift {worst_gap:.2e} over {checks} score comparisons",
    )


def test_c05_dropping_an_input_never_helps(gate):
    """Removing an input can only shrink the production possibilities:
    no VRS score may rise and no new efficient unit may appear."""
    rng = np.random.default_rng(59)
    failures = []
    cases = 0
    for case in range(15):
        raw = random_dea_problem(rng, n_dmus=int(rng.integers(4, 14)))
        # Guarantee two always-positive input columns so that any single
        # drop leaves every unit with a non-degenerate input vector.
        dmus = tuple(
            DmuRecord(
                d.dmu_id,
                (max(1.0, d.inputs[0]),) + d.inputs[1:],
                d.outputs,
            )
            for d in raw.dmus
        )
        problem = DeaProblem(dmus, raw.input_labels, raw.output_labels)
        before = scores(problem, VRS)
        efficient_before = {u for u, s in before.items() if s >= 1.0 - 1e-6}
        for label in problem.input_labels:
            cases += 1
            result = sensitivity_drop_input(problem, label)
            recomputed = scores(problem.drop_input(label), VRS)
            for dmu_id, after_value in result.scores_after.items():
                if after_value > before[dmu_id] + 1e-9:
                    failures.append((case, label, dmu_id, "score rose"))
                if abs(after_value - recomputed[dmu_id]) > 1e-12:
                    failures.append((case, label, dmu_id, "mismatch"))
            efficient_after = {
                u for u, s in result.scores_after.items() if s >= 1.0 - 1e-6
            }
            if not efficient_after <= efficient_before:
                failures.append((case, label, "new efficient unit"))
            if result.comparison.no_longer_efficient != len(
                efficient_before - efficient_after
            ):
                failures.append((case, label, "lost-efficiency count"))
    ok = not failures
    gate(
        "C05 dropping any single input never raises a VRS score (1e-9) "
        "and never creates a newly efficient unit",
        ok,
        f"{len(failures)} violations over {cases} drops"
        + (f", first: {failures[0]}" if failures else ""),
    )


def test_c06_output_construction_matches_bruteforce(gate, tmp_path):
    """Weighted output totals for every (area, university) cell of three
    synthetic corpora must equal a brute-force per-publication recount
    bit for bit, with 0 <= co-author-weighted total <= whole-count total."""
    failures = []
    cells = 0
    nonzero_cells = 0
    for seed in (101, 202, 303):
        data_dir = write_synthetic_dataset(
            tmp_path / f"corpus-{seed}", seed=seed, n_areas=2, n_universities=8
        )
        config = RunConfig()
        corpus = ingest(data_dir)
        resolved = disambiguate_corpus(
            corpus.publications, corpus.staff, corpus.affiliations
        )
        matched = MatchedCorpus(corpus.publications, resolved.matched_cells)
        for area_id in corpus.staff.area_ids():
            for university_id in corpus.staff.universities_in_area(area_id):
                cells += 1
                vector = compute_output_vector(
                    matched, corpus.journals, area_id, university_id,
                    config.years,
                )
                pu, pc, ss = cell_outputs_bruteforce(
                    corpus.publications, resolved.assignments, corpus.staff,
                    corpus.journals, area_id, university_id, config.years,
                )
                if (vector.pu, vector.pc, vector.ss) != (pu, pc, ss):
                    failures.append((seed, area_id, university_id, "recount"))
                if not (0.0 <= vector.pc <= vector.pu):
                    failures.append((seed, area_id, university_id, "pc bound"))
                if vector.pu > 0.0:
                    nonzero_cells += 1
    ok = not failures and nonzero_cells >= cells // 2
    gate(
        "C06 per-cell output totals equal brute-force per-publication "
        "recounts exactly on three synthetic corpora, with "
        "0 <= co-author-weighted <= whole-count",
        ok,
        f"{cells} cells checked, {nonzero_cells} non-empty, "
        f"{len(failures)} mismatches",
    )


# --- hand-labelled disambiguation corpus -------------------------------

_ALPHA = ("University of Alpha",)
_BETA = ("University of Beta",)


def _hand_staff():
    def member(staff_id, surname, first_names, university_id,
               year_from=1998, year_to=2010):
        return StaffMember(staff_id, surname, first_names, "FP",
                           university_id, "A1", year_from, year_to)

    return StaffRegistry([
        # Five in-university homonym pairs (same surname, same first
        # initial) that single-initial tokens cannot separate.
        member("S101", "Rossi", "Mario", "U1"),
        member("S102", "Rossi", "Marta", "U1"),
        member("S103", "Bianchi", "Luca", "U1"),
        member("S104", "Bianchi", "Lucia", "U1"),
        member("S105", "Verdi", "Anna", "U1"),
        member("S106", "Verdi", "Andrea", "U1"),
        member("S107", "Neri", "Paolo", "U1"),
        member("S108", "Neri", "Pietro", "U1"),
        member("S109", "Costa", "Sara Anna", "U1"),
        member("S110", "Costa", "Silvio", "U1"),
        member("S111", "Ferrari", "Elena", "U1"),
        member("S112", "De Luca", "Paolo", "U1"),
        member("S113", "García-López", "José", "U1"),
        member("S114", "Riva", "Carlo", "U1", year_from=1995, year_to=1999),
        member("S115", "Moretti", "Giulia", "U1"),
        # Second university: cross-university homonyms of Rossi M. and
        # Bianchi L. that affiliation evidence must separate.
        member("S201", "Rossi", "Mario", "U2"),
        member("S202", "Gallo", "Franco", "U2"),
        member("S203", "Fontana", "Rita", "U2"),
        member("S204", "Bianchi", "Luca", "U2"),
        member("S205", "Serra", "Marco", "U2"),
    ])


# (pub_id, category, author field, affiliations, per-token expectation).
# Expectations: ("matched", staff_id) / ("ambiguous", candidate_ids) /
# ("unmatched",).
_HAND_PUBS = [
    ("P01", "manual", "ROSSI,M.", _ALPHA,
     [("ambiguous", ("S101", "S102"))]),
    ("P02", "manual", "BIANCHI,L.", _ALPHA,
     [("ambiguous", ("S103", "S104"))]),
    ("P03", "manual", "VERDI,A.", _ALPHA,
     [("ambiguous", ("S105", "S106"))]),
    ("P04", "manual", "NERI,P.", _ALPHA,
     [("ambiguous", ("S107", "S108"))]),
    ("P05", "manual", "COSTA,S.", _ALPHA,
     [("ambiguous", ("S109", "S110"))]),
    ("P06", "manual", "ROSSI,M.;FERRARI,E.", _ALPHA,
     [("ambiguous", ("S101", "S102")), ("matched", "S111")]),
    ("P07", "resolved", "COSTA,S.A.", _ALPHA,
     [("matched", "S109")]),
    ("P08", "resolved", "ROSSI,M.", _BETA,
     [("matched", "S201")]),
    ("P09", "resolved", "BIANCHI,L.", _BETA,
     [("matched", "S204")]),
    ("P10", "manual", "ROSSI,M.", _ALPHA + _BETA,
     [("ambiguous", ("S101", "S102", "S201"))]),
    ("P11", "resolved", "DELUCA,P.", _ALPHA,
     [("matched", "S112")]),
    ("P12", "resolved", "DE LUCA,P.", _ALPHA,
     [("matched", "S112")]),
    ("P13", "resolved", "GARCIALOPEZ,J.", _ALPHA,
     [("matched", "S113")]),
    ("P14", "resolved", "GARCIA-LOPEZ,J.", _ALPHA,
     [("matched", "S113")]),
    # S114 left service in 1999, so a 2002 token cannot be his.
    ("P15", "resolved", "RIVA,C.;FERRARI,E.", _ALPHA,
     [("unmatched",), ("matched", "S111")]),
    ("P16", "discarded", "FERRARI,E.", ("Institute of Unknown Parts",),
     [("unmatched",)]),
    ("P17", "discarded", "SMITH,J.", _BETA, [("unmatched",)]),
    ("P18", "discarded", "MULLER,K.", _ALPHA, [("unmatched",)]),
    ("P19", "discarded", "CHEN,W.;DUBOIS,A.", _BETA,
     [("unmatched",), ("unmatched",)]),
    ("P20", "resolved", "NOVAK,P.;GALLO,F.", _BETA,
     [("unmatched",), ("matched", "S202")]),
    ("P21", "unresolvable", "", _ALPHA, []),
]

_FILLER_TEMPLATES = [
    ("FERRARI,E.", _ALPHA, [("matched", "S111")]),
    ("MORETTI,G.", _ALPHA, [("matched", "S115")]),
    ("GALLO,F.", _BETA, [("matched", "S202")]),
    ("FONTANA,R.", _BETA, [("matched", "S203")]),
    ("SERRA,M.", _BETA, [("matched", "S205")]),
    ("FERRARI,E.;MORETTI,G.", _ALPHA,
     [("matched", "S111"), ("matched", "S115")]),
    ("FONTANA,R.;SMITH,J.", _BETA,
     [("matched", "S203"), ("unmatched",)]),
]


def _hand_corpus():
    rows = list(_HAND_PUBS)
    for i in range(29):
        authors, affiliations, expected = _FILLER_TEMPLATES[i % 7]
        rows.append((f"P{22 + i}", "resolved", authors, affiliations, expected))
    publications = [
        Publication(pub_id, 2002, "article", "J1",
                    parse_author_field(authors), affiliations)
        for pub_id, _, authors, affiliations, _ in rows
    ]
    return rows, publications


def test_c07_disambiguation_reproduces_hand_labels(gate):
    """A 50-publication corpus with 10 planted homonym staff members,
    compound and accented surnames, multi-initial names, an inactive
    member, unknown affiliations and 5 non-staff authors: every token
    outcome and every publication category must match the hand labels."""
    rows, publications = _hand_corpus()
    staff = _hand_staff()
    dictionary = AffiliationDictionary([
        ("University of Alpha", "U1"),
        ("Alpha Institute", "U1"),
        ("University of Beta", "U2"),
    ])
    result = disambiguate_corpus(publications, staff, dictionary)

    outcome_by_token = {
        (a.pub_id, a.position): a.outcome for a in result.assignments
    }
    failures = []
    expected_tokens = 0
    for pub_id, category, _, _, expected in rows:
        if result.categories.get(pub_id) != category:
            failures.append((pub_id, "category",
                             result.categories.get(pub_id), category))
        for position, expectation in enumerate(expected, start=1):
            expected_tokens += 1
            outcome = outcome_by_token.get((pub_id, position))
            if outcome is None:
                failures.append((pub_id, position, "missing"))
                continue
            if expectation[0] == "matched":
                good = (outcome.kind == "matched"
                        and outcome.staff_id == expectation[1])
            elif expectation[0] == "ambiguous":
                good = (outcome.kind == "ambiguous"
                        and outcome.candidates == expectation[1])
            else:
                good = outcome.kind == "unmatched"
            if not good:
                failures.append((pub_id, position, outcome))
    if len(result.assignments) != expected_tokens:
        failures.append(("assignment count", len(result.assignments)))

    stats = result.stats
    expected_stats = (50, 38, 7, 4, 1)
    got_stats = (stats.total, stats.resolved, stats.manual,
                 stats.discarded, stats.unresolvable)
    if got_stats != expected_stats:
        failures.append(("stats", got_stats))
    if stats.total != (stats.resolved + stats.manual
                       + stats.discarded + stats.unresolvable):
        failures.append(("stats partition", got_stats))

    queue = {(row.pub_id, row.position): row.candidate_ids
             for row in result.manual_review}
    expected_queue = {
        (pub_id, position): expectation[1]
        for pub_id, _, _, _, expected in rows
        for position, expectation in enumerate(expected, start=1)
        if expectation[0] == "ambiguous"
    }
    if queue != expected_queue:
        failures.append(("manual queue", queue))

    ok = not failures
    gate(
        "C07 author disambiguation reproduces a hand-labelled "
        "50-publication corpus exactly (38 resolved / 7 manual / "
        "4 discarded / 1 unresolvable, every token outcome, full "
        "manual-review queue)",
        ok,
        f"{len(failures)} disagreements"
        + (f", first: {failures[0]}" if failures else ""),
    )


def test_c08_normalization_and_global_index(gate):
    """On 200 random score tables: normalized scores must average to 1
    in every area (1e-9) and the staff-weighted global index must match
    an independent exact-summation recomputation (1e-12)."""
    rng = random.Random(33)
    failures = []
    universities = [f"U{i:02d}" for i in range(40)]
    for case in range(200):
        n_areas = rng.randint(2, 9)
        pte_by_area = {}
        for a in range(n_areas):
            area_id = f"A{a + 1}"
            chosen = rng.sample(universities, rng.randint(2, 12))
            pte_by_area[area_id] = {
                u: rng.uniform(0.05, 1.0) for u in chosen
            }
        thetas = normalize_scores(pte_by_area)

        by_area = {}
        for t in thetas:
            by_area.setdefault(t.area_id, []).append(t.theta)
        for area_id, values in by_area.items():
            if abs(math.fsum(values) / len(values) - 1.0) > 1e-9:
                failures.append((case, area_id, "area mean"))

        staff_counts = {
            (t.university_id, t.area_id): rng.uniform(1.0, 60.0)
            for t in thetas
        }
        indices, notices = global_index(thetas, staff_counts)
        if notices:
            failures.append((case, "unexpected notices", notices))
        weighted = {}
        for t in thetas:
            w = staff_counts[(t.university_id, t.area_id)]
            num, den = weighted.get(t.university_id, (0.0, 0.0))
            weighted[t.university_id] = (num, den)
            weighted.setdefault(t.university_id, (0.0, 0.0))
        direct = {}
        for t in thetas:
            direct.setdefault(t.university_id, []).append(
                (t.theta, staff_counts[(t.university_id, t.area_id)])
            )
        for entry in indices:
            pairs = direct[entry.university_id]
            expected = (
                math.fsum(theta * w for theta, w in pairs)
                / math.fsum(w for _, w in pairs)
            )
            if abs(entry.theta_tot - expected) > 1e-12:
                failures.append((case, entry.university_id, "theta_tot"))
        if sorted(direct) != sorted(e.university_id for e in indices):
            failures.append((case, "coverage"))
    ok = not failures
    gate(
        "C08 normalized scores average to 1 per area (1e-9) and the "
        "staff-weighted global index matches exact-summation "
        "recomputation (1e-12) on 200 random tables",
        ok,
        f"{len(failures)} deviations"
        + (f", first: {failures[0]}" if failures else ""),
    )


def test_c09_ranking_comparison_hand_values(gate):
    """Rank-shift statistics must match hand-worked values on identical
    rankings, full and adjacent 3-unit swaps, and an 8-way frontier tie
    must yield eight shared first ranks followed by 9, 10, 11, 12."""
    failures = []

    identical = rank({"a": 0.9, "b": 0.5, "c": 0.2})
    cmp_same = compare_rankings(identical, identical)
    if not (cmp_same.changed == 0 and cmp_same.max_delta == 0
            and cmp_same.mean_delta == 0.0 and cmp_same.median_delta == 0.0
            and cmp_same.cv_defined is False):
        failures.append(("identity", cmp_same))

    reversal = compare_rankings(
        rank({"a": 3.0, "b": 2.0, "c": 1.0}),
        rank({"a": 1.0, "b": 2.0, "c": 3.0}),
    )
    if not (reversal.changed == 2 and reversal.max_delta == 2
            and abs(reversal.mean_delta - 4.0 / 3.0) < 1e-12
            and reversal.median_delta == 2.0
            and reversal.cv_defined is True
            and abs(reversal.cv_delta - SQRT2_OVER_2) < 1e-12):
        failures.append(("reversal", reversal))

    adjacent = compare_rankings(
        rank({"a": 3.0, "b": 2.0, "c": 1.0}),
        rank({"a": 3.0, "b": 1.0, "c": 2.0}),
    )
    if not (adjacent.changed == 2 and adjacent.max_delta == 1
            and abs(adjacent.mean_delta - 2.0 / 3.0) < 1e-12
            and adjacent.median_delta == 1.0
            and abs(adjacent.cv_delta - SQRT2_OVER_2) < 1e-12):
        failures.append(("adjacent", adjacent))

    # Eight units sitting exactly on the ray y = 2x share the frontier;
    # four strictly interior units trail at known score levels.
    dmus = [
        DmuRecord(f"E{i}", (float(i),), (2.0 * i,)) for i in range(1, 9)
    ]
    trailing = {"T090": 0.9, "T080": 0.8, "T070": 0.7, "T060": 0.6}
    dmus += [
        DmuRecord(name, (5.0,), (10.0 * level,))
        for name, level in trailing.items()
    ]
    frontier_scores = scores(
        DeaProblem(tuple(dmus), ("FP",), ("PU",)), CRS
    )
    for i in range(1, 9):
        if frontier_scores[f"E{i}"] != 1.0:
            failures.append(("tie score", i, frontier_scores[f"E{i}"]))
    for name, level in trailing.items():
        if abs(frontier_scores[name] - level) > 1e-9:
            failures.append(("trailing score", name, frontier_scores[name]))
    tie_ranks = rank(frontier_scores)
    if sorted(tie_ranks.values()) != [1] * 8 + [9, 10, 11, 12]:
        failures.append(("tie ranks", tie_ranks))
    if (tie_ranks["T090"], tie_ranks["T080"], tie_ranks["T070"],
            tie_ranks["T060"]) != (9, 10, 11, 12):
        failures.append(("trailing ranks", tie_ranks))

    ok = not failures
    gate(
        "C09 ranking-comparison statistics match hand-worked values "
        "(identity, 3-unit swaps with cv = sqrt(2)/2) and an 8-way "
        "frontier tie ranks 1x8 then 9,10,11,12",
        ok,
        f"{len(failures)} disagreements"
        + (f", first: {failures[0]}" if failures else ""),
    )


def test_c10_end_to_end_determinism_and_runtime(gate, tmp_path):
    """A 9-area, 60-university synthetic study must complete in under
    60 s, exit 0, and two runs (and two dataset generations) must be
    byte-identical."""
    data_dir = write_synthetic_dataset(
        tmp_path / "data", seed=7, n_areas=9, n_universities=60
    )
    data_dir_again = write_synthetic_dataset(
        tmp_path / "data-again", seed=7, n_areas=9, n_universities=60
    )
    generation_identical = all(
        (data_dir / name).read_bytes() == (data_dir_again / name).read_bytes()
        for name in sorted(p.name for p in data_dir.iterdir())
    )

    started = time.perf_counter()
    code_first = cli_main([str(data_dir), "--out", str(tmp_path / "run1")])
    elapsed = time.perf_counter() - started
    code_second = cli_main([str(data_dir), "--out", str(tmp_path / "run2")])

    names_first = sorted(p.name for p in (tmp_path / "run1").iterdir())
    names_second = sorted(p.name for p in (tmp_path / "run2").iterdir())
    reports_identical = names_first == names_second and all(
        (tmp_path / "run1" / name).read_bytes()
        == (tmp_path / "run2" / name).read_bytes()
        for name in names_first
    )

    ok = (code_first == 0 and code_second == 0 and generation_identical
          and reports_identical and elapsed < 60.0)
    gate(
        "C10 end-to-end 9-area 60-university synthetic study finishes "
        "under 60 s with exit code 0 and is byte-for-byte deterministic "
        "(dataset generation and full report)",
        ok,
        f"exit codes {code_first}/{code_second}, run time {elapsed:.2f} s, "
        f"{len(names_first)} report files",
    )
