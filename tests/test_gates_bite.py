"""The acceptance gates bite: C01 to C10, each run under a fault planted
in the package (or, for C08 and C09, in the helper the gate looks up),
report FAIL.  Each gate runs with a recording ``gate`` in place of the
fixture, so its verdict is read, not raised.  An exception from the
package is not a FAIL: it fails the test."""

import dataclasses
import functools
import itertools

import numpy as np
import pytest

from uniprod import bibliometrics, dea, disambiguation, lp, report

from . import test_acceptance as acceptance


def verdicts(test, **kwargs):
    """The verdict of every criterion that the gate ``test`` reports."""
    seen = []
    test(gate=lambda criterion, ok, detail="": seen.append(ok), **kwargs)
    return seen


def test_c01_fails_with_a_loose_feasibility_tolerance(monkeypatch):
    monkeypatch.setattr(lp, "FEASIBILITY_TOL", 0.5)
    assert verdicts(acceptance.test_c01_simplex_matches_vertex_enumeration,
                    monkeypatch=monkeypatch) == [False]


def _shrunk_scores(monkeypatch):
    """Every score is 1e-8 below the one its expansion factor gives."""
    score = dea.efficiency_score
    monkeypatch.setattr(dea, "efficiency_score",
                        lambda phi: score(phi) * (1.0 - 1e-8))


def _loose_phi_snap(monkeypatch):
    """Expansion factors up to 1.2 snap to 1."""
    monkeypatch.setattr(dea, "PHI_SNAP_TOL", 0.2)


@pytest.mark.parametrize("plant", [_shrunk_scores, _loose_phi_snap])
def test_c02_fails_on_scores_off_the_best_ratio(plant, monkeypatch):
    plant(monkeypatch)
    assert verdicts(
        acceptance.test_c02_single_dimension_scores_equal_best_ratio) == [False]


def _vrs_from_crs(monkeypatch):
    """``_phis`` answers VRS with the CRS records."""
    phis = dea._phis
    monkeypatch.setattr(dea, "_phis", lambda problem, regime, units=None: phis(
        problem, dea.CRS if regime == dea.VRS else regime, units))


def _zero_convexity_duals(monkeypatch):
    """Every VRS solution (its last row is the convexity equality) has
    its convexity dual set to 0.0, so ``decompose``'s sign test gives
    every unit phi_nirs = phi_vrs and classes every increasing-returns
    unit decreasing."""
    solve = dea.solve_lp

    def zeroing(objective, A, relations, b):
        sol = solve(objective, A, relations, b)
        if relations[-1] != lp.EQ:
            return sol
        duals = sol.duals.copy()
        duals[-1] = 0.0
        return dataclasses.replace(sol, duals=duals)

    monkeypatch.setattr(dea, "solve_lp", zeroing)


@pytest.mark.parametrize("plant", [_vrs_from_crs, _zero_convexity_duals])
def test_c03_fails_on_a_wrong_decomposition(plant, monkeypatch):
    plant(monkeypatch)
    assert verdicts(acceptance.test_c03_decomposition_invariants) == [False]


def test_c04_fails_when_inputs_are_offset(monkeypatch):
    """The problem's inputs are the raw inputs plus 1.0, an absolute
    offset that a change of units does not scale."""

    def offset(problem):
        X = np.array([d.inputs for d in problem.dmus], dtype=float) + 1.0
        Y = np.array([d.outputs for d in problem.dmus], dtype=float)
        return X / X.max(axis=0), Y / Y.max(axis=0)

    scaled = functools.cached_property(offset)
    scaled.__set_name__(dea.DeaProblem, "_scaled")
    monkeypatch.setattr(dea.DeaProblem, "_scaled", scaled)
    assert verdicts(acceptance.test_c04_units_invariance) == [False]


def test_c05_fails_when_every_factor_is_seeded(monkeypatch):
    """``drop_input`` seeds every factor on record, whatever its dual on
    the dropped row."""
    drop_input = dea.DeaProblem.drop_input

    def seeding_every_factor(problem, label):
        smaller = drop_input(problem, label)
        for regime, records in problem._solved.items():
            for k, rec in records.items():
                smaller._solved[regime].setdefault(k, dea._Solved(rec.phi, None))
        return smaller

    monkeypatch.setattr(dea.DeaProblem, "drop_input", seeding_every_factor)
    assert verdicts(acceptance.test_c05_dropping_an_input_never_helps) == [False]


def test_c06_fails_when_cells_drop_the_last_year(monkeypatch, tmp_path):
    """``cell_rows`` leaves out the last year of the output window."""
    cell_rows = bibliometrics.MatchedCorpus.cell_rows

    def without_last_year(corpus, area_id, university_id, years):
        return cell_rows(corpus, area_id, university_id, sorted(years)[:-1])

    monkeypatch.setattr(bibliometrics.MatchedCorpus, "cell_rows",
                        without_last_year)
    assert verdicts(acceptance.test_c06_output_construction_matches_bruteforce,
                    tmp_path=tmp_path) == [False]


def test_c07_fails_when_matching_reads_one_initial(monkeypatch, tmp_path):
    """Tokens and staff are compared on their first initial only."""
    match_author = disambiguation.match_author
    monkeypatch.setattr(disambiguation, "match_author",
                        lambda initials, candidates:
                        match_author(initials[:1], candidates))
    assert verdicts(acceptance.test_c07_disambiguation_reproduces_hand_labels,
                    tmp_path=tmp_path) == [False]


def test_c08_fails_when_the_mean_divides_by_n_plus_one(monkeypatch):
    """Each area's scores are divided by their sum over n + 1."""

    def normalize_scores(pte_by_area):
        return {
            (university_id, area_id):
                cell[university_id] / (sum(cell.values()) / (len(cell) + 1))
            for area_id, cell in sorted(pte_by_area.items())
            for university_id in sorted(cell)
        }

    monkeypatch.setattr(acceptance, "normalize_scores", normalize_scores)
    assert verdicts(acceptance.test_c08_normalization_and_global_index) == [False]


def test_c09_fails_with_dense_ranks(monkeypatch):
    """Tied values share a rank and the next value's rank follows it
    (1, 1, 2) instead of skipping by the tie size (1, 1, 3)."""

    def dense_rank(values):
        levels = sorted(set(values.values()), reverse=True)
        return {key: levels.index(value) + 1 for key, value in values.items()}

    monkeypatch.setattr(acceptance, "rank", dense_rank)
    assert verdicts(acceptance.test_c09_ranking_comparison_hand_values) == [False]


def test_c10_fails_when_a_report_counts_its_writes(monkeypatch, tmp_path):
    """Each rendering of the ``warnings`` table ends with a row holding
    how many times it was rendered before."""
    render_table = report.render_table
    calls = itertools.count()

    def counting(analysis_report, table):
        text = render_table(analysis_report, table)
        if table == "warnings":
            text += f"{next(calls)}\n"
        return text

    monkeypatch.setattr(report, "render_table", counting)
    assert verdicts(acceptance.test_c10_end_to_end_determinism_and_runtime,
                    tmp_path=tmp_path) == [False]
