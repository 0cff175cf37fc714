import numpy as np
import pytest

from uniprod.analysis import (
    GlobalIndex,
    NormalizedScore,
    compare_rankings,
    global_index,
    normalize_scores,
    rank,
    sensitivity_drop_input,
    tertile_summary,
)
from uniprod.dea import DeaProblem, DmuRecord
from uniprod.errors import InvariantViolationError, StructuralError

from .oracles import random_dea_problem


class TestNormalizeScores:
    def test_uniform_scores(self):
        out = normalize_scores({"A1": {"U1": 1.0, "U2": 1.0}})
        assert [ns.theta for ns in out] == [1.0, 1.0]

    def test_division_by_area_mean(self):
        out = normalize_scores({"A1": {"U1": 1.0, "U2": 0.5}})
        by_uni = {ns.university_id: ns.theta for ns in out}
        assert by_uni["U1"] == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert by_uni["U2"] == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_single_university_area(self):
        out = normalize_scores({"A1": {"U1": 0.8}})
        assert out[0].theta == pytest.approx(1.0, abs=1e-12)

    def test_per_area_mean_is_one(self):
        rng = np.random.default_rng(7)
        table = {
            f"A{a}": {
                f"U{u}": float(rng.uniform(0.1, 1.0))
                for u in range(int(rng.integers(1, 12)))
            }
            for a in range(6)
        }
        out = normalize_scores(table)
        for area_id in table:
            thetas = [ns.theta for ns in out if ns.area_id == area_id]
            assert sum(thetas) / len(thetas) == pytest.approx(1.0, abs=1e-9)

    def test_empty_area_rejected(self):
        with pytest.raises(StructuralError):
            normalize_scores({"A1": {}})


class TestGlobalIndex:
    def test_single_area(self):
        indices, notices = global_index(
            [NormalizedScore("U1", "A1", 1.2)], {("U1", "A1"): 30.0}
        )
        assert notices == ()
        assert indices[0].theta_tot == pytest.approx(1.2, abs=1e-12)

    def test_weighted_mean(self):
        indices, _ = global_index(
            [NormalizedScore("U1", "A1", 1.0), NormalizedScore("U1", "A2", 0.5)],
            {("U1", "A1"): 30.0, ("U1", "A2"): 10.0},
        )
        assert indices[0].theta_tot == pytest.approx(0.875, abs=1e-12)

    def test_constant_theta_ignores_weights(self):
        indices, _ = global_index(
            [NormalizedScore("U1", "A1", 0.7), NormalizedScore("U1", "A2", 0.7)],
            {("U1", "A1"): 99.0, ("U1", "A2"): 1.0},
        )
        assert indices[0].theta_tot == pytest.approx(0.7, abs=1e-12)

    def test_invariant_under_uniform_weight_scaling(self):
        thetas = [
            NormalizedScore("U1", "A1", 1.3),
            NormalizedScore("U1", "A2", 0.6),
            NormalizedScore("U1", "A3", 0.9),
        ]
        weights = {("U1", "A1"): 12.0, ("U1", "A2"): 5.0, ("U1", "A3"): 40.0}
        base, _ = global_index(thetas, weights)
        for k in (0.5, 3.0, 250.0):
            scaled, _ = global_index(
                thetas, {key: w * k for key, w in weights.items()}
            )
            assert scaled[0].theta_tot == pytest.approx(
                base[0].theta_tot, abs=1e-12
            )

    def test_zero_total_weight_gives_notice(self):
        indices, notices = global_index(
            [NormalizedScore("U1", "A1", 1.0)], {("U1", "A1"): 0.0}
        )
        assert indices == ()
        assert len(notices) == 1 and "U1" in notices[0]

    def test_missing_weight_rejected(self):
        with pytest.raises(StructuralError):
            global_index([NormalizedScore("U1", "A1", 1.0)], {})

    def test_out_of_range_aggregate_rejected(self):
        with pytest.raises(InvariantViolationError):
            GlobalIndex("U1", 2.0, (("A1", 1.0, 10.0),))


class TestRank:
    def test_competition_ties(self):
        assert rank({"a": 1.0, "b": 1.0, "c": 0.8}) == {"a": 1, "b": 1, "c": 3}

    def test_strictly_decreasing(self):
        values = {f"u{i}": 1.0 - 0.1 * i for i in range(5)}
        assert rank(values) == {f"u{i}": i + 1 for i in range(5)}

    def test_all_equal(self):
        assert rank({"a": 0.5, "b": 0.5, "c": 0.5}) == {"a": 1, "b": 1, "c": 1}

    def test_tie_then_skip_then_tie(self):
        values = {"a": 3.0, "b": 3.0, "c": 2.0, "d": 1.0, "e": 1.0, "f": 0.5}
        assert rank(values) == {"a": 1, "b": 1, "c": 3, "d": 4, "e": 4, "f": 6}

    def test_non_finite_rejected(self):
        with pytest.raises(StructuralError):
            rank({"a": float("nan")})


class TestTertileSummary:
    def test_one_unit_per_tertile(self):
        summary = tertile_summary({"a": 0.9, "b": 0.8, "c": 0.7})
        assert summary.efficient_count == 0
        assert summary.tertile_sizes == (1, 1, 1)
        assert summary.tertile_means == (0.9, 0.8, 0.7)

    def test_all_efficient(self):
        summary = tertile_summary({"a": 1.0, "b": 1.0})
        assert summary.efficient_count == 2
        assert summary.inefficient_count == 0
        assert summary.tertile_means == (None, None, None)

    def test_six_inefficient(self):
        scores = dict(zip("abcdef", (0.9, 0.9, 0.6, 0.6, 0.3, 0.3)))
        summary = tertile_summary(scores)
        assert summary.tertile_sizes == (2, 2, 2)
        assert summary.tertile_means == pytest.approx((0.9, 0.6, 0.3))

    def test_remainder_goes_to_leading_groups(self):
        scores = {f"u{i}": 0.1 + 0.01 * i for i in range(7)}
        assert tertile_summary(scores).tertile_sizes == (3, 2, 2)
        scores[f"u7"] = 0.05
        assert tertile_summary(scores).tertile_sizes == (3, 3, 2)

    def test_fewer_than_three_inefficient(self):
        summary = tertile_summary({"a": 1.0, "b": 0.4, "c": 0.2})
        assert summary.efficient_count == 1
        assert summary.tertile_sizes == (1, 1, 0)
        assert summary.tertile_means[0] == 0.4
        assert summary.tertile_means[1] == 0.2
        assert summary.tertile_means[2] is None

    def test_epsilon_boundary_counts_as_efficient(self):
        summary = tertile_summary({"a": 1.0 - 1e-6, "b": 0.5})
        assert summary.efficient_count == 1


class TestCompareRankings:
    def test_identical(self):
        r = {"a": 1, "b": 2, "c": 3}
        cmp = compare_rankings(r, dict(r))
        assert cmp.changed == 0
        assert cmp.max_delta == 0
        assert cmp.mean_delta == 0.0
        assert cmp.median_delta == 0.0
        assert cmp.cv_delta == 0.0
        assert not cmp.cv_defined

    def test_full_reversal_of_three(self):
        cmp = compare_rankings({"a": 1, "b": 2, "c": 3},
                               {"a": 3, "b": 2, "c": 1})
        assert cmp.changed == 2
        assert cmp.max_delta == 2
        assert cmp.mean_delta == pytest.approx(4.0 / 3.0)
        assert cmp.median_delta == 2.0
        assert cmp.cv_delta == pytest.approx(2.0 ** 0.5 / 2.0)
        assert cmp.cv_defined

    def test_swap_of_two(self):
        cmp = compare_rankings({"a": 1, "b": 2}, {"a": 2, "b": 1})
        assert cmp.changed == 2
        assert cmp.max_delta == 1
        assert cmp.mean_delta == 1.0

    def test_symmetric(self):
        rng = np.random.default_rng(11)
        units = [f"u{i}" for i in range(9)]
        for _ in range(20):
            a = dict(zip(units, rng.permutation(len(units)) + 1))
            b = dict(zip(units, rng.permutation(len(units)) + 1))
            ab, ba = compare_rankings(a, b), compare_rankings(b, a)
            assert ab == ba

    def test_mismatched_units(self):
        with pytest.raises(StructuralError):
            compare_rankings({"a": 1}, {"b": 1})

    def test_empty(self):
        with pytest.raises(StructuralError):
            compare_rankings({}, {})


class TestSensitivityDropInput:
    def fixture(self):
        # Four units on a straight staff/output line, plus one unit whose
        # only claim to the frontier is its minimal funding input.
        return DeaProblem(
            (
                DmuRecord("A", (4.0, 200.0), (20.0,)),
                DmuRecord("B", (6.0, 150.0), (40.0,)),
                DmuRecord("C", (8.0, 100.0), (60.0,)),
                DmuRecord("D", (10.0, 50.0), (80.0,)),
                DmuRecord("E", (10.0, 10.0), (30.0,)),
            ),
            ("STAFF", "PR"),
            ("PU",),
        )

    def test_funding_driven_unit_leaves_frontier(self):
        result = sensitivity_drop_input(self.fixture(), "PR")
        assert result.scores_before == pytest.approx(
            {"A": 1.0, "B": 1.0, "C": 1.0, "D": 1.0, "E": 1.0}, abs=1e-9
        )
        assert result.scores_after["E"] == pytest.approx(0.375, abs=1e-9)
        for unit in "ABCD":
            assert result.scores_after[unit] == pytest.approx(1.0, abs=1e-9)
        cmp = result.comparison
        assert cmp.no_longer_efficient == 1
        assert cmp.changed == 1
        assert cmp.max_delta == 4
        assert cmp.mean_delta == pytest.approx(0.8)
        assert cmp.median_delta == 0.0
        assert cmp.cv_delta == pytest.approx(2.0)

    def test_constant_column_is_inert(self):
        rng = np.random.default_rng(29)
        base = random_dea_problem(rng, n_dmus=8, n_inputs=3, n_outputs=2)
        padded = DeaProblem(
            tuple(
                DmuRecord(d.dmu_id, d.inputs + (42.0,), d.outputs)
                for d in base.dmus
            ),
            base.input_labels + ("CONST",),
            base.output_labels,
        )
        result = sensitivity_drop_input(padded, "CONST")
        for unit in result.scores_before:
            assert result.scores_after[unit] == pytest.approx(
                result.scores_before[unit], abs=1e-9
            )
        assert result.comparison.changed == 0
        assert result.comparison.no_longer_efficient == 0

    def test_scores_never_increase_and_frontier_shrinks(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            problem = random_dea_problem(rng, n_dmus=12)
            label = problem.input_labels[int(rng.integers(len(problem.input_labels)))]
            result = sensitivity_drop_input(problem, label)
            for unit, s in result.scores_before.items():
                assert result.scores_after[unit] <= s + 1e-9
            eff_before = {u for u, s in result.scores_before.items()
                          if s >= 1.0 - 1e-6}
            eff_after = {u for u, s in result.scores_after.items()
                         if s >= 1.0 - 1e-6}
            assert eff_after <= eff_before
