import numpy as np
import pytest

from uniprod.dea import (
    CRS,
    NIRS,
    VRS,
    DeaProblem,
    DmuRecord,
    classify_rts,
    decompose,
    efficiency_score,
    scores,
    solve_output_oriented,
)
from uniprod.errors import (
    DegenerateDmuError,
    InvariantViolationError,
    StructuralError,
)

from .oracles import crs_ratio_oracle, random_dea_problem


def problem_1d(pairs):
    dmus = [DmuRecord(pid, (x,), (y,)) for pid, x, y in pairs]
    return DeaProblem(dmus, ("X",), ("Y",))


class TestEnvelopmentModels:
    @pytest.mark.parametrize("regime", [CRS, VRS, NIRS])
    def test_single_dmu_spans_itself(self, regime):
        problem = problem_1d([("A", 2.0, 3.0)])
        phi, lam = solve_output_oriented(problem, 0, regime)
        assert phi == pytest.approx(1.0, abs=1e-9)

    def test_crs_two_dmus(self):
        # B's ratio is half of A's, so its outputs can double
        problem = problem_1d([("A", 1.0, 2.0), ("B", 1.0, 1.0)])
        phi, _ = solve_output_oriented(problem, 1, CRS)
        assert phi == pytest.approx(2.0, abs=1e-9)
        assert efficiency_score(phi) == pytest.approx(0.5, abs=1e-9)

    def test_vrs_three_points(self):
        # C holds B's input level, so under VRS it can reach B's output
        problem = problem_1d([("A", 1.0, 1.0), ("B", 2.0, 2.0), ("C", 2.0, 1.0)])
        phi, _ = solve_output_oriented(problem, 2, VRS)
        assert phi == pytest.approx(2.0, abs=1e-9)

    def test_bad_regime_and_index(self):
        problem = problem_1d([("A", 1.0, 1.0), ("B", 2.0, 1.0)])
        with pytest.raises(StructuralError):
            solve_output_oriented(problem, 0, "drs")
        with pytest.raises(StructuralError):
            solve_output_oriented(problem, 5, CRS)


class TestEfficiencyScore:
    @pytest.mark.parametrize("phi,score", [(1.0, 1.0), (2.0, 0.5), (1.25, 0.8)])
    def test_reciprocal(self, phi, score):
        assert efficiency_score(phi) == pytest.approx(score, abs=1e-12)

    def test_rejects_phi_below_one(self):
        with pytest.raises(InvariantViolationError):
            efficiency_score(0.9)

    def test_clamps_wobble(self):
        assert efficiency_score(1.0 - 1e-9) == 1.0


class TestDecomposition:
    def test_frontier_dmu_fully_efficient(self):
        results = decompose(problem_1d([("A", 1.0, 2.0), ("B", 3.0, 4.0)]))
        a = results[0]
        assert a.te == a.pte == a.se == 1.0
        assert a.rts == "constant"

    def test_minimal_input_point_is_vrs_efficient(self):
        # B operates below A's scale: half the CRS score, but no VRS peer
        # can produce anything at B's input level, so PTE stays at 1.
        results = decompose(problem_1d([("A", 1.0, 2.0), ("B", 0.5, 0.5)]))
        b = results[1]
        assert b.te == pytest.approx(0.5, abs=1e-9)
        assert b.pte == pytest.approx(1.0, abs=1e-9)
        assert b.se == pytest.approx(0.5, abs=1e-9)
        assert b.rts == "increasing"

    def test_above_scale_point_decreasing(self):
        results = decompose(problem_1d([("A", 1.0, 2.0), ("B", 3.0, 4.0)]))
        b = results[1]
        assert b.te == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert b.pte == pytest.approx(1.0, abs=1e-9)
        assert b.rts == "decreasing"

    def test_random_problem_invariants(self):
        rng = np.random.default_rng(3)
        problem = random_dea_problem(rng, n_dmus=20)
        results = decompose(problem)
        for r in results:
            assert 0.0 < r.te <= r.pte <= 1.0
            assert r.se == pytest.approx(r.te / r.pte, abs=1e-12)
            assert 0.0 < r.se <= 1.0
        for regime in (CRS, VRS, NIRS):
            vals = scores(problem, regime)
            assert max(vals.values()) >= 1.0 - 1e-6

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        problem = random_dea_problem(rng, n_dmus=12)
        # A second, equal problem has its own memo, so every LP runs again.
        twin = DeaProblem(problem.dmus, problem.input_labels, problem.output_labels)
        assert decompose(problem) == decompose(twin)

    def test_vrs_peers_reconstruct_projection(self):
        rng = np.random.default_rng(9)
        problem = random_dea_problem(rng, n_dmus=10)
        X, Y = problem.input_matrix(), problem.output_matrix()
        for k, dmu in enumerate(problem.dmus):
            phi, lam = solve_output_oriented(problem, k, VRS)
            assert lam.sum() == pytest.approx(1.0, abs=1e-6)
            assert np.all(lam @ X <= X[k] + 1e-6)
            assert np.all(lam @ Y >= phi * Y[k] - 1e-6)


class TestRtsClassification:
    def test_branches(self):
        assert classify_rts(1.0, 1.0, 1.0) == "constant"
        assert classify_rts(0.5, 0.5, 1.0) == "increasing"
        assert classify_rts(2.0 / 3.0, 1.0, 1.0) == "decreasing"

    def test_ordering_violation(self):
        with pytest.raises(InvariantViolationError):
            classify_rts(0.9, 0.5, 1.0)

    def test_score_out_of_range(self):
        with pytest.raises(InvariantViolationError):
            classify_rts(0.0, 0.5, 1.0)
        with pytest.raises(InvariantViolationError):
            classify_rts(0.5, 0.5, 1.5)

    def test_unclassifiable_midpoint(self):
        with pytest.raises(InvariantViolationError):
            classify_rts(0.5, 0.75, 1.0)


class TestProblemValidation:
    def test_rejects_all_zero_outputs(self):
        with pytest.raises(DegenerateDmuError):
            problem_1d([("A", 1.0, 1.0), ("B", 2.0, 0.0)])

    def test_rejects_duplicate_ids(self):
        with pytest.raises(StructuralError):
            problem_1d([("A", 1.0, 1.0), ("A", 2.0, 1.0)])

    def test_rejects_negative_values(self):
        with pytest.raises(StructuralError):
            DmuRecord("A", (-1.0,), (1.0,))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(StructuralError):
            DeaProblem([DmuRecord("A", (1.0, 2.0), (1.0,))], ("X",), ("Y",))

    def test_zero_input_component_is_fine(self):
        problem = DeaProblem(
            [DmuRecord("A", (0.0, 5.0), (2.0,)), DmuRecord("B", (1.0, 4.0), (1.0,))],
            ("FP", "AP"),
            ("PU",),
        )
        for r in decompose(problem):
            assert 0.0 < r.te <= 1.0

    def test_drop_input(self):
        rng = np.random.default_rng(13)
        problem = random_dea_problem(rng, n_dmus=6)
        smaller = problem.drop_input(problem.input_labels[0])
        assert smaller.input_labels == problem.input_labels[1:]
        with pytest.raises(StructuralError):
            problem.drop_input("nope")
        one = problem_1d([("A", 1.0, 1.0), ("B", 2.0, 1.0)])
        with pytest.raises(StructuralError):
            one.drop_input("X")


class TestFrontierProperties:
    def test_crs_matches_ratio_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            n = int(rng.integers(2, 11))
            xs = rng.uniform(0.5, 20.0, size=n)
            ys = rng.uniform(0.5, 50.0, size=n)
            problem = problem_1d(
                [(f"D{j}", xs[j], ys[j]) for j in range(n)]
            )
            expected = crs_ratio_oracle(xs, ys)
            got = scores(problem, CRS)
            for j in range(n):
                assert got[f"D{j}"] == pytest.approx(expected[j], abs=1e-9)

    def test_units_invariance(self):
        rng = np.random.default_rng(17)
        problem = random_dea_problem(rng, n_dmus=8, n_inputs=3, n_outputs=2)
        base = decompose(problem)
        for col in range(3):
            for k in (0.01, 7.0, 1000.0):
                scaled = DeaProblem(
                    [
                        DmuRecord(
                            d.dmu_id,
                            tuple(
                                v * k if i == col else v
                                for i, v in enumerate(d.inputs)
                            ),
                            d.outputs,
                        )
                        for d in problem.dmus
                    ],
                    problem.input_labels,
                    problem.output_labels,
                )
                for r0, r1 in zip(base, decompose(scaled)):
                    assert abs(r0.te - r1.te) <= 1e-6
                    assert abs(r0.pte - r1.pte) <= 1e-6
                    assert r0.rts == r1.rts

    def test_adding_dmu_never_raises_scores(self):
        rng = np.random.default_rng(19)
        problem = random_dea_problem(rng, n_dmus=7, n_inputs=2, n_outputs=2)
        extra = DmuRecord(
            "NEW",
            tuple(rng.uniform(1, 50, size=2)),
            tuple(rng.uniform(1, 100, size=2)),
        )
        grown = DeaProblem(
            problem.dmus + (extra,), problem.input_labels, problem.output_labels
        )
        for regime in (CRS, VRS, NIRS):
            before = scores(problem, regime)
            after = scores(grown, regime)
            for dmu_id, s in before.items():
                assert after[dmu_id] <= s + 1e-9

    def test_dropping_input_never_raises_scores(self):
        rng = np.random.default_rng(23)
        problem = random_dea_problem(rng, n_dmus=9)
        smaller = problem.drop_input(problem.input_labels[-1])
        for regime in (CRS, VRS):
            before = scores(problem, regime)
            after = scores(smaller, regime)
            for dmu_id, s in before.items():
                assert after[dmu_id] <= s + 1e-9
