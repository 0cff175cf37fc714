import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uniprod import dea
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

    def test_bad_regime(self):
        problem = problem_1d([("A", 1.0, 1.0), ("B", 2.0, 1.0)])
        with pytest.raises(StructuralError):
            scores(problem, "drs")

    @pytest.mark.parametrize("solve", [
        lambda problem: scores(problem, "bogus"),
        lambda problem: solve_output_oriented(problem, 0, "bogus"),
    ], ids=["scores", "solve_output_oriented"])
    def test_bad_regime_leaves_no_memo(self, solve):
        problem = problem_1d([("A", 1.0, 1.0), ("B", 2.0, 1.0)])
        with pytest.raises(StructuralError, match="^unknown regime 'bogus'$"):
            solve(problem)
        assert problem._rows_memo == {}
        assert sorted(problem._solved) == sorted((CRS, VRS, NIRS))
        assert not any(problem._solved.values())


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

    def test_factors_out_of_order_raise(self):
        """A VRS factor above the CRS one breaks the nesting of the
        feasible regions, which only a solver bug can do."""
        problem = problem_1d([("A", 1.0, 1.0), ("B", 2.0, 1.0)])
        scores(problem, CRS)
        phi_crs = problem._solved[CRS][1].phi
        problem._solved[VRS][1] = dea._Solved(phi_crs + 1.0, None)
        with pytest.raises(InvariantViolationError,
                           match="^B: expansion factors out of order"):
            decompose(problem)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        problem = random_dea_problem(rng, n_dmus=12)
        # A second, equal problem has its own memo, so every LP runs again.
        twin = DeaProblem(problem.dmus, problem.input_labels, problem.output_labels)
        assert decompose(problem) == decompose(twin)

    def test_vrs_peers_reconstruct_projection(self):
        rng = np.random.default_rng(9)
        problem = random_dea_problem(rng, n_dmus=10)
        X = np.array([d.inputs for d in problem.dmus])
        Y = np.array([d.outputs for d in problem.dmus])
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

    @pytest.mark.parametrize("inputs, outputs, name", [
        (("x", "z", "x"), ("y",), "input labels"),
        (("x", "z", "w"), ("y", "y"), "output labels"),
    ], ids=["inputs", "outputs"])
    def test_rejects_repeated_labels(self, inputs, outputs, name):
        # With a repeated input label, drop_input(label) would remove every
        # column of that name but read the dual of only the first one.
        dmus = [DmuRecord(u, (1.0, 2.0, float(k + 1)), (1.0,) * len(outputs))
                for k, u in enumerate("AB")]
        with pytest.raises(StructuralError, match=f"^duplicate {name}$"):
            DeaProblem(dmus, inputs, outputs)

    @pytest.mark.parametrize("inputs, outputs, message", [
        ((), (1.0,), "A: empty inputs vector"),
        ((1.0,), (), "A: empty outputs vector"),
        ((float("nan"),), (1.0,), "A: non-finite inputs"),
        ((1.0,), (float("inf"),), "A: non-finite outputs"),
    ], ids=["empty-inputs", "empty-outputs", "nan-input", "inf-output"])
    def test_rejects_bad_vectors(self, inputs, outputs, message):
        with pytest.raises(StructuralError, match=f"^{message}$"):
            DmuRecord("A", inputs, outputs)

    @pytest.mark.parametrize("n_dmus, inputs, outputs, message", [
        (0, ("X",), ("Y",), "a DEA problem needs at least one DMU"),
        (1, (), ("Y",), "input and output labels must be non-empty"),
        (1, ("X",), (), "input and output labels must be non-empty"),
        (1, ("X",), ("Y", "Z"), "A: 1 outputs, expected 2"),
    ], ids=["no-dmus", "no-inputs", "no-outputs", "output-count"])
    def test_rejects_bad_shape(self, n_dmus, inputs, outputs, message):
        dmus = [DmuRecord("A", (1.0,), (1.0,))][:n_dmus]
        with pytest.raises(StructuralError, match=f"^{message}$"):
            DeaProblem(dmus, inputs, outputs)

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

    def test_all_zero_columns_change_nothing(self):
        # As in an area with no funding rows: the columns add rows 0 <= 0
        # and 0 >= 0 to every LP, and scaling must leave them at 0.
        base = random_dea_problem(np.random.default_rng(29), n_dmus=12,
                                  n_inputs=3, n_outputs=2)
        padded = DeaProblem(
            [DmuRecord(d.dmu_id, (*d.inputs, 0.0), (*d.outputs, 0.0))
             for d in base.dmus],
            (*base.input_labels, "ZERO_IN"), (*base.output_labels, "ZERO_OUT"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for regime in (CRS, VRS):
                got, want = scores(padded, regime), scores(base, regime)
                assert got.keys() == want.keys()
                for unit, score in want.items():
                    assert abs(got[unit] - score) <= 1e-9
            for got, want in zip(decompose(padded), decompose(base),
                                 strict=True):
                assert (got.dmu_id, got.rts) == (want.dmu_id, want.rts)
                for factor in ("te", "pte", "se"):
                    assert abs(getattr(got, factor)
                               - getattr(want, factor)) <= 1e-9

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

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 24),
           data=st.data())
    def test_permuting_units_keeps_scores(self, seed, n, data):
        """The units' order is not data: every factor and score agrees
        within a relative 1e-9 and every RTS class is the same."""
        problem = random_dea_problem(np.random.default_rng(seed), n_dmus=n)
        order = data.draw(st.permutations(range(n)))
        shuffled = DeaProblem([problem.dmus[j] for j in order],
                              problem.input_labels, problem.output_labels)
        base = {r.dmu_id: r for r in decompose(problem)}
        results = decompose(shuffled)
        assert sorted(r.dmu_id for r in results) == sorted(base)
        for r in results:
            r0 = base[r.dmu_id]
            for name in ("phi_crs", "phi_vrs", "phi_nirs", "te", "pte", "se"):
                assert getattr(r, name) == pytest.approx(
                    getattr(r0, name), rel=1e-9, abs=0), (r.dmu_id, name)
            assert r.rts == r0.rts, r.dmu_id

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 24),
           duplicate=st.booleans(), data=st.data())
    def test_duplicate_or_dominated_unit_keeps_scores(self, seed, n,
                                                      duplicate, data):
        """A copy of a unit, or a unit that uses more of every input for
        less of every output, leaves the production set as it was: every
        other unit's factors and scores agree within a relative 1e-9 and
        keep their RTS class, and a copy scores as its twin."""
        problem = random_dea_problem(np.random.default_rng(seed), n_dmus=n)
        twin = problem.dmus[data.draw(st.integers(0, n - 1))]
        if duplicate:
            extra = DmuRecord("NEW", twin.inputs, twin.outputs)
        else:
            extra = DmuRecord("NEW", [1.5 * v + 1.0 for v in twin.inputs],
                              [0.5 * v for v in twin.outputs])
        dmus = list(problem.dmus)
        dmus.insert(data.draw(st.integers(0, n)), extra)
        grown = {r.dmu_id: r for r in decompose(DeaProblem(
            dmus, problem.input_labels, problem.output_labels))}
        pairs = [(grown[r.dmu_id], r) for r in decompose(problem)]
        if duplicate:
            pairs.append((grown["NEW"], grown[twin.dmu_id]))
        for r, r0 in pairs:
            for name in ("phi_crs", "phi_vrs", "phi_nirs", "te", "pte", "se"):
                assert getattr(r, name) == pytest.approx(
                    getattr(r0, name), rel=1e-9, abs=0), (r.dmu_id, name)
            assert r.rts == r0.rts, r.dmu_id

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
