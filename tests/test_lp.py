import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uniprod import lp as lp_module
from uniprod.errors import InvariantViolationError
from uniprod.lp import (
    FEASIBILITY_TOL,
    MAX_ITERATIONS,
    PIVOT_TOL,
    _pivot,
    solve_lp,
)

from .oracles import INFEASIBLE, lp_arrays, lp_vertex_oracle, random_small_lp


def solve_or_infeasible(lp):
    """``solve_lp``'s solution, or INFEASIBLE where it raises."""
    try:
        return solve_lp(*lp)
    except InvariantViolationError:
        return INFEASIBLE


class TestSmallCases:
    def test_zero_objective(self):
        sol = solve_lp(*lp_arrays([0.0], [((1.0,), "<=", 1.0)]))
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(0.0, abs=1e-9)

    def test_single_variable_bound(self):
        # max x s.t. x <= 3, x >= 0; the only active constraint is x = 3
        sol = solve_lp(*lp_arrays([1.0], [((1.0,), "<=", 3.0)]))
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(3.0, abs=1e-9)
        assert sol.x[0] == pytest.approx(3.0, abs=1e-9)

    def test_contradictory_bounds_raise(self):
        lp = lp_arrays([1.0], [((1.0,), "<=", 1.0), ((1.0,), ">=", 2.0)])
        with pytest.raises(InvariantViolationError, match="not a feasible"):
            solve_lp(*lp)

    def test_redundant_rows_raise(self):
        # Two identical = rows: phase 1 leaves an artificial stuck at zero
        # in the second row, with nothing to pivot it out on.
        row = ((1.0, 1.0), "=", 2.0)
        with pytest.raises(InvariantViolationError, match="redundant"):
            solve_lp(*lp_arrays([1.0, 0.0], [row, row]))

    def test_unbounded(self):
        sol = solve_lp(*lp_arrays([1.0], [((-1.0,), "<=", 0.0)]))
        assert sol.status == "unbounded"

    def test_equality_constraint(self):
        sol = solve_lp(*lp_arrays([2.0, 1.0], [((1.0, 1.0), "=", 4.0), ((1.0, 0.0), "<=", 3.0)]))
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(7.0, abs=1e-8)
        assert sol.x == pytest.approx([3.0, 1.0], abs=1e-8)

    def test_no_constraints_zero_objective(self):
        sol = solve_lp(*lp_arrays([0.0, 0.0], []))
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(0.0)

    def test_beale_degenerate_terminates(self):
        # Classic cycling-prone LP; Bland's rule must terminate at the optimum.
        constraints = [
            ((0.25, -60.0, -1 / 25, 9.0), "<=", 0.0),
            ((0.5, -90.0, -1 / 50, 3.0), "<=", 0.0),
            ((0.0, 0.0, 1.0, 0.0), "<=", 1.0),
        ]
        objective = [0.75, -150.0, 0.02, -6.0]
        sol = solve_lp(*lp_arrays(objective, constraints))
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(0.05, abs=1e-9)


def _pivot_by_rows(T, basis, row, col):
    """Row-at-a-time reference for ``_pivot``; the last row is z."""
    T[row] /= T[row, col]
    for i in range(T.shape[0]):
        if i != row and T[i, col] != 0.0:
            T[i] -= T[i, col] * T[row]
    basis[row] = col


class TestPivot:
    @pytest.mark.parametrize("seed", range(5))
    def test_rank_one_update_matches_row_loop(self, seed):
        rng = np.random.default_rng(seed)
        T = rng.normal(size=(7, 9))  # six constraint rows and z
        T[rng.random(T.shape) < 0.3] = 0.0
        row, col = 2, 4
        T[row, col] = 1.7
        got = (T.copy(), list(range(6)))
        want = (T.copy(), list(range(6)))
        _pivot(*got, row, col, np.empty_like(T))
        _pivot_by_rows(*want, row, col)
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1]


def _simplex_reference(T, basis, iters, n_enter):
    """Element-indexed reference for ``_simplex``'s Bland steps."""
    m = T.shape[0] - 1
    while True:
        improvable = np.flatnonzero(T[m, :n_enter] < -FEASIBILITY_TOL)
        if improvable.size == 0:
            return "optimal", iters
        entering = int(improvable[0])
        leaving = -1
        best = np.inf
        for i in range(m):
            a = T[i, entering]
            if a > PIVOT_TOL:
                ratio = T[i, -1] / a
                if ratio < best - PIVOT_TOL or (
                    ratio < best + PIVOT_TOL
                    and (leaving < 0 or basis[i] < basis[leaving])
                ):
                    best = ratio
                    leaving = i
        if leaving < 0:
            return "unbounded", iters
        _pivot_by_rows(T, basis, leaving, entering)
        iters += 1
        if iters > MAX_ITERATIONS:
            raise InvariantViolationError("simplex iteration limit exceeded")


class TestSimplexLoop:
    def test_same_pivots_and_solution_as_reference(self, monkeypatch):
        rng = np.random.default_rng(17)
        programs = [lp_arrays(*random_small_lp(rng)) for _ in range(150)]
        # Envelopment-shaped programs: many columns, tied ratios.
        for _ in range(10):
            n = int(rng.integers(5, 40))
            X = rng.integers(1, 6, size=(n, 2)).astype(float)
            Y = rng.integers(1, 6, size=(n, 2)).astype(float)
            rows = [(np.r_[0.0, X[:, i]], "<=", X[0, i]) for i in range(2)]
            rows += [(np.r_[-Y[0, r], Y[:, r]], ">=", 0.0) for r in range(2)]
            rows.append((np.r_[0.0, np.ones(n)], "=", 1.0))
            programs.append(lp_arrays(np.r_[1.0, np.zeros(n)], rows))
        got = [solve_or_infeasible(p) for p in programs]
        monkeypatch.setattr(lp_module, "_simplex", _simplex_reference)
        want = [solve_or_infeasible(p) for p in programs]
        assert INFEASIBLE in got
        for a, b in zip(got, want):
            if INFEASIBLE in (a, b):
                assert a == b
                continue
            assert (a.status, a.objective, a.iterations) == (
                b.status, b.objective, b.iterations)
            assert (a.x is None and b.x is None) or np.array_equal(a.x, b.x)


class TestProperties:
    def test_deterministic_resolve(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            lp = lp_arrays(*random_small_lp(rng))
            a, b = solve_or_infeasible(lp), solve_or_infeasible(lp)
            if INFEASIBLE in (a, b):
                assert a == b
                continue
            assert a.status == b.status
            assert a.iterations == b.iterations
            if a.status == "optimal":
                assert a.objective == b.objective
                assert np.array_equal(a.x, b.x)

    def test_optimal_solutions_satisfy_constraints(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 40:
            objective, constraints = random_small_lp(rng)
            sol = solve_or_infeasible(lp_arrays(objective, constraints))
            if sol == INFEASIBLE or sol.status != "optimal":
                continue
            checked += 1
            for row, rel, rhs in constraints:
                lhs = float(np.dot(row, sol.x))
                if rel == "<=":
                    assert lhs <= rhs + 1e-6
                elif rel == ">=":
                    assert lhs >= rhs - 1e-6
                else:
                    assert lhs == pytest.approx(rhs, abs=1e-6)
            assert np.all(sol.x >= -1e-6)

    @given(k=st.floats(min_value=0.01, max_value=100.0, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_objective_scaling(self, k):
        constraints = [((1.0, 2.0), "<=", 6.0), ((2.0, 1.0), "<=", 6.0)]
        base = solve_lp(*lp_arrays([1.0, 1.0], constraints))
        scaled = solve_lp(*lp_arrays([k, k], constraints))
        assert base.status == scaled.status == "optimal"
        assert scaled.objective == pytest.approx(k * base.objective, rel=1e-9)

    def test_matches_vertex_enumeration_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(150):
            objective, constraints = random_small_lp(rng)
            sol = solve_or_infeasible(lp_arrays(objective, constraints))
            status, value = lp_vertex_oracle(objective, constraints)
            got = sol if sol == INFEASIBLE else sol.status
            assert got == status, (objective, constraints)
            if status == "optimal":
                assert sol.objective == pytest.approx(value, abs=1e-6), (
                    objective,
                    constraints,
                )


class TestDuals:
    """The row duals read from the final reduced-cost row."""

    @staticmethod
    def c03_envelopment_lps(monkeypatch):
        from uniprod import dea

        from .test_dea_memo import c03_problems, fresh

        solved = []
        solve = dea.solve_lp

        def recording(*lp):
            solution = solve(*lp)
            solved.append((lp, solution))
            return solution

        monkeypatch.setattr(dea, "solve_lp", recording)
        for problem in c03_problems():
            for regime in dea.REGIMES:
                dea.scores(fresh(problem), regime)
        return solved

    @staticmethod
    def inequality_programs():
        rng = np.random.default_rng(31)
        programs = []
        while len(programs) < 200:
            objective, constraints = random_small_lp(rng)
            if all(rel != "=" for _, rel, _ in constraints):
                lp = lp_arrays(objective, constraints)
                sol = solve_or_infeasible(lp)
                if sol != INFEASIBLE:
                    programs.append((lp, sol))
        return programs

    def test_strong_duality_and_signs(self, monkeypatch):
        solved = self.c03_envelopment_lps(monkeypatch) + self.inequality_programs()
        optimal = [(lp, sol) for lp, sol in solved if sol.status == "optimal"]
        for (_, _, relations, b), sol in optimal:
            y = sol.duals
            assert y.shape == b.shape
            assert float(b @ y) == pytest.approx(sol.objective, abs=1e-9)
            # A = row's dual, VRS's convexity row among them, has either
            # sign.
            rels = np.array(relations)
            assert np.all(y[rels == "<="] >= -FEASIBILITY_TOL)
            assert np.all(y[rels == ">="] <= FEASIBILITY_TOL)

    def test_finite_duals_on_every_row(self):
        """Every optimum, with = rows among them."""
        rng = np.random.default_rng(37)
        optimal = seen_eq = 0
        while optimal < 400:
            objective, A, relations, b = lp_arrays(*random_small_lp(rng))
            sol = solve_or_infeasible((objective, A, relations, b))
            if sol == INFEASIBLE or sol.status != "optimal":
                assert sol == INFEASIBLE or sol.duals is None
                continue
            optimal += 1
            assert sol.duals.shape == b.shape
            assert np.all(np.isfinite(sol.duals))
            assert float(b @ sol.duals) == pytest.approx(sol.objective, abs=1e-9)
            seen_eq += "=" in relations
        assert seen_eq
