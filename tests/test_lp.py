import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uniprod import lp as lp_module
from uniprod.errors import InvariantViolationError, StructuralError
from uniprod.lp import (
    FEASIBILITY_TOL,
    MAX_ITERATIONS,
    PIVOT_TOL,
    LinearProgram,
    LpSolution,
    _pivot,
    solve_lp,
)

from .oracles import lp_vertex_oracle, random_small_lp


def lp_max(objective, constraints):
    return LinearProgram("max", objective, constraints)


class TestSmallCases:
    def test_zero_objective(self):
        sol = solve_lp(lp_max([0.0], [((1.0,), "<=", 1.0)]))
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(0.0, abs=1e-9)

    def test_single_variable_bound(self):
        # max x s.t. x <= 3, x >= 0; the only active constraint is x = 3
        sol = solve_lp(lp_max([1.0], [((1.0,), "<=", 3.0)]))
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(3.0, abs=1e-9)
        assert sol.x[0] == pytest.approx(3.0, abs=1e-9)

    def test_contradictory_bounds_infeasible(self):
        sol = solve_lp(lp_max([1.0], [((1.0,), "<=", 1.0), ((1.0,), ">=", 2.0)]))
        assert sol.status == "infeasible"
        assert sol.objective is None and sol.x is None

    def test_unbounded(self):
        sol = solve_lp(lp_max([1.0], [((-1.0,), "<=", 0.0)]))
        assert sol.status == "unbounded"

    def test_equality_constraint(self):
        sol = solve_lp(lp_max([2.0, 1.0], [((1.0, 1.0), "=", 4.0), ((1.0, 0.0), "<=", 3.0)]))
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(7.0, abs=1e-8)
        assert sol.x == pytest.approx([3.0, 1.0], abs=1e-8)

    def test_minimization(self):
        sol = solve_lp(LinearProgram("min", [1.0, 1.0], [((1.0, 2.0), ">=", 4.0)]))
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(2.0, abs=1e-8)

    def test_no_constraints_zero_objective(self):
        sol = solve_lp(lp_max([0.0, 0.0], []))
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(0.0)

    def test_beale_degenerate_terminates(self):
        # Classic cycling-prone LP; Bland's rule must terminate at the optimum.
        constraints = [
            ((0.25, -60.0, -1 / 25, 9.0), "<=", 0.0),
            ((0.5, -90.0, -1 / 50, 3.0), "<=", 0.0),
            ((0.0, 0.0, 1.0, 0.0), "<=", 1.0),
        ]
        objective = [-0.75, 150.0, -0.02, 6.0]
        sol = solve_lp(LinearProgram("min", objective, constraints))
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-0.05, abs=1e-9)


def _pivot_by_rows(T, z, basis, row, col):
    """Row-at-a-time reference for ``_pivot``."""
    T[row] /= T[row, col]
    for i in range(T.shape[0]):
        if i != row and T[i, col] != 0.0:
            T[i] -= T[i, col] * T[row]
    if z[col] != 0.0:
        z -= z[col] * T[row]
    basis[row] = col


class TestPivot:
    @pytest.mark.parametrize("seed", range(5))
    def test_rank_one_update_matches_row_loop(self, seed):
        rng = np.random.default_rng(seed)
        T = rng.normal(size=(6, 9))
        T[rng.random(T.shape) < 0.3] = 0.0
        row, col = 2, 4
        T[row, col] = 1.7
        z = rng.normal(size=9)
        got = (T.copy(), z.copy(), np.arange(6))
        want = (T.copy(), z.copy(), np.arange(6))
        _pivot(*got, row, col)
        _pivot_by_rows(*want, row, col)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


def _simplex_reference(T, z, basis, iters):
    """Element-indexed reference for ``_simplex``'s Bland steps."""
    n_cols = T.shape[1] - 1
    while True:
        improvable = np.flatnonzero(z[:n_cols] < -FEASIBILITY_TOL)
        if improvable.size == 0:
            return "optimal", iters
        entering = int(improvable[0])
        leaving = -1
        best = np.inf
        for i in range(T.shape[0]):
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
        _pivot_by_rows(T, z, basis, leaving, entering)
        iters += 1
        if iters > MAX_ITERATIONS:
            raise InvariantViolationError("simplex iteration limit exceeded")


class TestSimplexLoop:
    def test_same_pivots_and_solution_as_reference(self, monkeypatch):
        rng = np.random.default_rng(17)
        programs = [LinearProgram(*random_small_lp(rng)) for _ in range(150)]
        # Envelopment-shaped programs: many columns, tied ratios.
        for _ in range(10):
            n = int(rng.integers(5, 40))
            X = rng.integers(1, 6, size=(n, 2)).astype(float)
            Y = rng.integers(1, 6, size=(n, 2)).astype(float)
            rows = [(np.r_[0.0, X[:, i]], "<=", X[0, i]) for i in range(2)]
            rows += [(np.r_[-Y[0, r], Y[:, r]], ">=", 0.0) for r in range(2)]
            rows.append((np.r_[0.0, np.ones(n)], "=", 1.0))
            programs.append(LinearProgram("max", np.r_[1.0, np.zeros(n)], rows))
        got = [solve_lp(p) for p in programs]
        monkeypatch.setattr(lp_module, "_simplex", _simplex_reference)
        want = [solve_lp(p) for p in programs]
        for a, b in zip(got, want):
            assert (a.status, a.objective, a.iterations) == (
                b.status, b.objective, b.iterations)
            assert (a.x is None and b.x is None) or np.array_equal(a.x, b.x)


class TestStructuralValidation:
    GOOD = ((1.0, 1.0), "<=", 4.0)

    @pytest.mark.parametrize("row, rel, rhs, message", [
        ((1.0, 2.0, 3.0), "<=", 1.0, "constraint 1 has 3 coefficients, expected 2"),
        ((1.0,), "<=", 1.0, "constraint 1 has 1 coefficients, expected 2"),
        ((1.0, 2.0), "<", 1.0, "constraint 1: unknown relation '<'"),
        ((1.0, float("nan")), "<=", 1.0, "constraint 1 contains non-finite values"),
        ((1.0, 2.0), "=", float("nan"), "constraint 1 contains non-finite values"),
    ], ids=["long", "short", "relation", "nan-row", "nan-rhs"])
    @pytest.mark.parametrize("as_row", [tuple, np.array], ids=["tuple", "array"])
    def test_bad_row_message(self, row, rel, rhs, message, as_row):
        good_row, good_rel, good_rhs = self.GOOD
        constraints = [(as_row(good_row), good_rel, good_rhs),
                       (as_row(row), rel, rhs)]
        with pytest.raises(StructuralError, match=f"^{re.escape(message)}$"):
            LinearProgram("max", [1.0, 1.0], constraints)

    @pytest.mark.parametrize("as_row", [tuple, np.array], ids=["tuple", "array"])
    def test_first_bad_row_is_reported(self, as_row):
        constraints = [(as_row((float("nan"), 1.0)), "<=", 1.0),
                       (as_row((1.0,)), "<=", 1.0)]
        with pytest.raises(StructuralError, match="^constraint 0 contains"):
            LinearProgram("max", [1.0, 1.0], constraints)

    def test_array_rows_equal_tuple_rows(self):
        rows = [((1.0, 2.0), "<=", 6.0), ((2.0, 1.0), ">=", 1.0)]
        a = LinearProgram("max", [1.0, 1.0], rows)
        b = LinearProgram("max", np.ones(2),
                          zip(np.array([r for r, _, _ in rows]),
                              [rel for _, rel, _ in rows],
                              np.array([rhs for _, _, rhs in rows])))
        assert np.array_equal(a.A, b.A) and np.array_equal(a.b, b.b)
        assert a.relations == b.relations == ("<=", ">=")
        assert not a.A.flags.writeable

    def test_dimension_mismatch(self):
        with pytest.raises(StructuralError):
            LinearProgram("max", [1.0, 2.0], [((1.0,), "<=", 1.0)])

    def test_non_finite_objective(self):
        with pytest.raises(StructuralError):
            LinearProgram("max", [float("nan")], [])

    def test_non_finite_rhs(self):
        with pytest.raises(StructuralError):
            LinearProgram("max", [1.0], [((1.0,), "<=", float("inf"))])

    def test_bad_relation(self):
        with pytest.raises(StructuralError):
            LinearProgram("max", [1.0], [((1.0,), "<", 1.0)])

    def test_bad_sense(self):
        with pytest.raises(StructuralError):
            LinearProgram("maximize", [1.0], [])

    def test_empty_objective(self):
        with pytest.raises(StructuralError):
            LinearProgram("max", [], [])


class TestProperties:
    def test_deterministic_resolve(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            sense, objective, constraints = random_small_lp(rng)
            lp = LinearProgram(sense, objective, constraints)
            a, b = solve_lp(lp), solve_lp(lp)
            assert a.status == b.status
            assert a.iterations == b.iterations
            if a.status == "optimal":
                assert a.objective == b.objective
                assert np.array_equal(a.x, b.x)

    def test_optimal_solutions_satisfy_constraints(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 40:
            sense, objective, constraints = random_small_lp(rng)
            sol = solve_lp(LinearProgram(sense, objective, constraints))
            if sol.status != "optimal":
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
        base = solve_lp(lp_max([1.0, 1.0], constraints))
        scaled = solve_lp(lp_max([k, k], constraints))
        assert base.status == scaled.status == "optimal"
        assert scaled.objective == pytest.approx(k * base.objective, rel=1e-9)

    def test_matches_vertex_enumeration_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(150):
            sense, objective, constraints = random_small_lp(rng)
            sol = solve_lp(LinearProgram(sense, objective, constraints))
            status, value = lp_vertex_oracle(sense, objective, constraints)
            assert sol.status == status, (sense, objective, constraints)
            if status == "optimal":
                assert sol.objective == pytest.approx(value, abs=1e-6), (
                    sense,
                    objective,
                    constraints,
                )
