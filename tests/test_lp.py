import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uniprod.errors import StructuralError
from uniprod.lp import LinearProgram, LpSolution, _pivot, solve_lp

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


class TestStructuralValidation:
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
