"""Envelopment rows are built once per (problem, regime) and each
expansion factor is memoized on its problem.  None of that may change a
bit of any result: everything here is compared for exact equality with
a reference that builds and solves one ``LinearProgram`` per LP."""

import math
from collections import Counter

import numpy as np
import pytest

from uniprod import dea
from uniprod.analysis import compare_rankings, rank, sensitivity_drop_input
from uniprod.dea import (
    CRS,
    NIRS,
    REGIMES,
    VRS,
    DeaProblem,
    DmuRecord,
    classify_rts,
    decompose,
    efficiency_score,
    scores,
)
from uniprod.lp import LinearProgram, solve_lp

from .oracles import random_dea_problem


def reference_phi(problem, dmu_index, regime):
    """One LP from scratch: scale, build the rows as lists, solve."""
    X = problem.input_matrix()
    Y = problem.output_matrix()
    x_scale = np.where(X.max(axis=0) > 0.0, X.max(axis=0), 1.0)
    y_scale = np.where(Y.max(axis=0) > 0.0, Y.max(axis=0), 1.0)
    X = X / x_scale
    Y = Y / y_scale
    n = problem.n_dmus
    x0 = X[dmu_index]
    y0 = Y[dmu_index]
    objective = [1.0] + [0.0] * n
    constraints = []
    for i in range(X.shape[1]):
        constraints.append(([0.0] + X[:, i].tolist(), "<=", float(x0[i])))
    for r in range(Y.shape[1]):
        constraints.append(([-float(y0[r])] + Y[:, r].tolist(), ">=", 0.0))
    if regime == VRS:
        constraints.append(([0.0] + [1.0] * n, "=", 1.0))
    elif regime == NIRS:
        constraints.append(([0.0] + [1.0] * n, "<=", 1.0))
    sol = solve_lp(LinearProgram("max", objective, constraints))
    assert sol.status == "optimal"
    return float(sol.x[0])


def reference_phis(problem):
    return {
        regime: [reference_phi(problem, k, regime) for k in range(problem.n_dmus)]
        for regime in REGIMES
    }


def reference_scores(phis, problem, regime):
    return {
        d.dmu_id: efficiency_score(dea._snap_phi(phis[regime][k]))
        for k, d in enumerate(problem.dmus)
    }


def reference_decompose(phis, problem):
    """The decomposition with all three LPs solved for every unit."""
    out = []
    for k, d in enumerate(problem.dmus):
        phi_v2 = max(dea._snap_phi(phis[VRS][k]), 1.0)
        phi_n2 = max(dea._snap_phi(phis[NIRS][k]), phi_v2)
        phi_c2 = max(dea._snap_phi(phis[CRS][k]), phi_n2)
        te, te_n, pte = (efficiency_score(p) for p in (phi_c2, phi_n2, phi_v2))
        out.append((d.dmu_id, phi_c2, phi_v2, phi_n2, te, pte, te / pte,
                    classify_rts(te, te_n, pte)))
    return out


def as_tuples(results):
    return [(r.dmu_id, r.phi_crs, r.phi_vrs, r.phi_nirs, r.te, r.pte, r.se,
             r.rts) for r in results]


def c03_problems():
    rng = np.random.default_rng(47)
    return [random_dea_problem(rng, n_dmus=int(rng.integers(3, 16)))
            for _ in range(50)]


def c04_problems():
    rng = np.random.default_rng(53)
    out = []
    for _ in range(3):
        problem = random_dea_problem(rng, n_dmus=8)
        out.append(problem)
        for factor in (0.01, 1000.0):
            out.append(DeaProblem(
                [DmuRecord(d.dmu_id, d.inputs,
                           (d.outputs[0] * factor,) + d.outputs[1:])
                 for d in problem.dmus],
                problem.input_labels, problem.output_labels))
    return out


def c05_problems():
    rng = np.random.default_rng(59)
    out = []
    for _ in range(15):
        raw = random_dea_problem(rng, n_dmus=int(rng.integers(4, 14)))
        out.append(DeaProblem(
            [DmuRecord(d.dmu_id, (max(1.0, d.inputs[0]),) + d.inputs[1:],
                       d.outputs) for d in raw.dmus],
            raw.input_labels, raw.output_labels))
    return out


def wide_problem(n_units=250, seed=7):
    """Units of lognormal size with concave outputs and a few planted
    frontier units, the shape of the benchmark's large-LP workload."""
    rng = np.random.default_rng(seed)
    frontier = set(rng.choice(n_units, size=6, replace=False).tolist())
    dmus = []
    for k in range(n_units):
        size = math.exp(rng.normal(0.0, 0.7)) * 20.0
        shares = rng.uniform(0.85, 1.15, size=3)
        staff = (size * shares / shares.sum()).tolist()
        funding = size * rng.uniform(10.0, 20.0)
        base = (0.5 * staff[0] + 0.35 * staff[1] + 0.15 * staff[2]) ** 0.85
        base *= (funding / size) ** 0.15
        eff = 1.0 if k in frontier else math.exp(-0.08 - abs(rng.normal(0.0, 0.3)))
        outputs = [base * eff * rng.uniform(0.93, 1.07) * s for s in (3.0, 1.2, 4.0)]
        dmus.append(DmuRecord(f"D{k:03d}", [round(v, 6) for v in staff + [funding]],
                              [round(v, 6) for v in outputs]))
    return DeaProblem(dmus, ("FP", "AP", "RF", "PR"), ("PU", "PC", "SS"))


def fresh(problem):
    """An equal problem with empty caches."""
    return DeaProblem(problem.dmus, problem.input_labels, problem.output_labels)


GENERATORS = {"c03": c03_problems, "c04": c04_problems, "c05": c05_problems}


@pytest.mark.parametrize("generator", sorted(GENERATORS))
def test_bit_equal_to_per_lp_reference(generator):
    for problem in GENERATORS[generator]():
        phis = reference_phis(problem)
        assert as_tuples(decompose(fresh(problem))) == reference_decompose(phis, problem)
        for regime in REGIMES:
            assert scores(fresh(problem), regime) == reference_scores(
                phis, problem, regime)


def test_wide_problem_bit_equal_to_per_lp_reference():
    problem = wide_problem()
    phis = reference_phis(problem)
    assert as_tuples(decompose(problem)) == reference_decompose(phis, problem)
    smaller = problem.drop_input("PR")
    before = reference_scores(phis, problem, VRS)
    after = {
        d.dmu_id: efficiency_score(dea._snap_phi(reference_phi(smaller, k, VRS)))
        for k, d in enumerate(smaller.dmus)
    }
    result = sensitivity_drop_input(problem, "PR")
    assert result.scores_before == before
    assert result.scores_after == after
    want = compare_rankings(rank(before), rank(after))
    assert result.comparison.deltas == want.deltas
    assert result.comparison.mean_delta == want.mean_delta


def test_decompose_does_not_depend_on_earlier_calls(monkeypatch):
    solve = dea.solve_output_oriented

    def wobbly(p, k, regime):
        # Sub-tolerance solver noise on every NIRS factor.
        phi, lambdas = solve(p, k, regime)
        return (phi * (1.0 + 1e-13) if regime == NIRS else phi), lambdas

    monkeypatch.setattr(dea, "solve_output_oriented", wobbly)
    for problem in c03_problems()[:20]:
        want = as_tuples(decompose(fresh(problem)))
        warm = fresh(problem)
        scores(warm, NIRS)
        assert as_tuples(decompose(warm)) == want


@pytest.mark.parametrize("problem", [c05_problems()[0], wide_problem(60, seed=3)],
                         ids=["c05", "wide60"])
def test_each_lp_solved_once(problem, monkeypatch):
    calls = Counter()
    solve = dea.solve_output_oriented

    def counting(p, k, regime):
        calls[(id(p), k, regime)] += 1
        return solve(p, k, regime)

    monkeypatch.setattr(dea, "solve_output_oriented", counting)
    results = decompose(problem)
    sensitivity_drop_input(problem, problem.input_labels[-1])
    # Reading the memo again solves nothing.
    scores(problem, CRS)
    decompose(problem)

    n = problem.n_dmus
    per_regime = Counter(regime for (pid, _, regime) in calls
                         if pid == id(problem))
    scale_inefficient = sum(1 for r in results if r.te != r.pte)
    assert per_regime == Counter({CRS: n, VRS: n, NIRS: scale_inefficient})
    after = [key for key in calls if key[0] != id(problem)]
    assert len(after) == n and all(regime == VRS for _, _, regime in after)
    assert max(calls.values()) == 1
