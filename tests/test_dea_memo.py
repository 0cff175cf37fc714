"""Envelopment rows are built once per (problem, regime) and each
expansion factor is memoized on its problem, with its LP's row duals.
None of that may change a bit of ``decompose`` or ``scores``: they are
compared for exact equality with a reference that builds each LP's rows
from scratch as lists and solves them.

``decompose`` reads what it can from the CRS LPs.  A unit whose CRS
factor snaps to 1 takes phi_vrs = 1 without a VRS LP, and files its CRS
duals with a zero convexity dual as its VRS duals.  A scale-inefficient
unit takes phi_vrs as its NIRS factor where its VRS LP's convexity dual
is >= 0.0, else phi_crs where its CRS LP's intensities sum to at most
1.0; only where neither rule answers (a factor that ``drop_input``
seeded, with neither on record) is its NIRS LP solved.  The reference
applies the same rules, read from its own LPs.  On the C03-C05
generators and the wide problem, ``decompose`` is bit-equal to it, and
to the decomposition with all three LPs solved for every unit in every
field but phi_nirs, except phi_crs, te and se where the NIRS LP's phi
exceeds the CRS LP's by rounding.  There and on every paper-scale area,
every phi_nirs is within 1e-9 of its NIRS LP's, and every
returns-to-scale class is the all-LP one.

``drop_input`` reuses the full model's factor wherever its LP's dual on
the dropped row is exactly 0.0.  A reused factor is bit-equal to the
full model's, a re-solved one to the per-LP reference on the smaller
problem, and every after-score agrees with a from-scratch re-solve
within 1e-9."""

import dataclasses
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
    RTS_DECREASING,
    RTS_INCREASING,
    RTS_TOL,
    VRS,
    DeaProblem,
    DmuRecord,
    classify_rts,
    decompose,
    efficiency_score,
    is_efficient,
    scores,
)
from uniprod.lp import GE, solve_lp

from .oracles import lp_arrays, random_dea_problem


def reference_solution(problem, dmu_index, regime):
    """One LP from scratch: scale, build the rows as lists, solve."""
    X = np.array([d.inputs for d in problem.dmus], dtype=float)
    Y = np.array([d.outputs for d in problem.dmus], dtype=float)
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
    sol = solve_lp(*lp_arrays(objective, constraints))
    assert sol.status == "optimal"
    return sol


def reference_phi(problem, dmu_index, regime):
    return float(reference_solution(problem, dmu_index, regime).x[0])


def crs_efficient(problem, k):
    """Whether ``decompose`` files phi_vrs = 1 for unit ``k`` without a
    VRS LP: its CRS factor snaps to 1."""
    return dea._snap_phi(reference_phi(problem, k, CRS)) == 1.0


def vrs_duals(problem, k):
    """The VRS duals that ``decompose`` files for unit ``k``: its CRS
    LP's duals and a zero convexity dual where the unit is CRS-efficient,
    its VRS LP's duals elsewhere."""
    if crs_efficient(problem, k):
        return np.append(reference_solution(problem, k, CRS).duals, 0.0)
    return reference_solution(problem, k, VRS).duals


def binding(problem, label):
    """Units whose VRS duals after ``decompose`` are nonzero on
    ``label``'s row: the only ones that ``drop_input(label)``
    re-solves."""
    row = problem.input_labels.index(label)
    return {k for k in range(problem.n_dmus)
            if vrs_duals(problem, k)[row] != 0.0}


#: ``reference_phis`` key of the NIRS factor that ``decompose`` reads
CERTIFIED = "nirs, certified"


def reference_phis(problem):
    """phi per regime and unit, each LP solved from scratch, and under
    ``CERTIFIED`` the NIRS factor that ``decompose`` reads: phi_vrs where
    the VRS LP's convexity dual is >= 0.0, else phi_crs where the CRS
    LP's intensities sum to at most 1.0, else the NIRS LP's phi."""
    solutions = {
        regime: [reference_solution(problem, k, regime)
                 for k in range(problem.n_dmus)]
        for regime in REGIMES
    }
    phis = {regime: [float(sol.x[0]) for sol in sols]
            for regime, sols in solutions.items()}
    phis[CERTIFIED] = [
        phis[VRS][k] if vrs.duals[-1] >= 0.0
        else phis[CRS][k] if crs.x[1:].sum() <= 1.0
        else phis[NIRS][k]
        for k, (crs, vrs) in enumerate(zip(solutions[CRS], solutions[VRS]))
    ]
    return phis


def reference_scores(phis, problem, regime):
    return {
        d.dmu_id: efficiency_score(dea._snap_phi(phis[regime][k]))
        for k, d in enumerate(problem.dmus)
    }


def reference_decompose(phis, problem, nirs=CERTIFIED):
    """The decomposition from ``phis[nirs]`` as NIRS factors; with
    ``nirs=NIRS``, every unit's NIRS LP solved."""
    out = []
    for k, d in enumerate(problem.dmus):
        phi_v2 = max(dea._snap_phi(phis[VRS][k]), 1.0)
        phi_n2 = max(dea._snap_phi(phis[nirs][k]), phi_v2)
        phi_c2 = max(dea._snap_phi(phis[CRS][k]), phi_n2)
        te, te_n, pte = (efficiency_score(p) for p in (phi_c2, phi_n2, phi_v2))
        out.append((d.dmu_id, phi_c2, phi_v2, phi_n2, te, pte, te / pte,
                    classify_rts(te, te_n, pte)))
    return out


def as_tuples(results):
    return [(r.dmu_id, r.phi_crs, r.phi_vrs, r.phi_nirs, r.te, r.pte, r.se,
             r.rts) for r in results]


def assert_near_all_lp(problem, results):
    """Every returns-to-scale class in ``decompose``'s results is the one
    from solving all three LPs for every unit, and every factor and score
    is within 1e-9 of that decomposition's.  Returns the reference phis."""
    phis = reference_phis(problem)
    got = as_tuples(results)
    want = reference_decompose(phis, problem, NIRS)
    assert [row[-1] for row in got] == [row[-1] for row in want]
    for row, ref in zip(got, want):
        assert row[1:-1] == pytest.approx(ref[1:-1], abs=1e-9), row[0]
    return phis


def assert_all_lp_bits(phis, problem, results):
    """``decompose``'s results are bit-equal to the all-LP decomposition
    in every field but phi_nirs, except phi_crs, te and se where the NIRS
    LP's phi lifts phi_crs."""
    all_lp = reference_decompose(phis, problem, NIRS)
    for row, ref, phi_c in zip(as_tuples(results), all_lp, phis[CRS]):
        # Where the NIRS LP's phi exceeds the CRS LP's by rounding, the
        # all-LP decomposition lifts phi_crs to it, and te and se with
        # it; ``decompose`` takes phi_nirs = phi_crs there without that
        # LP.  Fields: id, phi_crs, phi_vrs, phi_nirs, te, pte, se, rts.
        lifted = ref[1] > max(dea._snap_phi(phi_c), ref[2])
        fields = (0, 2, 5, 7) if lifted else (0, 1, 2, 4, 5, 6, 7)
        assert [row[i] for i in fields] == [ref[i] for i in fields], row[0]


def assert_bit_equal_references(problem, results):
    """As ``assert_near_all_lp`` and ``assert_all_lp_bits``, and
    bit-equal to the certified reference."""
    phis = assert_near_all_lp(problem, results)
    assert as_tuples(results) == reference_decompose(phis, problem)
    assert_all_lp_bits(phis, problem, results)
    return phis


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


def planted_problem():
    """Five units on one output.  B and C are CRS-efficient; A and D lie
    below the small-scale end of the VRS frontier (increasing returns),
    E beyond its large-scale end (decreasing).  D has ten times the
    others' PR, so its PR row is slack in every one of its LPs."""
    return DeaProblem(
        (
            DmuRecord("A", (1.0, 10.0), (1.0,)),
            DmuRecord("B", (2.0, 10.0), (4.0,)),
            DmuRecord("C", (4.0, 10.0), (6.0,)),
            DmuRecord("D", (1.5, 100.0), (1.0,)),
            DmuRecord("E", (5.0, 10.0), (5.0,)),
        ),
        ("STAFF", "PR"),
        ("PU",),
    )


def recording_solves(monkeypatch):
    """Patch ``solve_output_oriented`` to record each solve as (problem,
    dmu id, regime); returns the record."""
    solved = []
    solve = dea.solve_output_oriented

    def recording(p, k, regime):
        solved.append((p, p.dmus[k].dmu_id, regime))
        return solve(p, k, regime)

    monkeypatch.setattr(dea, "solve_output_oriented", recording)
    return solved


def fresh(problem):
    """An equal problem with empty caches."""
    return DeaProblem(problem.dmus, problem.input_labels, problem.output_labels)


GENERATORS = {"c03": c03_problems, "c04": c04_problems, "c05": c05_problems}


@pytest.mark.parametrize("generator", sorted(GENERATORS))
def test_bit_equal_to_per_lp_reference(generator):
    for problem in GENERATORS[generator]():
        phis = assert_bit_equal_references(problem, decompose(fresh(problem)))
        for regime in REGIMES:
            assert scores(fresh(problem), regime) == reference_scores(
                phis, problem, regime)


def test_wide_problem_bit_equal_to_per_lp_reference():
    """Each after-score is bit-equal to the score it comes from: the
    per-LP re-solve on the smaller problem for a unit whose PR row binds,
    the full model's score for every other unit."""
    problem = wide_problem()
    phis = assert_bit_equal_references(problem, decompose(problem))
    smaller = fresh(problem).drop_input("PR")
    before = reference_scores(phis, problem, VRS)
    resolved = binding(problem, "PR")
    assert 0 < len(resolved) < problem.n_dmus
    after = {
        d.dmu_id: (
            efficiency_score(dea._snap_phi(reference_phi(smaller, k, VRS)))
            if k in resolved else before[d.dmu_id])
        for k, d in enumerate(smaller.dmus)
    }
    result = sensitivity_drop_input(problem, "PR")
    assert scores(problem, VRS) == before
    assert result.scores_after == after
    want = compare_rankings(rank(before), rank(after))
    assert result.comparison.deltas == want.deltas
    assert result.comparison.mean_delta == want.mean_delta


@pytest.mark.parametrize("earlier", [VRS, NIRS])
def test_decompose_does_not_depend_on_earlier_calls(earlier, monkeypatch):
    """After ``scores(problem, VRS)`` every CRS-efficient unit has a
    solved phi_vrs in place of the filed 1.0, and after ``scores(problem,
    NIRS)`` every unit has a NIRS factor: neither moves a bit of the
    decomposition."""
    solve = dea.solve_lp

    def wobbly(objective, A, relations, b):
        # Sub-tolerance solver noise on every VRS and NIRS factor: only
        # a CRS LP ends on an output's >= row.
        sol = solve(objective, A, relations, b)
        if relations[-1] == GE:
            return sol
        x = sol.x.copy()
        x[0] *= 1.0 + 1e-13
        return dataclasses.replace(sol, x=x)

    monkeypatch.setattr(dea, "solve_lp", wobbly)
    for problem in c03_problems()[:20] + [planted_problem()]:
        want = as_tuples(decompose(fresh(problem)))
        warm = fresh(problem)
        scores(warm, earlier)
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
    vrs_solved = {k for (pid, k, regime) in calls
                  if pid == id(problem) and regime == VRS}
    # VRS only where the unit is not CRS-efficient.
    efficient = {k for k in range(n) if crs_efficient(problem, k)}
    assert 0 < len(efficient) < n
    assert vrs_solved == set(range(n)) - efficient
    # NIRS only where the unit is scale-inefficient (``classify_rts``'s
    # test), its VRS LP's convexity dual is negative and its CRS LP's
    # intensities sum to more than 1.0.
    signalled = [
        k for k, r in enumerate(results)
        if abs(r.te - r.pte) > RTS_TOL
        and reference_solution(problem, k, VRS).duals[-1] < 0.0]
    assert signalled
    fallback = sum(1 for k in signalled
                   if reference_solution(problem, k, CRS).x[1:].sum() > 1.0)
    assert per_regime == Counter({CRS: n, VRS: n - len(efficient),
                                  NIRS: fallback})
    # The smaller problem solves only the units whose dropped row binds.
    after = [key for key in calls if key[0] != id(problem)]
    assert all(regime == VRS for _, _, regime in after)
    assert {k for _, k, _ in after} == binding(problem, problem.input_labels[-1])
    assert max(calls.values()) == 1


@pytest.mark.parametrize("seed", [7, 90001])
def test_certified_nirs_paper_areas(seed, tmp_path, monkeypatch):
    """Every area of the paper-scale corpus, as the pipeline built it:
    no NIRS LP is solved, each phi_nirs is within 1e-9 of its NIRS LP's,
    and every other field is bit-equal to the all-LP decomposition's
    (``assert_all_lp_bits``).  phi_nirs bits are not compared: a unit
    whose CRS and VRS scores are within RTS_TOL is classed constant and
    takes phi_nirs = phi_vrs without a NIRS LP."""
    from uniprod import pipeline
    from uniprod.config import RunConfig
    from uniprod.ingest import ingest
    from uniprod.synthetic import write_synthetic_dataset

    problems = []
    run = pipeline.decompose

    def recording(problem):
        problems.append(problem)
        return run(problem)

    monkeypatch.setattr(pipeline, "decompose", recording)
    data_dir = write_synthetic_dataset(tmp_path, seed=seed, n_areas=9,
                                       n_universities=60)
    pipeline.run_pipeline(ingest(data_dir), RunConfig())
    assert len(problems) == 9
    solved = increasing = 0
    for problem in problems:
        copy = fresh(problem)
        results = decompose(copy)
        phis = assert_near_all_lp(problem, results)
        assert_all_lp_bits(phis, problem, results)
        solved += len(copy._solved[NIRS])
        for r, phi_n in zip(results, phis[NIRS]):
            assert abs(r.phi_nirs - phi_n) <= 1e-9, r.dmu_id
        increasing += sum(1 for r in results if r.rts == RTS_INCREASING)
    # The VRS convexity dual and the CRS intensity sum answer every NIRS
    # LP, increasing returns included.
    assert solved == 0
    assert increasing > 0


def test_increasing_returns_unit_takes_crs_factor(monkeypatch):
    """D lies below the steep small-scale segment A-B of the VRS
    frontier, so its VRS convexity dual is negative, but its CRS optimum
    (0.75 of B) has intensities summing to less than 1: it takes
    phi_nirs = phi_crs = 3 without a NIRS LP and is classed increasing.
    E, beyond the largest unit C, is answered by its VRS LP and classed
    decreasing (phi_nirs = phi_vrs = 1.2)."""
    problem = DeaProblem(
        (
            DmuRecord("A", (1.0,), (1.0,)),
            DmuRecord("B", (2.0,), (4.0,)),
            DmuRecord("C", (4.0,), (6.0,)),
            DmuRecord("D", (1.5,), (1.0,)),
            DmuRecord("E", (5.0,), (5.0,)),
        ),
        ("STAFF",),
        ("PU",),
    )
    assert reference_solution(problem, 3, VRS).duals[-1] < 0.0
    assert reference_solution(problem, 3, CRS).x[1:].sum() <= 1.0
    assert reference_solution(problem, 4, VRS).duals[-1] >= 0.0
    solved = recording_solves(monkeypatch)
    results = {r.dmu_id: r for r in decompose(problem)}
    assert [u for _, u, regime in solved if regime == NIRS] == []
    d, e = results["D"], results["E"]
    assert d.phi_nirs == d.phi_crs
    assert (d.phi_crs, d.phi_nirs, d.phi_vrs) == pytest.approx((3.0, 3.0, 2.5))
    assert d.rts == RTS_INCREASING
    assert (e.phi_crs, e.phi_nirs, e.phi_vrs) == pytest.approx((2.0, 1.2, 1.2))
    assert e.rts == RTS_DECREASING


def test_crs_efficient_unit_files_its_crs_duals(monkeypatch):
    """B and C are CRS-efficient: ``decompose`` solves no VRS LP for
    them and files their CRS duals, with a zero convexity dual, as their
    VRS duals.  C's CRS dual on STAFF is 0.0, so dropping STAFF keeps
    C's phi_vrs = 1 without a solve; B's is not, so B is re-solved."""
    problem = planted_problem()
    solved = recording_solves(monkeypatch)
    results = decompose(problem)
    assert [r.dmu_id for r in results if r.phi_crs == 1.0] == ["B", "C"]
    assert [u for p, u, regime in solved if regime == VRS] == ["A", "D", "E"]
    crs, vrs = problem._solved[CRS], problem._solved[VRS]
    for k in (1, 2):
        assert vrs[k].phi == 1.0
        assert vrs[k].duals.tolist() == crs[k].duals.tolist() + [0.0]
    assert crs[2].duals[0] == 0.0 != crs[1].duals[0]

    del solved[:]
    result = sensitivity_drop_input(problem, "STAFF")
    assert [u for p, u, _ in solved if p is problem] == []
    resolved = [u for p, u, _ in solved]
    assert "B" in resolved and "C" not in resolved
    assert result.scores_after["C"] == 1.0
    _assert_matches_fresh_resolve(problem, "STAFF")


@pytest.mark.parametrize("gap", [5e-4, 1e-7])
def test_nearly_efficient_unit_solves_vrs(gap, monkeypatch):
    """F sits just below B, the most productive unit, so its CRS factor
    is 1 + gap, outside the snap tolerance: its VRS LP is solved, and
    phi_vrs is that factor too, not 1."""
    problem = DeaProblem(
        (
            DmuRecord("A", (1.0,), (1.0,)),
            DmuRecord("B", (2.0,), (4.0,)),
            DmuRecord("C", (4.0,), (6.0,)),
            DmuRecord("F", (2.0,), (4.0 / (1.0 + gap),)),
        ),
        ("STAFF",),
        ("PU",),
    )
    solved = recording_solves(monkeypatch)
    results = decompose(problem)
    assert [u for _, u, regime in solved if regime == VRS] == ["A", "C", "F"]
    f = results[3]
    assert f.phi_vrs == pytest.approx(1.0 + gap, abs=1e-12)
    assert f.phi_vrs > 1.0 + dea.PHI_SNAP_TOL
    assert_bit_equal_references(problem, results)


def test_seeded_factor_reaches_nirs_fallback(monkeypatch):
    """``drop_input("PR")`` seeds D's CRS and VRS factors, which come
    with no duals and no intensity sum, so neither the convexity-dual
    sign nor the intensity sum answers D's NIRS factor: its NIRS LP is
    solved, and the decomposition is the all-LP one."""
    problem = planted_problem()
    decompose(problem)
    smaller = problem.drop_input("PR")
    assert smaller._solved[CRS][3].duals is None
    assert smaller._solved[VRS][3].duals is None
    solved = recording_solves(monkeypatch)
    results = decompose(smaller)
    assert (smaller, "D", NIRS) in solved
    assert results[3].rts == RTS_INCREASING
    assert_near_all_lp(smaller, results)


@pytest.mark.parametrize("problem", [c05_problems()[2], wide_problem(60, seed=3)],
                         ids=["c05", "wide60"])
def test_decompose_after_drop_input(problem):
    """A smaller problem's factors seeded by ``drop_input`` have no VRS
    duals on record, so their NIRS LPs are solved: the decomposition
    matches that of a smaller problem built from scratch."""
    decompose(problem)
    for label in problem.input_labels:
        got = decompose(problem.drop_input(label))
        want = decompose(fresh(problem).drop_input(label))
        assert [r.rts for r in got] == [r.rts for r in want]
        for a, b in zip(got, want):
            assert (a.te, a.pte, a.se) == pytest.approx((b.te, b.pte, b.se),
                                                        abs=1e-9)


def _assert_matches_fresh_resolve(problem, label):
    """The sensitivity run against a re-solve of every unit on a fresh
    smaller problem, one whose memo nothing seeded."""
    result = sensitivity_drop_input(problem, label)
    scratch = scores(fresh(problem).drop_input(label), VRS)
    assert result.scores_after.keys() == scratch.keys()
    for unit, score in scratch.items():
        assert abs(result.scores_after[unit] - score) <= 1e-9, unit
    before = scores(problem, VRS)
    assert rank(result.scores_after) == rank(scratch)
    assert result.comparison.deltas == compare_rankings(
        rank(before), rank(scratch)).deltas
    lost = sum(1 for unit, s in before.items()
               if is_efficient(s) and not is_efficient(scratch[unit]))
    assert result.comparison.no_longer_efficient == lost


@pytest.mark.parametrize("make", [c05_problems, lambda: [wide_problem()]],
                         ids=["c05", "wide"])
def test_skip_agrees_with_fresh_resolve(make):
    for problem in make():
        decompose(problem)
        for label in problem.input_labels:
            _assert_matches_fresh_resolve(problem, label)


@pytest.mark.parametrize("seed", [7, 90001])
def test_skip_agrees_with_fresh_resolve_paper_areas(seed, tmp_path, monkeypatch):
    """Every area of the paper-scale corpus, memo as the pipeline left it."""
    from uniprod import pipeline
    from uniprod.config import RunConfig
    from uniprod.ingest import ingest
    from uniprod.synthetic import write_synthetic_dataset

    problems = []
    run = pipeline.sensitivity_drop_input

    def recording(problem, label):
        problems.append((problem, label))
        return run(problem, label)

    monkeypatch.setattr(pipeline, "sensitivity_drop_input", recording)
    data_dir = write_synthetic_dataset(tmp_path, seed=seed, n_areas=9,
                                       n_universities=60,
                                       pubs_per_staff_year=0.6)
    pipeline.run_pipeline(ingest(data_dir),
                          RunConfig(drop_inputs=("PR",), compare_partial=True))
    assert len(problems) == 9
    for problem, label in problems:
        _assert_matches_fresh_resolve(problem, label)


def test_binding_input_is_resolved(monkeypatch):
    """E reaches the frontier only through its low funding, so its PR row
    binds: the smaller problem must re-solve it."""
    problem = DeaProblem(
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
    solved = []
    solve = dea.solve_output_oriented

    def recording(p, k, regime):
        if p is not problem:
            solved.append(p.dmus[k].dmu_id)
        return solve(p, k, regime)

    monkeypatch.setattr(dea, "solve_output_oriented", recording)
    result = sensitivity_drop_input(problem, "PR")
    assert "E" in solved
    assert scores(problem, VRS)["E"] == 1.0
    assert result.scores_after["E"] == pytest.approx(0.375, abs=1e-9)
    assert result.comparison.no_longer_efficient == 1


@pytest.mark.parametrize("problem", [c05_problems()[1], wide_problem(60, seed=3)],
                         ids=["c05", "wide60"])
def test_sensitivity_does_not_depend_on_earlier_calls(problem):
    label = problem.input_labels[-1]
    want = sensitivity_drop_input(fresh(problem), label)
    after_decompose = fresh(problem)
    decompose(after_decompose)
    after_nirs = fresh(problem)
    scores(after_nirs, NIRS)
    assert sensitivity_drop_input(after_decompose, label) == want
    assert sensitivity_drop_input(after_nirs, label) == want
