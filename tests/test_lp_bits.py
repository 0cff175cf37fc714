"""The simplex keeps its objective row inside the tableau and pivots with
one buffered rank-1 product.  None of that may change a bit of any
envelopment LP's result: every LP the frontier models solve is compared
with the frozen reference simplex in ``oracles.py`` for the same status,
the same objective and x bits, and the same iteration count.  Each of
those LPs must also be of the one kind ``solve_lp`` is written for."""

import re

import numpy as np
import pytest

from uniprod import dea
from uniprod.config import RunConfig
from uniprod.errors import InvariantViolationError
from uniprod.ingest import ingest
from uniprod.lp import EQ, GE, LE, solve_lp
from uniprod.pipeline import run_pipeline
from uniprod.synthetic import write_synthetic_dataset

from .oracles import INFEASIBLE, lp_arrays, random_small_lp, reference_solve_lp
from .test_dea_memo import GENERATORS, fresh, wide_problem


def _bits(value):
    return None if value is None else np.asarray(value, dtype=float).tobytes()


def _assert_bit_equal(solved):
    assert solved
    for lp, got in solved:
        want = reference_solve_lp(*lp)
        assert (got.status, got.iterations) == (want.status, want.iterations)
        assert _bits(got.objective) == _bits(want.objective)
        assert _bits(got.x) == _bits(want.x)


def _assert_envelopment_bits(solved):
    """Every LP is also what ``solve_lp`` is written for: max phi (the
    objective is e_0) over right-hand sides b >= 0, with the <= rows of
    the inputs, the >= rows of the outputs and then no row (CRS), a =
    row (VRS) or a <= row (NIRS)."""
    letter = {LE: "l", GE: "g", EQ: "e"}
    for (objective, _, relations, b), _ in solved:
        assert np.all(b >= 0.0)
        assert objective[0] == 1.0 and not objective[1:].any()
        assert re.fullmatch("l+g+[el]?", "".join(map(letter.get, relations)))
    _assert_bit_equal(solved)


@pytest.fixture
def captured(monkeypatch):
    """Every (``solve_lp`` arguments, LpSolution) that ``dea`` solves."""
    solved = []
    solve = dea.solve_lp

    def recording(*lp):
        solution = solve(*lp)
        solved.append((lp, solution))
        return solution

    monkeypatch.setattr(dea, "solve_lp", recording)
    return solved


@pytest.mark.parametrize("generator", sorted(GENERATORS))
def test_random_problems(generator, captured):
    for problem in GENERATORS[generator]():
        dea.decompose(fresh(problem))
    _assert_envelopment_bits(captured)


def test_wide_problem(captured):
    dea.decompose(wide_problem())
    _assert_envelopment_bits(captured)


@pytest.mark.parametrize("seed", [7, 90001])
def test_paper_shaped_corpus(seed, captured, tmp_path):
    data_dir = write_synthetic_dataset(tmp_path, seed=seed, n_areas=9,
                                       n_universities=60)
    config = RunConfig(drop_inputs=("PR",), compare_partial=True)
    report = run_pipeline(ingest(data_dir), config)
    assert len(report.areas_analyzed) == 9
    _assert_envelopment_bits(captured)


def test_random_small_programs():
    """Small LPs reach what envelopment LPs never do: infeasible and
    unbounded ends.  An infeasible one raises where the reference
    reports it."""
    rng = np.random.default_rng(5)
    programs = [lp_arrays(*random_small_lp(rng)) for _ in range(400)]
    solved = []
    for lp in programs:
        if reference_solve_lp(*lp).status == INFEASIBLE:
            with pytest.raises(InvariantViolationError):
                solve_lp(*lp)
        else:
            solved.append((lp, solve_lp(*lp)))
    assert len(solved) < len(programs)
    assert {got.status for _, got in solved} == {"optimal", "unbounded"}
    _assert_bit_equal(solved)
