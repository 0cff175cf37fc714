"""Dense two-phase primal simplex solver, internal to ``dea``.

Solves

    max   c^T x
    s.t.  a_i^T x  (<=, =, >=)  b_i      for each constraint row i
          x >= 0

with every b_i >= 0, over a program known to be feasible: the
output-oriented envelopment LPs of ``dea``, each feasible at its own unit.

The envelopment programs built on top of this have a handful of rows (one
per input and output, plus the convexity row) and one column per unit
plus phi: about 30 columns for a paper-scale area, 251 for a 250-unit
frontier.  A dense tableau with Bland's anti-cycling rule is the right
tool for that shape: deterministic pivot order, guaranteed termination,
no external solver dependency.

A program arrives as plain arrays, not as a checked object: its only
caller is ``dea``, which hands in the rows of a ``DeaProblem`` whose
values were validated when the problem was built.

Tableau layout: row i < m holds constraint i, and the last row m holds
the reduced costs z of the current phase's objective.  The columns are
the n structural variables, then one slack per ``<=`` row, one surplus
per ``>=`` row, one artificial per ``>=`` or ``=`` row, and last the
right-hand side.  Each row starts with a unit column basic: its slack,
or its artificial.  ``solve_lp`` runs both phases on this one tableau;
phase 2 bars every artificial from entering the basis, since
``_simplex`` prices only the columns below its entering bound.  Each
pivot is one rank-1 update of the whole tableau, z included, and every
column is updated on its own, so a column that may not enter changes no
bit of the others.

Row i's dual is the final reduced cost at the column it started basic
in, read with no further arithmetic on the tableau: a ``<=`` row's
slack, or the artificial of a ``=`` or ``>=`` row, which acts as a slack
that may not leave zero (a ``>=`` row's artificial column stays minus
its surplus column).  A slack that is basic at the end reads exactly
0.0, because each pivot computes ``z[col] - z[col] * 1.0``.  No dual is
NaN.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolationError

LE = "<="
EQ = "="
GE = ">="

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"

# Standard double-precision simplex practice.
PIVOT_TOL = 1e-9
FEASIBILITY_TOL = 1e-6
#: safety limit on the pivots of one solve; reaching it means a solver bug
MAX_ITERATIONS = 100_000


@dataclass(frozen=True)
class LpSolution:
    """``x`` and ``duals`` (one finite dual per constraint row, in the
    problem's order) are None unless the status is optimal.  At an
    optimum, the sum of b_i * duals_i equals the objective up to
    rounding."""

    status: str
    objective: float | None
    x: np.ndarray | None
    iterations: int
    duals: np.ndarray | None = None


def solve_lp(objective, A, relations, b) -> LpSolution:
    """Maximize ``objective @ x`` subject to ``A[i] @ x  relations[i]
    b[i]`` for each row and ``x >= 0``: optimal or unbounded.

    ``objective``, ``A`` (shape ``(m, n)``) and ``b >= 0`` are finite
    float arrays, read and never written.  They are not checked here.
    A phase 1 that finds the program infeasible, or a row redundant,
    raises ``InvariantViolationError``.

    Deterministic: Bland's rule picks the lowest-index entering column and
    breaks ratio-test ties by lowest basis variable index.
    """
    m, n = A.shape
    n_slack = relations.count(LE)
    n_surplus = relations.count(GE)
    n_art = m - n_slack
    slack0, surplus0, art0 = n, n + n_slack, n + n_slack + n_surplus
    total = art0 + n_art

    T = np.zeros((m + 1, total + 1))
    T[:m, :n] = A
    T[:m, -1] = b
    basis = []
    si = ti = ai = 0
    for i, rel in enumerate(relations):
        if rel == LE:
            basis.append(slack0 + si)
            si += 1
        else:
            if rel == GE:
                T[i, surplus0 + ti] = -1.0
                ti += 1
            basis.append(art0 + ai)
            ai += 1
        T[i, basis[i]] = 1.0
    starting_basis = list(basis)  # row i's dual is z there

    iters = 0

    if n_art:
        # Phase 1: maximize -(sum of artificials).
        z = T[m]
        for i in range(m):
            if basis[i] >= art0:
                z -= T[i]
        z[art0:total] += 1.0
        status, iters = _simplex(T, basis, iters, total)
        if status != OPTIMAL or T[m, -1] < -FEASIBILITY_TOL:
            raise InvariantViolationError(
                f"phase 1 ended {status} at {T[m, -1]}: not a feasible program")
        # Drive leftover artificials, at zero, out of the basis.
        stuck = [i for i in range(m) if basis[i] >= art0]
        if stuck:
            buf = np.empty_like(T)
            for i in stuck:
                candidates = (np.abs(T[i, :art0]) > PIVOT_TOL).nonzero()[0]
                if not candidates.size:
                    raise InvariantViolationError(
                        f"row {i} is redundant: the rows lack full rank")
                _pivot(T, basis, i, int(candidates[0]), buf)

    z = T[m]
    z[:] = 0.0
    z[:n] = -objective
    costs = objective.tolist()
    for i, j in enumerate(basis):
        if j < n and costs[j] != 0.0:
            z += costs[j] * T[i]
    status, iters = _simplex(T, basis, iters, art0)
    if status != OPTIMAL:
        return LpSolution(status, None, None, iters)

    x = np.zeros(art0)
    x[basis] = T[:m, -1]
    x = np.maximum(x[:n], 0.0)
    return LpSolution(OPTIMAL, float(objective @ x), x, iters,
                      T[m, starting_basis])


def _simplex(T, basis, iters, n_enter):
    """Bland's steps until optimal or unbounded; only columns below
    ``n_enter`` may enter the basis."""
    m = T.shape[0] - 1
    z = T[m, :n_enter]
    rhs_column = T[:m, -1]
    buf = np.empty_like(T)
    while True:
        improvable = z < -FEASIBILITY_TOL
        entering = int(improvable.argmax())  # Bland: lowest improvable index
        if not improvable[entering]:
            return OPTIMAL, iters
        # The ratio test's tie-break is sequential, so it runs over plain
        # floats: the tableau has only a handful of rows.
        column = T[:m, entering].tolist()
        rhs = rhs_column.tolist()
        leaving = -1
        best = np.inf
        for i, a in enumerate(column):
            if a > PIVOT_TOL:
                ratio = rhs[i] / a
                if ratio < best - PIVOT_TOL or (
                    ratio < best + PIVOT_TOL
                    and (leaving < 0 or basis[i] < basis[leaving])
                ):
                    best = ratio
                    leaving = i
        if leaving < 0:
            return UNBOUNDED, iters
        _pivot(T, basis, leaving, entering, buf)
        iters += 1
        if iters > MAX_ITERATIONS:
            raise InvariantViolationError("simplex iteration limit exceeded")


def _pivot(T, basis, row, col, buf):
    """Pivot on ``T[row, col]``, objective row included.

    ``buf`` is scratch of ``T``'s shape for the rank-1 product.  The
    product of a column by a row (``np.dot`` with an inner dimension of
    one) rounds each element once, as an elementwise multiply does; only
    the sign of a zero product may differ, and no comparison and no
    nonzero entry depends on that.  The product's pivot row is zeroed, so
    the update leaves the pivot row as divided.
    """
    prow = T[row]
    prow /= prow[col]
    np.dot(T[:, col, None], prow[None, :], out=buf)
    buf[row] = 0.0
    T -= buf
    basis[row] = col
