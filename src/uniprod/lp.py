"""Dense two-phase primal simplex solver.

Solves

    max / min  c^T x
    s.t.       a_i^T x  (<=, =, >=)  b_i      for each constraint row i
               x >= 0

The envelopment programs built on top of this are tiny (tens of variables,
a handful of rows), so a dense tableau with Bland's anti-cycling rule is
the right tool: deterministic pivot order, guaranteed termination, no
external solver dependency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolationError, StructuralError

MAXIMIZE = "max"
MINIMIZE = "min"

LE = "<="
EQ = "="
GE = ">="
_RELATIONS = (LE, EQ, GE)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# Standard double-precision simplex practice.
PIVOT_TOL = 1e-9
FEASIBILITY_TOL = 1e-6


@dataclass(frozen=True)
class LinearProgram:
    """Immutable problem statement.

    ``constraints`` is a sequence of ``(row, relation, rhs)`` triples with
    ``relation`` one of ``"<="``, ``"="``, ``">="``.  Every variable is
    non-negative.
    """

    sense: str
    objective: tuple[float, ...]
    constraints: tuple[tuple[tuple[float, ...], str, float], ...]

    def __init__(self, sense, objective, constraints):
        if sense not in (MAXIMIZE, MINIMIZE):
            raise StructuralError(f"sense must be 'max' or 'min', got {sense!r}")
        obj = tuple(float(v) for v in objective)
        if not obj:
            raise StructuralError("objective must have at least one coefficient")
        if not all(np.isfinite(obj)):
            raise StructuralError("objective coefficients must be finite")
        n = len(obj)
        rows = []
        for k, (row, rel, rhs) in enumerate(constraints):
            row = tuple(float(v) for v in row)
            if len(row) != n:
                raise StructuralError(
                    f"constraint {k} has {len(row)} coefficients, expected {n}"
                )
            if rel not in _RELATIONS:
                raise StructuralError(f"constraint {k}: unknown relation {rel!r}")
            rhs = float(rhs)
            if not all(np.isfinite(row)) or not np.isfinite(rhs):
                raise StructuralError(f"constraint {k} contains non-finite values")
            rows.append((row, rel, rhs))
        object.__setattr__(self, "sense", sense)
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "constraints", tuple(rows))

    @property
    def n_variables(self) -> int:
        return len(self.objective)


@dataclass(frozen=True)
class LpSolution:
    status: str
    objective: float | None
    x: np.ndarray | None
    iterations: int


def solve_lp(
    lp: LinearProgram,
    pivot_tol: float = PIVOT_TOL,
    tol: float = FEASIBILITY_TOL,
    max_iterations: int = 100_000,
) -> LpSolution:
    """Solve ``lp``, reporting optimal / infeasible / unbounded explicitly.

    Deterministic: Bland's rule picks the lowest-index entering column and
    breaks ratio-test ties by lowest basis variable index.
    """
    n = lp.n_variables
    A = np.array([row for row, _, _ in lp.constraints], dtype=float)
    rels = [rel for _, rel, _ in lp.constraints]
    b = np.array([rhs for _, _, rhs in lp.constraints], dtype=float)

    c = np.asarray(lp.objective, dtype=float)
    cmax = c if lp.sense == MAXIMIZE else -c

    status, x, iters = _two_phase(
        A.reshape(len(rels), n), rels, b, cmax, pivot_tol, tol, max_iterations,
    )
    if status != OPTIMAL:
        return LpSolution(status, None, None, iters)
    x = np.maximum(x, 0.0)
    return LpSolution(OPTIMAL, float(c @ x), x, iters)


def _two_phase(A, rels, b, cmax, pivot_tol, tol, max_iterations):
    m, n = A.shape
    A = A.copy()
    b = b.copy()
    rels = list(rels)
    for i in range(m):  # rhs must be non-negative for the starting basis
        if b[i] < 0:
            A[i] *= -1.0
            b[i] *= -1.0
            rels[i] = {LE: GE, GE: LE, EQ: EQ}[rels[i]]

    n_slack = sum(1 for r in rels if r == LE)
    n_surplus = sum(1 for r in rels if r == GE)
    n_art = sum(1 for r in rels if r in (GE, EQ))
    slack0, surplus0, art0 = n, n + n_slack, n + n_slack + n_surplus
    total = art0 + n_art

    T = np.zeros((m, total + 1))
    T[:, :n] = A
    T[:, -1] = b
    basis = np.empty(m, dtype=int)
    si = ti = ai = 0
    for i, rel in enumerate(rels):
        if rel == LE:
            T[i, slack0 + si] = 1.0
            basis[i] = slack0 + si
            si += 1
        elif rel == GE:
            T[i, surplus0 + ti] = -1.0
            T[i, art0 + ai] = 1.0
            basis[i] = art0 + ai
            ti += 1
            ai += 1
        else:
            T[i, art0 + ai] = 1.0
            basis[i] = art0 + ai
            ai += 1

    iters = 0

    if n_art:
        # Phase 1: maximize -(sum of artificials); z holds reduced costs.
        z = np.zeros(total + 1)
        for i in range(m):
            if basis[i] >= art0:
                z -= T[i]
        z[art0:total] += 1.0
        status, iters = _simplex(T, z, basis, pivot_tol, tol, max_iterations, iters)
        if status != OPTIMAL:
            raise InvariantViolationError(f"phase-1 simplex ended with {status}")
        if z[-1] < -tol:
            return INFEASIBLE, None, iters
        # Drive leftover artificials out of the basis; rows that cannot be
        # repaired are redundant and dropped.
        keep = np.ones(m, dtype=bool)
        for i in range(m):
            if basis[i] >= art0:
                piv = -1
                for j in range(art0):
                    if abs(T[i, j]) > pivot_tol:
                        piv = j
                        break
                if piv < 0:
                    keep[i] = False
                else:
                    _pivot(T, z, basis, i, piv)
        T = T[keep]
        basis = basis[keep]
        m = T.shape[0]

    # Phase 2 on the artificial-free columns.
    T2 = np.hstack([T[:, :art0], T[:, -1:]])
    cfull = np.zeros(art0)
    cfull[:n] = cmax
    z = -np.concatenate([cfull, [0.0]])
    for i in range(m):
        cb = cfull[basis[i]]
        if cb != 0.0:
            z += cb * T2[i]
    status, iters = _simplex(T2, z, basis, pivot_tol, tol, max_iterations, iters)
    if status != OPTIMAL:
        return status, None, iters

    x = np.zeros(art0)
    x[basis] = T2[:, -1]
    return OPTIMAL, x[:n], iters


def _simplex(T, z, basis, pivot_tol, tol, max_iterations, iters):
    n_cols = T.shape[1] - 1
    while True:
        improvable = np.flatnonzero(z[:n_cols] < -tol)
        if improvable.size == 0:
            return OPTIMAL, iters
        entering = int(improvable[0])  # Bland: lowest improvable index
        leaving = -1
        best = np.inf
        for i in range(T.shape[0]):
            a = T[i, entering]
            if a > pivot_tol:
                ratio = T[i, -1] / a
                if ratio < best - pivot_tol or (
                    ratio < best + pivot_tol
                    and (leaving < 0 or basis[i] < basis[leaving])
                ):
                    best = ratio
                    leaving = i
        if leaving < 0:
            return UNBOUNDED, iters
        _pivot(T, z, basis, leaving, entering)
        iters += 1
        if iters > max_iterations:
            raise InvariantViolationError("simplex iteration limit exceeded")


def _pivot(T, z, basis, row, col):
    T[row] /= T[row, col]
    # One rank-1 update; the pivot row's zero factor leaves it unchanged.
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    if z[col] != 0.0:
        z -= z[col] * T[row]
    basis[row] = col
