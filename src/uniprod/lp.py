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
#: safety limit on the pivots of one solve; reaching it means a solver bug
MAX_ITERATIONS = 100_000


def _float_array(values) -> np.ndarray:
    """A float copy of an array or of any other iterable of numbers."""
    return np.array(values if isinstance(values, np.ndarray) else tuple(values),
                    dtype=float)


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """Immutable problem statement.

    ``constraints`` is a sequence of ``(row, relation, rhs)`` triples with
    ``relation`` one of ``"<="``, ``"="``, ``">="``; rows may be numpy
    arrays.  Every variable is non-negative.  The rows are kept as one
    ``(m, n)`` array ``A`` with ``relations`` and right-hand sides ``b``.
    """

    sense: str
    objective: np.ndarray
    A: np.ndarray
    relations: tuple[str, ...]
    b: np.ndarray

    def __init__(self, sense, objective, constraints):
        if sense not in (MAXIMIZE, MINIMIZE):
            raise StructuralError(f"sense must be 'max' or 'min', got {sense!r}")
        obj = _float_array(objective)
        if not obj.size:
            raise StructuralError("objective must have at least one coefficient")
        if not np.isfinite(obj).all():
            raise StructuralError("objective coefficients must be finite")
        n = obj.size
        rows, rels, rhs = [], [], []
        bad = None  # first row with a wrong length or an unknown relation
        for k, (row, rel, r) in enumerate(constraints):
            row = _float_array(row)
            if row.shape != (n,):
                bad = f"constraint {k} has {row.size} coefficients, expected {n}"
                break
            if rel not in _RELATIONS:
                bad = f"constraint {k}: unknown relation {rel!r}"
                break
            rows.append(row)
            rels.append(rel)
            rhs.append(float(r))
        A = np.array(rows, dtype=float).reshape(len(rows), n)
        b = np.array(rhs, dtype=float)
        # Rows are checked in order: a non-finite row before the first
        # malformed one is the error reported.
        finite = np.isfinite(A).all(axis=1) & np.isfinite(b)
        if not finite.all():
            k = int(np.argmin(finite))
            raise StructuralError(f"constraint {k} contains non-finite values")
        if bad is not None:
            raise StructuralError(bad)
        for array in (obj, A, b):
            array.flags.writeable = False
        object.__setattr__(self, "sense", sense)
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "relations", tuple(rels))
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class LpSolution:
    status: str
    objective: float | None
    x: np.ndarray | None
    iterations: int


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve ``lp``, reporting optimal / infeasible / unbounded explicitly.

    Deterministic: Bland's rule picks the lowest-index entering column and
    breaks ratio-test ties by lowest basis variable index.
    """
    c = lp.objective
    cmax = c if lp.sense == MAXIMIZE else -c

    status, x, iters = _two_phase(lp.A, lp.relations, lp.b, cmax)
    if status != OPTIMAL:
        return LpSolution(status, None, None, iters)
    x = np.maximum(x, 0.0)
    return LpSolution(OPTIMAL, float(c @ x), x, iters)


def _two_phase(A, rels, b, cmax):
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
        status, iters = _simplex(T, z, basis, iters)
        if status != OPTIMAL:
            raise InvariantViolationError(f"phase-1 simplex ended with {status}")
        if z[-1] < -FEASIBILITY_TOL:
            return INFEASIBLE, None, iters
        # Drive leftover artificials out of the basis; rows that cannot be
        # repaired are redundant and dropped.
        keep = np.ones(m, dtype=bool)
        for i in range(m):
            if basis[i] >= art0:
                piv = -1
                for j in range(art0):
                    if abs(T[i, j]) > PIVOT_TOL:
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
    status, iters = _simplex(T2, z, basis, iters)
    if status != OPTIMAL:
        return status, None, iters

    x = np.zeros(art0)
    x[basis] = T2[:, -1]
    return OPTIMAL, x[:n], iters


def _simplex(T, z, basis, iters):
    n_cols = T.shape[1] - 1
    while True:
        improvable = (z[:n_cols] < -FEASIBILITY_TOL).nonzero()[0]
        if improvable.size == 0:
            return OPTIMAL, iters
        entering = int(improvable[0])  # Bland: lowest improvable index
        # The ratio test's tie-break is sequential, so it runs over plain
        # floats: the tableau has only a handful of rows.
        column = T[:, entering].tolist()
        rhs = T[:, -1].tolist()
        labels = basis.tolist()
        leaving = -1
        best = np.inf
        for i, a in enumerate(column):
            if a > PIVOT_TOL:
                ratio = rhs[i] / a
                if ratio < best - PIVOT_TOL or (
                    ratio < best + PIVOT_TOL
                    and (leaving < 0 or labels[i] < labels[leaving])
                ):
                    best = ratio
                    leaving = i
        if leaving < 0:
            return UNBOUNDED, iters
        _pivot(T, z, basis, leaving, entering)
        iters += 1
        if iters > MAX_ITERATIONS:
            raise InvariantViolationError("simplex iteration limit exceeded")


def _pivot(T, z, basis, row, col):
    T[row] /= T[row, col]
    # One rank-1 update; the pivot row's zero factor leaves it unchanged.
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= factors[:, None] * T[row]
    if z[col] != 0.0:
        z -= z[col] * T[row]
    basis[row] = col
