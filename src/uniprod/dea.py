"""Output-oriented radial envelopment models and their decomposition.

For DMU 0 with inputs x0 and outputs y0, the expansion factor phi is the
optimum of

    max  phi
    s.t. sum_j lambda_j * x_ij <= x_i0        for each input i
         sum_j lambda_j * y_rj >= phi * y_r0  for each output r
         lambda >= 0
         sum_j lambda_j  = 1   under variable returns to scale
         sum_j lambda_j <= 1   under non-increasing returns to scale
         (unconstrained under constant returns to scale)

Scores are reciprocals: technical efficiency 1/phi_crs, pure technical
efficiency 1/phi_vrs, scale efficiency their ratio.  Comparing the
constant-returns score with the non-increasing-returns score separates
increasing from decreasing returns for scale-inefficient units.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateDmuError,
    InvariantViolationError,
    StructuralError,
)
from .lp import EQ, GE, LE, MAXIMIZE, OPTIMAL, UNBOUNDED, LinearProgram, solve_lp

CRS = "crs"
VRS = "vrs"
NIRS = "nirs"
REGIMES = (CRS, VRS, NIRS)

RTS_CONSTANT = "constant"
RTS_INCREASING = "increasing"
RTS_DECREASING = "decreasing"

#: a DMU counts as efficient when its score reaches 1 - EFFICIENCY_EPS
EFFICIENCY_EPS = 1e-6
RTS_TOL = 1e-6
PHI_SNAP_TOL = 1e-9


@dataclass(frozen=True)
class DmuRecord:
    """One decision-making unit: non-negative input and output vectors."""

    dmu_id: str
    inputs: tuple[float, ...]
    outputs: tuple[float, ...]

    def __init__(self, dmu_id, inputs, outputs):
        xin = tuple(float(v) for v in inputs)
        yout = tuple(float(v) for v in outputs)
        for name, vec in (("inputs", xin), ("outputs", yout)):
            if not vec:
                raise StructuralError(f"{dmu_id}: empty {name} vector")
            if not all(np.isfinite(vec)):
                raise StructuralError(f"{dmu_id}: non-finite {name}")
            if any(v < 0 for v in vec):
                raise StructuralError(f"{dmu_id}: negative {name}")
        object.__setattr__(self, "dmu_id", str(dmu_id))
        object.__setattr__(self, "inputs", xin)
        object.__setattr__(self, "outputs", yout)


@dataclass(frozen=True)
class DeaProblem:
    """An ordered set of comparable DMUs with labelled dimensions.

    Every DMU must have at least one strictly positive output; all-zero
    output vectors make the radial expansion unbounded and are rejected
    here (callers exclude and report them beforehand).

    The problem is immutable, so it caches what its LPs share: the
    envelopment rows of each regime, built once, and each solved
    expansion factor, so that no (unit, regime) LP is solved twice.
    """

    dmus: tuple[DmuRecord, ...]
    input_labels: tuple[str, ...]
    output_labels: tuple[str, ...]

    def __init__(self, dmus, input_labels, output_labels):
        dmus = tuple(dmus)
        input_labels = tuple(str(s) for s in input_labels)
        output_labels = tuple(str(s) for s in output_labels)
        if not dmus:
            raise StructuralError("a DEA problem needs at least one DMU")
        if not input_labels or not output_labels:
            raise StructuralError("input and output labels must be non-empty")
        for d in dmus:
            if len(d.inputs) != len(input_labels):
                raise StructuralError(
                    f"{d.dmu_id}: {len(d.inputs)} inputs, expected {len(input_labels)}"
                )
            if len(d.outputs) != len(output_labels):
                raise StructuralError(
                    f"{d.dmu_id}: {len(d.outputs)} outputs, expected {len(output_labels)}"
                )
            if all(v == 0 for v in d.outputs):
                raise DegenerateDmuError(
                    f"{d.dmu_id}: all outputs are zero; radial expansion undefined"
                )
        ids = [d.dmu_id for d in dmus]
        if len(set(ids)) != len(ids):
            raise StructuralError("duplicate dmu ids")
        object.__setattr__(self, "dmus", dmus)
        object.__setattr__(self, "input_labels", input_labels)
        object.__setattr__(self, "output_labels", output_labels)

    @property
    def n_dmus(self) -> int:
        return len(self.dmus)

    def input_matrix(self) -> np.ndarray:
        return np.array([d.inputs for d in self.dmus], dtype=float)

    def output_matrix(self) -> np.ndarray:
        return np.array([d.outputs for d in self.dmus], dtype=float)

    def drop_input(self, label: str) -> "DeaProblem":
        if label not in self.input_labels:
            raise StructuralError(f"unknown input label {label!r}")
        if len(self.input_labels) < 2:
            raise StructuralError("cannot drop the only input dimension")
        keep = [i for i, lab in enumerate(self.input_labels) if lab != label]
        dmus = [
            DmuRecord(d.dmu_id, [d.inputs[i] for i in keep], d.outputs)
            for d in self.dmus
        ]
        return DeaProblem(dmus, [self.input_labels[i] for i in keep], self.output_labels)

    @cached_property
    def _scaled(self) -> tuple[np.ndarray, np.ndarray]:
        """X and Y with every column divided by its maximum.

        Each constraint is scaled by a positive constant, so phi and the
        intensities are untouched, but the simplex then works on O(1)
        magnitudes and the scores stay invariant to the measurement
        units of any single input or output.
        """
        X = self.input_matrix()
        Y = self.output_matrix()
        x_scale = np.where(X.max(axis=0) > 0.0, X.max(axis=0), 1.0)
        y_scale = np.where(Y.max(axis=0) > 0.0, Y.max(axis=0), 1.0)
        return X / x_scale, Y / y_scale

    @cached_property
    def _rows_memo(self) -> dict[str, tuple]:
        """Regime -> (A, relations, b), filled by ``_envelopment_rows``."""
        return {}

    @cached_property
    def _phi_memo(self) -> dict[str, dict[int, float]]:
        """Regime -> {unit index: solved phi}, filled by ``_phis``."""
        return {regime: {} for regime in REGIMES}


@dataclass(frozen=True)
class EfficiencyResult:
    dmu_id: str
    phi_crs: float
    phi_vrs: float
    phi_nirs: float
    te: float
    pte: float
    se: float
    rts: str


def _envelopment_rows(problem: DeaProblem, regime: str) -> tuple:
    """The regime's constraint rows over [phi, lambda_1 .. lambda_n],
    shared by every unit's LP: a unit only sets the phi column of the
    output rows to -y_k and the input right-hand sides to x_k."""
    rows = problem._rows_memo.get(regime)
    if rows is None:
        X, Y = problem._scaled
        n_in, n_out = X.shape[1], Y.shape[1]
        m = n_in + n_out + (regime != CRS)
        A = np.zeros((m, problem.n_dmus + 1))
        A[:n_in, 1:] = X.T
        A[n_in:n_in + n_out, 1:] = Y.T
        A[n_in + n_out:, 1:] = 1.0
        relations = [LE] * n_in + [GE] * n_out
        if regime == VRS:
            relations.append(EQ)
        elif regime == NIRS:
            relations.append(LE)
        b = np.zeros(m)
        b[n_in + n_out:] = 1.0
        A.flags.writeable = b.flags.writeable = False
        rows = problem._rows_memo[regime] = (A, relations, b)
    return rows


def solve_output_oriented(
    problem: DeaProblem, dmu_index: int, regime: str
) -> tuple[float, np.ndarray]:
    """Radial expansion factor and intensity vector for one DMU."""
    if regime not in REGIMES:
        raise StructuralError(f"unknown regime {regime!r}")
    if not 0 <= dmu_index < problem.n_dmus:
        raise StructuralError(f"dmu index {dmu_index} out of range")

    shared, relations, shared_b = _envelopment_rows(problem, regime)
    X, Y = problem._scaled
    n_in, n_out = X.shape[1], Y.shape[1]
    A = shared.copy()
    A[n_in:n_in + n_out, 0] = -Y[dmu_index]
    b = shared_b.copy()
    b[:n_in] = X[dmu_index]
    objective = np.zeros(problem.n_dmus + 1)
    objective[0] = 1.0

    sol = solve_lp(LinearProgram(MAXIMIZE, objective, zip(A, relations, b)))
    if sol.status == UNBOUNDED:
        raise DegenerateDmuError(
            f"{problem.dmus[dmu_index].dmu_id}: unbounded expansion "
            "(degenerate output vector)"
        )
    if sol.status != OPTIMAL:
        # the DMU itself (lambda = e_dmu, phi = 1) is always feasible
        raise InvariantViolationError(
            f"{problem.dmus[dmu_index].dmu_id}: {regime} model reported "
            f"{sol.status}, which cannot happen for a well-posed problem"
        )
    return float(sol.x[0]), sol.x[1:].copy()


def _phis(problem: DeaProblem, regime: str, units=None) -> dict[int, float]:
    """Solved phi per unit index (all units by default), each (unit,
    regime) LP solved at most once per problem."""
    if regime not in REGIMES:
        raise StructuralError(f"unknown regime {regime!r}")
    memo = problem._phi_memo[regime]
    for k in range(problem.n_dmus) if units is None else units:
        if k not in memo:
            memo[k] = solve_output_oriented(problem, k, regime)[0]
    return memo


def efficiency_score(phi: float) -> float:
    """Reciprocal-of-expansion score in (0, 1]."""
    if phi < 1.0 - RTS_TOL:
        raise InvariantViolationError(
            f"expansion factor {phi} < 1; the DMU is feasible for its own "
            "constraints so this cannot happen"
        )
    return 1.0 / max(phi, 1.0)


def _snap_phi(phi: float) -> float:
    """Collapse sub-tolerance wobble around 1 so that frontier units get
    exactly equal scores (rank ties at the frontier must be exact)."""
    if abs(phi - 1.0) <= PHI_SNAP_TOL:
        return 1.0
    return phi


def scores(problem: DeaProblem, regime: str) -> dict[str, float]:
    """Efficiency score per dmu id under one regime."""
    phi = _phis(problem, regime)
    return {
        dmu.dmu_id: efficiency_score(_snap_phi(phi[k]))
        for k, dmu in enumerate(problem.dmus)
    }


def decompose(problem: DeaProblem) -> list[EfficiencyResult]:
    """Full three-model decomposition for every DMU in the problem.

    NIRS is solved only for scale-inefficient units.  Where the CRS and
    VRS factors agree, the NIRS region, which lies between the two,
    gives the same factor.
    """
    phi_crs = _phis(problem, CRS)
    phi_vrs = _phis(problem, VRS)
    scale_inefficient = [
        k for k in range(problem.n_dmus)
        if max(_snap_phi(phi_crs[k]), 1.0) > max(_snap_phi(phi_vrs[k]), 1.0)
    ]
    # Only these units' NIRS factors are read, even when an earlier
    # ``scores(problem, NIRS)`` memoized the rest, so the result does not
    # depend on what ran before.
    solved = _phis(problem, NIRS, scale_inefficient)
    phi_nirs = {k: solved[k] for k in scale_inefficient}
    results = []
    for k, dmu in enumerate(problem.dmus):
        phi_c = phi_crs[k]
        phi_v = phi_vrs[k]
        phi_n = phi_nirs.get(k, phi_v)

        # The feasible regions nest (VRS within NIRS within CRS), so each
        # later factor bounds the earlier one from below.  Snap sub-tolerance
        # solver wobble onto that ordering; larger gaps mean a solver bug.
        phi_v2 = max(_snap_phi(phi_v), 1.0)
        phi_n2 = max(_snap_phi(phi_n), phi_v2)
        phi_c2 = max(_snap_phi(phi_c), phi_n2)
        if (phi_v2 - phi_v > RTS_TOL or phi_n2 - phi_n > RTS_TOL
                or phi_c2 - phi_c > RTS_TOL):
            raise InvariantViolationError(
                f"{dmu.dmu_id}: expansion factors out of order beyond tolerance "
                f"(crs={phi_c}, nirs={phi_n}, vrs={phi_v})"
            )

        te = efficiency_score(phi_c2)
        te_nirs = efficiency_score(phi_n2)
        pte = efficiency_score(phi_v2)
        se = te / pte
        rts = classify_rts(te, te_nirs, pte)
        results.append(
            EfficiencyResult(
                dmu_id=dmu.dmu_id,
                phi_crs=phi_c2,
                phi_vrs=phi_v2,
                phi_nirs=phi_n2,
                te=te,
                pte=pte,
                se=se,
                rts=rts,
            )
        )
    return results


def classify_rts(te_crs: float, te_nirs: float, te_vrs: float) -> str:
    """Returns-to-scale class from the three per-regime scores.

    Scale-efficient units are constant; otherwise the non-increasing-returns
    score coincides with the constant-returns score in the increasing region
    and with the variable-returns score in the decreasing region.
    """
    for name, s in (("crs", te_crs), ("nirs", te_nirs), ("vrs", te_vrs)):
        if not 0.0 < s <= 1.0 + RTS_TOL:
            raise InvariantViolationError(f"{name} score {s} outside (0, 1]")
    if te_crs > te_nirs + RTS_TOL or te_nirs > te_vrs + RTS_TOL:
        raise InvariantViolationError(
            f"score ordering violated: crs={te_crs}, nirs={te_nirs}, vrs={te_vrs}"
        )
    if abs(te_crs - te_vrs) <= RTS_TOL:
        return RTS_CONSTANT
    if abs(te_nirs - te_crs) <= RTS_TOL:
        return RTS_INCREASING
    if abs(te_nirs - te_vrs) <= RTS_TOL:
        return RTS_DECREASING
    raise InvariantViolationError(
        "nirs score matches neither the crs nor the vrs score: "
        f"crs={te_crs}, nirs={te_nirs}, vrs={te_vrs}"
    )
