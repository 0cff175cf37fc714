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

``decompose`` solves every CRS LP and reads what it can from them.  A
CRS-efficient unit is VRS-efficient, so it takes phi_vrs = 1 without a
VRS LP (Banker, Charnes and Cooper 1984).  A scale-inefficient unit
whose VRS convexity dual is >= 0 takes phi_nirs = phi_vrs, and one whose
CRS optimum has sum lambda <= 1 takes phi_nirs = phi_crs (Banker and
Thrall 1992).  The NIRS LP is solved only where neither rule answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateDmuError,
    InvariantViolationError,
    StructuralError,
)
from .lp import EQ, GE, LE, UNBOUNDED, solve_lp

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


class _Solved(NamedTuple):
    """What a (unit, regime) LP leaves on its problem once solved: its
    expansion factor, its row duals (inputs, outputs, then the convexity
    row) and, for CRS, the sum of its optimum's intensities.  ``duals``
    is None for a factor that ``drop_input`` seeded, and ``lambda_sum``
    for any LP but a solved CRS one.  Nothing else of a solution is
    kept: a dense intensity vector per LP would cost n floats each."""

    phi: float
    duals: np.ndarray | None
    lambda_sum: float | None = None


@dataclass(frozen=True)
class DeaProblem:
    """An ordered set of comparable DMUs with labelled dimensions.

    Every DMU must have at least one strictly positive output; all-zero
    output vectors make the radial expansion unbounded and are rejected
    here (callers exclude and report them beforehand).

    The problem is immutable, so it caches what its LPs share: the
    envelopment rows of each regime, built once, and one ``_Solved``
    record per (regime, unit) LP, so that no LP is solved twice.  The
    records also answer LPs that need no solve: ``drop_input`` seeds the
    smaller problem's, and ``decompose`` reads its VRS and NIRS factors
    from the CRS and VRS ones where it can.
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
        for name, labels in (("dmu ids", [d.dmu_id for d in dmus]),
                             ("input labels", input_labels),
                             ("output labels", output_labels)):
            if len(set(labels)) != len(labels):
                raise StructuralError(f"duplicate {name}")
        object.__setattr__(self, "dmus", dmus)
        object.__setattr__(self, "input_labels", input_labels)
        object.__setattr__(self, "output_labels", output_labels)

    @property
    def n_dmus(self) -> int:
        return len(self.dmus)

    def drop_input(self, label: str) -> "DeaProblem":
        """The problem without one input column, its records seeded from
        this one's.

        Column scaling is per column, so each smaller LP is this
        problem's LP without the dropped input's row.  Where an LP solved
        here has a dual of exactly 0.0 on that row, its optimum stays
        feasible without the row, and so does its dual solution, with
        the same objective: phi cannot move.  The smaller problem takes
        that phi bit for bit and solves only the other units' LPs.
        """
        if label not in self.input_labels:
            raise StructuralError(f"unknown input label {label!r}")
        if len(self.input_labels) < 2:
            raise StructuralError("cannot drop the only input dimension")
        row = self.input_labels.index(label)
        keep = [i for i in range(len(self.input_labels)) if i != row]
        dmus = [
            DmuRecord(d.dmu_id, [d.inputs[i] for i in keep], d.outputs)
            for d in self.dmus
        ]
        smaller = DeaProblem(
            dmus, [self.input_labels[i] for i in keep], self.output_labels)
        for regime, records in self._solved.items():
            seeded = smaller._solved[regime]
            for k, rec in records.items():
                if rec.duals is not None and rec.duals[row] == 0.0:
                    seeded[k] = _Solved(rec.phi, None)
        return smaller

    @cached_property
    def _scaled(self) -> tuple[np.ndarray, np.ndarray]:
        """X and Y with every column divided by its maximum.

        Each constraint is scaled by a positive constant, so phi and the
        intensities are untouched, but the simplex then works on O(1)
        magnitudes and the scores stay invariant to the measurement
        units of any single input or output.
        """
        X = np.array([d.inputs for d in self.dmus], dtype=float)
        Y = np.array([d.outputs for d in self.dmus], dtype=float)
        x_scale = np.where(X.max(axis=0) > 0.0, X.max(axis=0), 1.0)
        y_scale = np.where(Y.max(axis=0) > 0.0, Y.max(axis=0), 1.0)
        return X / x_scale, Y / y_scale

    @cached_property
    def _rows_memo(self) -> dict[str, tuple]:
        """Regime -> (objective, A, relations, b), filled by
        ``_envelopment_rows``."""
        return {}

    @cached_property
    def _solved(self) -> dict[str, dict[int, _Solved]]:
        """Regime -> {unit index: record}, filed by
        ``solve_output_oriented``, seeded by ``drop_input``, and for VRS
        also filed by ``decompose``'s CRS-efficiency rule."""
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
    """The regime's objective and constraint rows over [phi, lambda_1 ..
    lambda_n], shared by every unit's LP: a unit only sets the phi column
    of the output rows to -y_k and the input right-hand sides to x_k.

    ``_phis`` and ``solve_output_oriented`` both pass through here
    before they touch a record, so this is where an unknown regime is
    rejected."""
    if regime not in REGIMES:
        raise StructuralError(f"unknown regime {regime!r}")
    rows = problem._rows_memo.get(regime)
    if rows is None:
        X, Y = problem._scaled
        n_in, n_out = X.shape[1], Y.shape[1]
        m = n_in + n_out + (regime != CRS)
        objective = np.zeros(problem.n_dmus + 1)
        objective[0] = 1.0
        A = np.zeros((m, problem.n_dmus + 1))
        A[:n_in, 1:] = X.T
        A[n_in:n_in + n_out, 1:] = Y.T
        A[n_in + n_out:, 1:] = 1.0
        relations = (LE,) * n_in + (GE,) * n_out + {
            CRS: (), VRS: (EQ,), NIRS: (LE,)}[regime]
        b = np.zeros(m)
        b[n_in + n_out:] = 1.0
        objective.flags.writeable = A.flags.writeable = b.flags.writeable = False
        rows = problem._rows_memo[regime] = (objective, A, relations, b)
    return rows


def solve_output_oriented(
    problem: DeaProblem, dmu_index: int, regime: str
) -> tuple[float, np.ndarray]:
    """Radial expansion factor and intensity vector for one DMU, filed
    with the LP's row duals as the problem's record of the LP."""
    objective, shared, relations, shared_b = _envelopment_rows(problem, regime)
    X, Y = problem._scaled
    n_in, n_out = X.shape[1], Y.shape[1]
    A = shared.copy()
    A[n_in:n_in + n_out, 0] = -Y[dmu_index]
    b = shared_b.copy()
    b[:n_in] = X[dmu_index]

    sol = solve_lp(objective, A, relations, b)
    if sol.status == UNBOUNDED:
        raise DegenerateDmuError(
            f"{problem.dmus[dmu_index].dmu_id}: unbounded expansion "
            "(degenerate output vector)"
        )
    phi = float(sol.x[0])
    lambdas = sol.x[1:].copy()
    problem._solved[regime][dmu_index] = _Solved(
        phi, sol.duals, float(lambdas.sum()) if regime == CRS else None)
    return phi, lambdas


def _phis(problem: DeaProblem, regime: str, units=None) -> dict[int, _Solved]:
    """The regime's records, once every unit in ``units`` (all units by
    default) has one: each (unit, regime) LP is solved at most once per
    problem."""
    _envelopment_rows(problem, regime)  # rejects an unknown regime
    solved = problem._solved[regime]
    for k in range(problem.n_dmus) if units is None else units:
        if k not in solved:
            solve_output_oriented(problem, k, regime)
    return solved


def efficiency_score(phi: float) -> float:
    """Reciprocal-of-expansion score in (0, 1]."""
    if phi < 1.0 - RTS_TOL:
        raise InvariantViolationError(
            f"expansion factor {phi} < 1; the DMU is feasible for its own "
            "constraints so this cannot happen"
        )
    return 1.0 / max(phi, 1.0)


def is_efficient(score: float) -> bool:
    """Whether a score places its DMU on the frontier."""
    return score >= 1.0 - EFFICIENCY_EPS


def _snap_phi(phi: float) -> float:
    """Collapse sub-tolerance wobble around 1 so that frontier units get
    exactly equal scores (rank ties at the frontier must be exact)."""
    if abs(phi - 1.0) <= PHI_SNAP_TOL:
        return 1.0
    return phi


def scores(problem: DeaProblem, regime: str) -> dict[str, float]:
    """Efficiency score per dmu id under one regime."""
    solved = _phis(problem, regime)
    return {
        dmu.dmu_id: efficiency_score(_snap_phi(solved[k].phi))
        for k, dmu in enumerate(problem.dmus)
    }


def decompose(problem: DeaProblem) -> list[EfficiencyResult]:
    """Full three-model decomposition for every DMU in the problem.

    Every CRS LP is solved; the VRS and NIRS LPs only where the CRS and
    VRS solutions do not answer them.

    VRS: the VRS region lies inside the CRS region and holds the unit
    itself, so 1 <= phi_vrs <= phi_crs, and a unit whose CRS factor
    snaps to 1 takes phi_vrs = 1 (Banker, Charnes and Cooper).  Its CRS
    duals with a zero dual appended for the convexity row are feasible
    for the VRS dual with objective 1, so they are filed as its VRS
    duals, for ``drop_input`` to seed from.  A phi_vrs already solved,
    by ``scores(problem, VRS)``, stays with its duals.

    NIRS is decided in the loop that builds the results, on the scores
    it reports.  A unit whose CRS and VRS scores differ by at most
    ``RTS_TOL`` (``classify_rts``'s constant test) is classed constant
    whatever NIRS reads and takes phi_nirs = phi_vrs; where its CRS and
    VRS factors agree, the NIRS region, which lies between the two,
    gives that factor.  For the other units, two rules (Banker and
    Thrall), in this order:

    - The NIRS LP is the VRS LP with sum lambda <= 1 in place of = 1,
      and its slack column is the VRS convexity row's artificial column.
      So the final VRS tableau is a feasible NIRS tableau at the same
      basis, and where that column's reduced cost, the convexity dual,
      is >= 0.0 no column improves it: phi_nirs = phi_vrs bit for bit.
    - A CRS optimum whose intensities sum to at most 1.0 is feasible for
      NIRS, whose region lies inside the CRS region: phi_nirs = phi_crs.

    NIRS is solved, after every CRS and VRS LP and in unit order, where
    neither rule answers: an alternative CRS optimum with sum lambda > 1,
    or a factor that ``drop_input`` seeded, which has no duals or
    intensity sum on record.  Only those units' NIRS records are read,
    and no answered factor is filed as one, so the result does not
    depend on what ran before.
    """
    crs = _phis(problem, CRS)
    filed = problem._solved[VRS]
    for k in range(problem.n_dmus):
        if _snap_phi(crs[k].phi) == 1.0 and k not in filed:
            y = crs[k].duals
            filed[k] = _Solved(1.0, None if y is None else np.append(y, 0.0))
    vrs = _phis(problem, VRS)
    results = []
    for k, dmu in enumerate(problem.dmus):
        phi_c = crs[k].phi
        phi_v = vrs[k].phi
        phi_v2 = max(_snap_phi(phi_v), 1.0)
        pte = efficiency_score(phi_v2)
        y = vrs[k].duals
        lambda_sum = crs[k].lambda_sum
        scale_efficient = abs(
            efficiency_score(max(_snap_phi(phi_c), phi_v2)) - pte) <= RTS_TOL
        if scale_efficient or (y is not None and y[-1] >= 0.0):
            phi_n = phi_v
        elif lambda_sum is not None and lambda_sum <= 1.0:
            phi_n = phi_c
        else:
            phi_n = _phis(problem, NIRS, (k,))[k].phi

        # The feasible regions nest (VRS within NIRS within CRS), so each
        # later factor bounds the earlier one from below.  Snap sub-tolerance
        # solver wobble onto that ordering; larger gaps mean a solver bug.
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
