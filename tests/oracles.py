"""Independent brute-force references used by the test suite.

These never touch the simplex path: LPs are checked by enumerating
candidate vertices (intersections of n constraint planes inside a large
bounding box), DEA small cases by the single-ratio formula.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

_COMBO_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _combos(n_planes: int, n: int) -> np.ndarray:
    key = (n_planes, n)
    if key not in _COMBO_CACHE:
        _COMBO_CACHE[key] = np.array(
            list(itertools.combinations(range(n_planes), n)), dtype=int
        )
    return _COMBO_CACHE[key]


def _halfspaces(n, constraints, lower, upper, box):
    rows, rhs = [], []
    for row, rel, b in constraints:
        r = np.asarray(row, dtype=float)
        if rel in ("<=", "="):
            rows.append(r)
            rhs.append(float(b))
        if rel in (">=", "="):
            rows.append(-r)
            rhs.append(-float(b))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        rows.append(-e)
        rhs.append(-float(lower[j]))
        rows.append(e)
        rhs.append(float(box if upper[j] is None else min(upper[j], box)))
    return np.array(rows), np.array(rhs)


def _best_vertex_value(cmax, A, b, n, feas_tol=1e-6):
    combos = _combos(len(b), n)
    M = A[combos]
    r = b[combos]
    dets = np.linalg.det(M)
    ok = np.abs(dets) > 1e-9
    if not ok.any():
        return None
    X = np.linalg.solve(M[ok], r[ok][..., None])[..., 0]
    finite = np.isfinite(X).all(axis=1)
    X = X[finite]
    if X.size == 0:
        return None
    scale = 1.0 + np.abs(b)[:, None]
    feasible = np.all(A @ X.T <= b[:, None] + feas_tol * scale, axis=0)
    if not feasible.any():
        return None
    return float(np.max(X[feasible] @ cmax))


def lp_vertex_oracle(sense, objective, constraints, lower=None, upper=None):
    """Return ``(status, value)`` for a small LP by vertex enumeration.

    Unboundedness is detected by re-running with a 10x larger bounding box:
    for integer-coefficient test problems any genuine optimum is far inside
    the first box, so a value that keeps growing means an improving ray.
    """
    n = len(objective)
    lower = [0.0] * n if lower is None else list(lower)
    upper = [None] * n if upper is None else list(upper)
    c = np.asarray(objective, dtype=float)
    cmax = c if sense == "max" else -c

    values = []
    for box in (1e6, 1e7):
        A, b = _halfspaces(n, constraints, lower, upper, box)
        values.append(_best_vertex_value(cmax, A, b, n))
    v1, v2 = values
    if v1 is None:
        return "infeasible", None
    if v2 - v1 > 1.0:
        return "unbounded", None
    return "optimal", (v1 if sense == "max" else -v1)


def crs_ratio_oracle(xs, ys):
    """CRS output-oriented scores for a 1-input/1-output problem.

    score_j = (y_j / x_j) / max_k (y_k / x_k)
    """
    ratios = [y / x for x, y in zip(xs, ys)]
    top = max(ratios)
    return [r / top for r in ratios]


def random_small_lp(rng):
    """A random integer LP with <= 4 variables and <= 4 constraints."""
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 5))
    sense = "max" if rng.integers(2) else "min"
    objective = rng.integers(-5, 6, size=n).tolist()
    constraints = []
    for _ in range(m):
        row = rng.integers(-5, 6, size=n).tolist()
        rel = ("<=", ">=", "=")[rng.integers(3)]
        rhs = int(rng.integers(-5, 6))
        constraints.append((row, rel, rhs))
    return sense, objective, constraints


def cell_outputs_bruteforce(
    publications, outcomes, registry, journals, area_id, university_id, years
):
    """Direct per-publication summation of PU / PC / SS for one cell.

    Independent of any pre-aggregated index: scans every publication,
    counts its matched authors in the cell from the raw per-token outcomes,
    and accumulates in sorted publication-id order.
    """
    years = set(years)
    matched = {}
    for pub_id, pub_outcomes in outcomes.items():
        for outcome in pub_outcomes:
            if outcome.kind == "matched":
                matched.setdefault(pub_id, []).append(outcome.staff_id)
    pu = 0
    pc = 0.0
    ss = 0.0
    for pub in sorted(publications, key=lambda p: p.pub_id):
        if pub.year not in years or pub.doc_type not in ("article", "review"):
            continue
        b = 0
        for staff_id in matched.get(pub.pub_id, ()):
            member = registry.member(staff_id)
            if member.area_id == area_id and member.university_id == university_id:
                b += 1
        if b == 0:
            continue
        pu += 1
        pc += b / pub.author_count
        if journals is not None:
            weight = journals.weight_for(pub.journal_id, pub.year)
            ss += weight if weight is not None else 0.0
    return pu, pc, ss


@functools.lru_cache(maxsize=None)
def _oracle_variants(surname):
    from uniprod.disambiguation import normalize_text

    spaced = normalize_text(surname)
    return frozenset({spaced, spaced.replace(" ", "")} if spaced else ())


@functools.lru_cache(maxsize=None)
def _oracle_initials(letters):
    from uniprod.disambiguation import normalize_text

    return tuple(normalize_text(ch)[:1] or ch.casefold() for ch in letters)


def match_outcome_bruteforce(token, publication, registry, dictionary):
    """Match one author token by scanning the whole staff registry.

    Every member is tested against every rule from scratch: on staff in
    the publication year, at a university the publication's affiliations
    name, sharing a surname variant (spaced or joined) with the token,
    with the same first normalized initial, and, for a multi-initial
    token, with the token's initials as a prefix of its own.  Returns
    ``(kind, staff_id, candidates)`` for the survivors in staff-id order.
    """
    universities = {dictionary.lookup(raw)
                    for raw in publication.raw_affiliations}
    token_variants = _oracle_variants(token.surname)
    token_initials = _oracle_initials(token.initials)
    survivors = []
    for member in registry:
        if not member.year_from <= publication.year <= member.year_to:
            continue
        if member.university_id not in universities:
            continue
        if not _oracle_variants(member.surname) & token_variants:
            continue
        member_initials = _oracle_initials(member.initials)
        if member_initials[:1] != token_initials[:1]:
            continue
        if (len(token_initials) > 1
                and member_initials[:len(token_initials)] != token_initials):
            continue
        survivors.append(member.staff_id)
    survivors.sort()
    if len(survivors) == 1:
        return "matched", survivors[0], ()
    if survivors:
        return "ambiguous", None, tuple(survivors)
    return "unmatched", None, ()


_INPUT_LABELS = ("FP", "AP", "RF", "PR")
_OUTPUT_LABELS = ("PU", "PC", "SS")


def random_dea_problem(rng, n_dmus=None, n_inputs=4, n_outputs=3):
    """A random frontier problem with magnitudes typical of staff counts,
    funding amounts and publication tallies.  Occasional zero entries are
    kept (a unit may have no staff in one rank, or no output of one kind),
    but every unit produces something and consumes something."""
    from uniprod.dea import DeaProblem, DmuRecord

    n = n_dmus if n_dmus is not None else int(rng.integers(2, 31))
    dmus = []
    for j in range(n):
        inputs = [
            float(rng.integers(0, 80)),
            float(rng.integers(1, 100)),
            float(rng.integers(0, 90)),
            float(np.round(rng.uniform(0.0, 1200.0), 2)),
        ][:n_inputs]
        if all(v == 0.0 for v in inputs):
            inputs[0] = float(rng.integers(1, 80))
        outputs = [
            float(rng.integers(0, 200)),
            float(np.round(rng.uniform(0.0, 120.0), 1)),
            float(np.round(rng.uniform(0.0, 500.0), 1)),
        ][:n_outputs]
        if all(v == 0.0 for v in outputs):
            outputs[0] = float(rng.integers(1, 200))
        dmus.append(DmuRecord(f"U{j:03d}", tuple(inputs), tuple(outputs)))
    return DeaProblem(
        tuple(dmus), _INPUT_LABELS[:n_inputs], _OUTPUT_LABELS[:n_outputs]
    )
