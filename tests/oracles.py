"""Independent brute-force references used by the test suite.

These never touch the simplex path: LPs are checked by enumerating
candidate vertices (intersections of n constraint planes inside a large
bounding box), DEA small cases by the single-ratio formula.  The one
exception is the frozen reference simplex at the end of the file, a
copy of an earlier form of the solver's inner loop that the current one
must match bit for bit.
"""

from __future__ import annotations

import csv
import functools
import itertools
from pathlib import Path

import numpy as np

from uniprod.errors import InvariantViolationError
from uniprod.lp import (
    EQ,
    FEASIBILITY_TOL,
    GE,
    LE,
    MAX_ITERATIONS,
    OPTIMAL,
    PIVOT_TOL,
    UNBOUNDED,
    LpSolution,
)

#: the oracles' own outcome for a program with no feasible point;
#: ``solve_lp`` raises ``InvariantViolationError`` on one
INFEASIBLE = "infeasible"

_COMBO_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _combos(n_planes: int, n: int) -> np.ndarray:
    key = (n_planes, n)
    if key not in _COMBO_CACHE:
        _COMBO_CACHE[key] = np.array(
            list(itertools.combinations(range(n_planes), n)), dtype=int
        )
    return _COMBO_CACHE[key]


def _halfspaces(n, constraints, box):
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
        rhs.append(0.0)
        rows.append(e)
        rhs.append(box)
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


def lp_vertex_oracle(objective, constraints):
    """Return ``(status, value)`` for a small max LP over ``x >= 0`` by
    vertex enumeration.

    Unboundedness is detected by re-running with a 10x larger bounding box:
    for integer-coefficient test problems any genuine optimum is far inside
    the first box, so a value that keeps growing means an improving ray.
    """
    n = len(objective)
    c = np.asarray(objective, dtype=float)

    values = []
    for box in (1e6, 1e7):
        A, b = _halfspaces(n, constraints, box)
        values.append(_best_vertex_value(c, A, b, n))
    v1, v2 = values
    if v1 is None:
        return INFEASIBLE, None
    if v2 - v1 > 1.0:
        return UNBOUNDED, None
    return OPTIMAL, v1


def crs_ratio_oracle(xs, ys):
    """CRS output-oriented scores for a 1-input/1-output problem.

    score_j = (y_j / x_j) / max_k (y_k / x_k)
    """
    ratios = [y / x for x, y in zip(xs, ys)]
    top = max(ratios)
    return [r / top for r in ratios]


def random_small_lp(rng):
    """A random integer max LP with <= 4 variables, <= 4 constraints and
    right-hand sides in 0..5, as ``solve_lp`` takes them: a draw whose
    rows, with their slack and surplus columns, fall short of full rank
    is drawn again.  It may be infeasible or unbounded."""
    while True:
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        objective = rng.integers(-5, 6, size=n).tolist()
        constraints = []
        for _ in range(m):
            row = rng.integers(-5, 6, size=n).tolist()
            rel = ("<=", ">=", "=")[rng.integers(3)]
            rhs = int(rng.integers(0, 6))
            constraints.append((row, rel, rhs))
        A = np.array([row for row, _, _ in constraints], dtype=float)
        slacks = np.diag([float(rel != "=") for _, rel, _ in constraints])
        if np.linalg.matrix_rank(np.hstack((A, slacks))) == m:
            return objective, constraints


def lp_arrays(objective, constraints):
    """``solve_lp``'s four arguments for a max program written as
    ``(row, relation, rhs)`` triples."""
    c = np.array(objective, dtype=float)
    A = np.array([row for row, _, _ in constraints], dtype=float)
    relations = tuple(rel for _, rel, _ in constraints)
    b = np.array([rhs for _, _, rhs in constraints], dtype=float)
    return c, A.reshape(len(constraints), c.size), relations, b


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
        ss += journals.get((pub.journal_id, pub.year), 0.0)
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


def _affiliation_field(cell):
    return tuple(a.strip() for a in cell.split(";") if a.strip())


def raw_affiliation_fields(data_dir):
    """Each publication's raw affiliation strings by id, read from
    ``publications.csv`` with ``csv.DictReader``."""
    with open(Path(data_dir) / "publications.csv", newline="",
              encoding="utf-8-sig") as handle:
        return {row["pub_id"].strip(): _affiliation_field(
                    row["raw_affiliations"])
                for row in csv.DictReader(handle)}


def match_outcome_bruteforce(token, publication, raw_affiliations, registry,
                             affiliations):
    """Match one author token by scanning the whole staff registry.

    Every member is tested against every rule from scratch: on staff in
    the publication year, at a university that ``affiliations`` maps
    the normalized form of one of the raw affiliation strings to,
    sharing a surname variant (spaced or joined) with the token, with
    the same first normalized initial, and, for a multi-initial token,
    with the token's initials as a prefix of its own.  Returns
    ``(kind, staff_id, candidates)`` for the survivors in staff-id order.
    """
    from uniprod.disambiguation import normalize_text

    universities = {affiliations.get(normalize_text(raw))
                    for raw in raw_affiliations}
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


def ingest_oracle(data_dir):
    """The records ``ingest`` builds from a valid data directory, read
    with ``csv.DictReader`` and plain conversions and checking nothing.

    Returns ``(staff, publications, journal weights, funding amounts,
    affiliation mapping, warnings)``: the ``StaffMember`` and
    ``Publication`` lists in file order, ``{(journal, year): weight}``,
    ``{(university, area, year): amount}`` for the universities on
    staff, ``{normalized pattern: university}`` and the warnings.  A
    publication's universities are those the mapping gives the
    normalized forms of its raw affiliation strings.
    """
    from uniprod.disambiguation import normalize_text
    from uniprod.records import AuthorToken, Publication, StaffMember

    root = Path(data_dir)

    def rows(name):
        with open(root / name, newline="", encoding="utf-8-sig") as handle:
            reader = csv.DictReader(handle)
            return [(reader.line_num, {k: v.strip() for k, v in row.items()})
                    for row in reader if any(v.strip() for v in row.values())]

    staff = [
        StaffMember(r["staff_id"], r["surname"], r["first_names"], r["rank"],
                    r["university_id"], r["area_id"], int(r["year_from"]),
                    int(r["year_to"]))
        for _, r in rows("staff.csv")
    ]
    affiliations = {normalize_text(r["raw_pattern"]): r["university_id"]
                    for _, r in rows("affiliations.csv")}
    publications = []
    for _, r in rows("publications.csv"):
        authors = []
        for entry in r["authors"].split(";"):
            if entry.strip():
                surname, initials = entry.split(",", 1)
                authors.append(AuthorToken(
                    surname.strip(),
                    tuple(ch.upper() for ch in initials if ch.isalpha())))
        publications.append(Publication(
            r["pub_id"], int(r["year"]), r["doc_type"], r["journal_id"],
            tuple(authors),
            tuple(sorted({affiliations[normalize_text(a)]
                          for a in _affiliation_field(r["raw_affiliations"])
                          if normalize_text(a) in affiliations}))))
    journals = {(r["journal_id"], int(r["year"])): float(r["impact_weight"])
                for _, r in rows("journals.csv")}
    universities = {m.university_id for m in staff}
    funding, warnings = {}, []
    for line, r in rows("funding.csv"):
        if r["university_id"] in universities:
            funding[(r["university_id"], r["area_id"], int(r["year"]))] = (
                float(r["prin_keur"]))
        else:
            warnings.append(f"funding.csv:{line}: unknown university "
                            f"{r['university_id']!r}; row skipped")
    warnings += [f"journal {j!r} appears in publications but not in the "
                 "journal table"
                 for j in sorted({p.journal_id for p in publications}
                                 - {j for j, _ in journals})]
    return staff, publications, journals, funding, affiliations, warnings


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


# --- Frozen reference simplex ------------------------------------------
#
# A verbatim copy of the solver's inner loop as it stood before the
# objective row moved into the tableau: z is kept apart from T and each
# pivot copies the factor column.  The solver must reproduce it bit for
# bit (status, objective, x and iteration count) on every envelopment LP;
# see ``tests/test_lp_bits.py``.


def reference_solve_lp(objective, A, relations, b):
    """``solve_lp`` over the frozen reference simplex below, which
    reports an infeasible program as ``INFEASIBLE`` instead of
    raising."""
    status, x, iters = _two_phase(A, relations, b, objective)
    if status != OPTIMAL:
        return LpSolution(status, None, None, iters)
    x = np.maximum(x, 0.0)
    return LpSolution(OPTIMAL, float(objective @ x), x, iters)


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
