"""Exact rational linear feasibility/optimization over entropy coordinates.

The decision path is exact: every returned witness or certificate is
re-derivable by rational arithmetic. A floating-point warm start (one
sparse scipy/HiGHS solve) merely *suggests* a point or a Farkas support;
the suggestion is then solved by sparse exact elimination and verified,
and on any mismatch we fall back to the exact simplex ``simplex_solve``,
which pivots the same sparse rows. The rows reach HiGHS, the
elimination, the simplex and ``verify_certificate`` in the order and
form the caller built them: duplicate, conflicting and empty rows are
not merged or dropped, so a row multiplier is a constraint multiplier.
One helper, ``_combination``, applies the sign rule and sums multiplier
combinations for every exact check.

Certificate convention (Farkas): a map constraint-index -> multiplier
lam with lam_i >= 0 on ">=" rows, lam_i <= 0 on "<=" rows, free on "=="
rows, such that sum lam_i * a_i is the zero functional while
sum lam_i * b_i > 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from ._rational import ONE, ZERO, format_rational, rational
from .core import DomainError, EntropyVector, GroundSet, LinearFunctional

LE, GE, EQ = "<=", ">=", "=="
RELATIONS = {">=": GE, "<=": LE, "=": EQ, "==": EQ, "≥": GE, "≤": LE}

_ANCHOR_DEN = 10**12
_ACTIVE_TOL = 1e-7
_SUPPORT_TOL = 1e-9
# HiGHS primal and dual feasibility tolerance: at its 1e-7 default, duals
# of that size come back with the wrong sign and Farkas supports miss rows
_HIGHS_TOL = 1e-9


@dataclass(frozen=True)
class LinearConstraint:
    functional: LinearFunctional
    relation: str  # ">=", "<=", "=="
    rhs: object

    def __init__(self, functional, relation, rhs):
        try:
            rel = RELATIONS[relation]
        except KeyError:
            raise DomainError(f"unknown relation {relation!r}") from None
        object.__setattr__(self, "functional", functional)
        object.__setattr__(self, "relation", rel)
        object.__setattr__(self, "rhs", rational(rhs))

    def holds_at(self, h: EntropyVector) -> bool:
        return _holds(self.functional.evaluate(h), self.relation, self.rhs)

    def render(self, ground: GroundSet) -> str:
        rel = {GE: ">=", LE: "<=", EQ: "="}[self.relation]
        return f"{self.functional.render(ground)} {rel} {format_rational(self.rhs)}"


@dataclass(frozen=True)
class LinearSystem:
    ground: GroundSet
    constraints: tuple[LinearConstraint, ...]
    objective: Optional[LinearFunctional] = None

    def __init__(self, ground, constraints, objective=None):
        constraints = tuple(constraints)
        limit = ground.full_mask
        for c in constraints:
            if any(mask > limit for mask, _ in c.functional.terms):
                raise DomainError("constraint references a subset outside the ground set")
        if objective is not None and any(m > limit for m, _ in objective.terms):
            raise DomainError("objective references a subset outside the ground set")
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "constraints", constraints)
        object.__setattr__(self, "objective", objective)

    def render(self) -> str:
        return "\n".join(c.render(self.ground) for c in self.constraints)


@dataclass(frozen=True)
class Feasible:
    witness: EntropyVector


@dataclass(frozen=True)
class Infeasible:
    certificate: Mapping[int, object]  # constraint index -> multiplier


@dataclass(frozen=True)
class Optimal:
    value: object
    witness: EntropyVector
    dual_certificate: Optional[Mapping[int, object]] = None


@dataclass(frozen=True)
class Unbounded:
    witness: EntropyVector
    ray: Mapping[int, object]  # mask -> direction component


# --- canonical matrix view ----------------------------------------------------


class _Canon:
    """Sparse column-indexed view of a system, its rows in constraint order.

    ``cols`` are the masks the rows and the objective use, ascending;
    ``rows[i]`` is ``(terms, rel, rhs)`` for constraint ``i`` as given,
    with ``terms`` its ``(column, coefficient)`` pairs. Nothing is
    merged or dropped, so row multipliers are constraint multipliers."""

    def __init__(self, sys: LinearSystem, objective: LinearFunctional | None):
        masks = {m for c in sys.constraints for m, _ in c.functional.terms}
        if objective is not None:
            masks.update(m for m, _ in objective.terms)
        self.cols = sorted(masks)  # deterministic: lexicographic by bitmask
        col_index = {m: i for i, m in enumerate(self.cols)}

        def terms(functional):
            return tuple((col_index[m], v) for m, v in functional.terms)

        self.ground = sys.ground
        self.rows = [(terms(c.functional), c.relation, c.rhs) for c in sys.constraints]
        self.objective = terms(objective) if objective is not None else ()

    def witness_from(self, x: Sequence) -> EntropyVector:
        return EntropyVector(self.ground, dict(zip(self.cols, x)), exact=True)


# --- exact linear algebra --------------------------------------------------------


def _anchored_solve(rows, rhs, anchor):
    """One exact solution of the sparse system ``rows[k] . x = rhs[k]``
    (each row a dict column -> coefficient), with the columns the
    elimination leaves free pinned to their ``anchor`` values; returns
    None if the system is inconsistent.

    Gaussian elimination that pivots on the sparsest remaining row and,
    within it, on the column the fewest remaining rows use, which keeps
    the fill-in of these near-triangular systems small."""
    rows = [{j: v for j, v in r.items() if v != 0} for r in rows]
    rhs = list(rhs)
    users: dict[int, set] = {}
    for k, row in enumerate(rows):
        for j in row:
            users.setdefault(j, set()).add(k)
    live = set(range(len(rows)))
    pivots: list[tuple[int, int]] = []  # (row, col)
    while live:
        k = min(live, key=lambda i: (len(rows[i]), i))
        live.remove(k)
        row = rows[k]
        if not row:
            if rhs[k] != 0:
                return None
            continue
        for j in row:
            users[j].discard(k)
        col = min(row, key=lambda j: (len(users[j]), j))
        inv = ONE / row[col]
        for i in tuple(users[col]):
            other = rows[i]
            f = other[col] * inv
            for j, v in row.items():
                w = other.get(j, ZERO) - f * v
                if w != 0:
                    if j not in other:
                        users[j].add(i)
                    other[j] = w
                elif j in other:
                    del other[j]
                    users[j].discard(i)
            rhs[i] -= f * rhs[k]
        pivots.append((k, col))
    x = list(anchor)
    for k, col in reversed(pivots):
        row = rows[k]
        rest = sum((v * x[j] for j, v in row.items() if j != col), ZERO)
        x[col] = (rhs[k] - rest) / row[col]
    return x


@dataclass
class SimplexResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: list | None = None  # point in the original free-variable space
    value: object | None = None
    duals: list | None = None  # public-convention multipliers per input row
    ray: list | None = None  # unbounded direction in the original space


def simplex_solve(ncols: int, rows, objective=()) -> SimplexResult:
    """Exact two-phase simplex with Bland's anti-cycling rule: minimize
    ``objective . x`` subject to ``rows`` over free variables.

    rows: ``(terms, rel, rhs)`` as in ``_Canon.rows``; objective: terms.
    For "infeasible" the duals are a Farkas certificate, for "optimal"
    they certify optimality (sum lam_i a_i = objective, sum lam_i b_i =
    value), both in the public sign convention.

    Standard form M z = d, z >= 0 over columns u (0..n-1) and w
    (n..2n-1) with x = u - w, one slack per inequality row, then one
    artificial per row. Each tableau row is a dict column -> nonzero,
    with d stored under ``rhs``, the column one past the last artificial;
    a pivot touches only the pivot row's nonzeros."""
    m = len(rows)
    nstruct = 2 * ncols + sum(1 for _, rel, _ in rows if rel != EQ)
    rhs = nstruct + m
    tableau: list[dict] = []
    signs = []  # tableau row = sign * (row as written), for the duals
    slack = 2 * ncols
    for i, (terms, rel, b) in enumerate(rows):
        d = -b if rel == GE else b
        flip = -1 if d < 0 else 1
        sign = -flip if rel == GE else flip
        row = {}
        for j, v in terms:
            v = v if sign > 0 else -v
            row[j] = v
            row[ncols + j] = -v
        if rel != EQ:
            row[slack] = ONE if flip > 0 else -ONE
            slack += 1
        row[nstruct + i] = ONE  # artificial
        if d != 0:
            row[rhs] = abs(d)
        tableau.append(row)
        signs.append(sign)
    basis = [nstruct + i for i in range(m)]

    def subtract(row, f, pr):
        for j, v in pr.items():
            w = row.get(j, ZERO) - f * v
            if w != 0:
                row[j] = w
            else:
                row.pop(j, None)

    def pivot(obj, r, col):
        inv = ONE / tableau[r][col]
        tableau[r] = pr = {j: v * inv for j, v in tableau[r].items()}
        for row in tableau + [obj]:
            f = row.get(col)
            if f is not None and row is not pr:
                subtract(row, f, pr)
        basis[r] = col

    def run(obj):
        # Bland: entering = lowest-index negative reduced cost
        while True:
            col = min((j for j, v in obj.items() if j < nstruct and v < 0), default=None)
            if col is None:
                return None  # optimal
            best_r, best_ratio = None, None
            for i, row in enumerate(tableau):
                t = row.get(col)
                if t is not None and t > 0:
                    ratio = row.get(rhs, ZERO) / t
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and basis[i] < basis[best_r])
                    ):
                        best_r, best_ratio = i, ratio
            if best_r is None:
                return col  # unbounded in this column
            pivot(obj, best_r, col)

    # Phase 1: minimize the sum of the artificials (all basic initially);
    # its reduced costs are minus the column sums, 0 on the artificials.
    obj: dict = {}
    for row in tableau:
        subtract(obj, ONE, {j: v for j, v in row.items() if j < nstruct or j == rhs})
    run(obj)
    if -obj.get(rhs, ZERO) > 0:  # infeasible: phase-1 optimum positive
        duals = [(ONE - obj.get(nstruct + i, ZERO)) * s for i, s in enumerate(signs)]
        return SimplexResult(status="infeasible", duals=duals)

    # Drive artificials out of the basis; redundant rows keep a zero-level
    # artificial which is then frozen (its column can never re-enter).
    for r in range(m):
        if basis[r] >= nstruct:
            col = min((j for j in tableau[r] if j < nstruct), default=None)
            if col is not None:
                pivot(obj, r, col)

    # Phase 2.
    cost = {}
    for j, c in objective:
        cost[j], cost[ncols + j] = c, -c
    obj = dict(cost)
    for i, row in enumerate(tableau):
        cb = cost.get(basis[i])
        if cb is not None:
            subtract(obj, cb, row)
    unbounded_col = run(obj)
    z = {basis[i]: row.get(rhs, ZERO) for i, row in enumerate(tableau)}
    x = [z.get(j, ZERO) - z.get(ncols + j, ZERO) for j in range(ncols)]

    if unbounded_col is not None:
        ray_z = {unbounded_col: ONE}
        for i, row in enumerate(tableau):
            t = row.get(unbounded_col)
            if t is not None:
                ray_z[basis[i]] = -t
        ray = [ray_z.get(j, ZERO) - ray_z.get(ncols + j, ZERO) for j in range(ncols)]
        return SimplexResult(status="unbounded", x=x, ray=ray)

    duals = [-obj.get(nstruct + i, ZERO) * s for i, s in enumerate(signs)]
    value = sum((c * x[j] for j, c in objective), ZERO)
    return SimplexResult(status="optimal", x=x, value=value, duals=duals)


def _rationalize(values, max_den=_ANCHOR_DEN):
    return [rational(Fraction(float(v)).limit_denominator(max_den)) for v in values]


def _row_dot(terms, x):
    return sum((v * x[j] for j, v in terms), ZERO)


def _holds(lhs, rel, rhs) -> bool:
    if rel == GE:
        return lhs >= rhs
    if rel == LE:
        return lhs <= rhs
    return lhs == rhs


def _combination(rows, lam: Mapping[int, object]):
    """``(sum lam_i a_i, sum lam_i b_i)`` over ``rows[i] = (terms, rel,
    b_i)``, the first as a dict key -> nonzero coefficient; None when
    some ``lam_i`` breaks the sign rule of its row."""
    combo: dict = {}
    total = ZERO
    for i, mult in lam.items():
        terms, rel, rhs = rows[i]
        if (rel == GE and mult < 0) or (rel == LE and mult > 0):
            return None
        for j, v in terms:
            combo[j] = combo.get(j, ZERO) + mult * v
        total += mult * rhs
    return {j: v for j, v in combo.items() if v != 0}, total


def _verify_point(canon: _Canon, x) -> bool:
    return all(_holds(_row_dot(terms, x), rel, rhs) for terms, rel, rhs in canon.rows)


def _exact_multipliers(canon: _Canon, lam_float, target, value):
    """Exactify float row multipliers: solve ``sum lam_i a_i = target``,
    ``sum lam_i b_i = value`` over their support, anchored at the
    rationalized floats, and check the result; None on a miss."""
    support = [i for i, v in enumerate(lam_float) if abs(v) > _SUPPORT_TOL]
    if not support:
        return None
    eqs: dict[int, dict] = {j: {} for j, _ in target}
    for k, i in enumerate(support):
        for j, v in canon.rows[i][0]:
            eqs.setdefault(j, {})[k] = v
    goal = dict(target)
    cols = sorted(eqs)
    sys_rows = [eqs[j] for j in cols]
    sys_rhs = [goal.get(j, ZERO) for j in cols]
    sys_rows.append({k: canon.rows[i][2] for k, i in enumerate(support)})
    sys_rhs.append(value)
    anchor = _rationalize([lam_float[i] for i in support])
    lam_exact = _anchored_solve(sys_rows, sys_rhs, anchor)
    if lam_exact is None:
        return None
    lam = {i: v for i, v in zip(support, lam_exact) if v != 0}
    if lam and _combination(canon.rows, lam) == (dict(target), value):
        return lam
    return None


# --- floating-point warm start ---------------------------------------------------


def _highs(canon: _Canon, objective=None, elastic=False):
    """One HiGHS solve over CSR matrices built from the sparse rows.

    ``GE`` rows are negated into ``A_ub``. With ``elastic`` the LP is the
    phase-1 problem that minimises total violation: every inequality row
    gets a slack ``s >= 0`` and every equality row a pair ``p - q``, so it
    is always feasible and its optimum is 0 exactly when the system is.
    Returns the ``linprog`` result, its x restricted to the original
    columns, and the row multipliers in the public sign convention (for
    a feasible system, the duals of the objective solve; for an elastic
    solve with positive optimum, a Farkas candidate)."""
    import numpy as np
    from scipy import sparse
    from scipy.optimize import linprog

    n = len(canon.cols)
    ub = [i for i, (_, rel, _) in enumerate(canon.rows) if rel != EQ]
    eq = [i for i, (_, rel, _) in enumerate(canon.rows) if rel == EQ]
    flip = {GE: -1.0, LE: 1.0, EQ: 1.0}

    def block(idx):
        data, cols, ptr = [], [], [0]
        for i in idx:
            terms, rel, _ = canon.rows[i]
            s = flip[rel]
            for j, v in terms:
                cols.append(j)
                data.append(s * float(v))
            ptr.append(len(data))
        a = sparse.csr_matrix((data, cols, ptr), shape=(len(idx), n))
        b = np.array([flip[canon.rows[i][1]] * float(canon.rows[i][2]) for i in idx])
        return a, b

    a_ub, b_ub = block(ub)
    a_eq, b_eq = block(eq)
    if elastic:
        nu, ne = len(ub), len(eq)
        eye_e = sparse.identity(ne, format="csr")
        a_ub = sparse.hstack(
            [a_ub, -sparse.identity(nu), sparse.csr_matrix((nu, 2 * ne))], format="csr"
        )
        a_eq = sparse.hstack(
            [a_eq, sparse.csr_matrix((ne, nu)), eye_e, -eye_e], format="csr"
        )
        nslack = nu + 2 * ne
        c = np.concatenate([np.zeros(n), np.ones(nslack)])
        bounds = [(None, None)] * n + [(0, None)] * nslack
    else:
        c = np.zeros(n)
        for j, v in objective or ():
            c[j] = float(v)
        bounds = (None, None)
    res = linprog(
        c,
        A_ub=a_ub if ub else None,
        b_ub=b_ub if ub else None,
        A_eq=a_eq if eq else None,
        b_eq=b_eq if eq else None,
        bounds=bounds,
        method="highs",
        options={
            "primal_feasibility_tolerance": _HIGHS_TOL,
            "dual_feasibility_tolerance": _HIGHS_TOL,
        },
    )
    if res.status != 0:
        return res, None, None
    # marginals are d(objective)/d(rhs as passed); undo the GE negation
    lam = [0.0] * len(canon.rows)
    for i, m in zip(ub, res.ineqlin.marginals):
        lam[i] = flip[canon.rows[i][1]] * float(m)
    for i, m in zip(eq, res.eqlin.marginals):
        lam[i] = float(m)
    return res, list(res.x[:n]), lam


def _exact_point_from_float(canon: _Canon, x_float):
    """Exactify a float point: solve the active rows exactly, anchored at
    the rationalized float solution, then verify everything."""
    anchor = _rationalize(x_float)
    if _verify_point(canon, anchor):
        return anchor
    active_rows, active_rhs = [], []
    for terms, rel, rhs in canon.rows:
        if rel != EQ:
            resid = float(rhs) - sum(float(v) * x_float[j] for j, v in terms)
            if abs(resid) >= _ACTIVE_TOL:
                continue
        active_rows.append(dict(terms))
        active_rhs.append(rhs)
    x = _anchored_solve(active_rows, active_rhs, anchor)
    if x is not None and _verify_point(canon, x):
        return x
    return None


# --- public operations ----------------------------------------------------------


def _elastic_verdict(canon: _Canon):
    """One elastic HiGHS solve made exact: Feasible, Infeasible, or None
    when the float answer cannot be reconstructed."""
    res, x_float, lam_float = _highs(canon, elastic=True)
    if x_float is None:
        return None
    if res.fun <= _ACTIVE_TOL:
        x = _exact_point_from_float(canon, x_float)
        if x is not None:
            return Feasible(canon.witness_from(x))
    if res.fun > 0:
        # the duals satisfy sum lam_i b_i = violation; rescale that sum
        # to 1 so the anchor agrees with the normalisation solved for
        total = sum(v * float(canon.rows[i][2]) for i, v in enumerate(lam_float) if v)
        if total > 0:
            lam = _exact_multipliers(canon, [v / total for v in lam_float], (), ONE)
            if lam is not None:
                return Infeasible(lam)
    return None


def _exact_fallback(canon: _Canon, optimize: bool = False):
    """The exact simplex over the canonical rows, made a verdict."""
    result = simplex_solve(len(canon.cols), canon.rows, canon.objective)
    lam = {i: v for i, v in enumerate(result.duals or ()) if v != 0}
    if result.status == "infeasible":
        return Infeasible(lam)
    if result.status == "unbounded":
        ray = {m: v for m, v in zip(canon.cols, result.ray) if v != 0}
        return Unbounded(canon.witness_from(result.x), ray)
    if not optimize:
        return Feasible(canon.witness_from(result.x))
    return Optimal(result.value, canon.witness_from(result.x), lam)


def solve_feasibility(sys: LinearSystem, warm_start: bool = True):
    """Exact feasibility: Feasible(witness) or Infeasible(certificate)."""
    canon = _Canon(sys, None)
    if not canon.rows:
        return Feasible(canon.witness_from([ZERO] * len(canon.cols)))
    verdict = _elastic_verdict(canon) if warm_start else None
    return verdict or _exact_fallback(canon)


def minimize(sys: LinearSystem):
    """Exact optimization of ``sys.objective``: Optimal with a verified
    dual certificate, Unbounded, or Infeasible."""
    if sys.objective is None:
        raise DomainError("minimize requires an objective")
    canon = _Canon(sys, sys.objective)
    res, x_float, lam_float = _highs(canon, objective=canon.objective)
    if res.status == 2:
        verdict = _elastic_verdict(canon)
        if isinstance(verdict, Infeasible):
            return verdict
    if x_float is not None:
        x = _exact_point_from_float(canon, x_float)
        if x is not None:
            value = _row_dot(canon.objective, x)
            # exact dual certificate: sum lam_i a_i = objective, sum lam_i b_i = value
            lam = _exact_multipliers(canon, lam_float, canon.objective, value)
            if lam is not None:
                return Optimal(value, canon.witness_from(x), lam)
    return _exact_fallback(canon, optimize=True)


def _certificate_combination(sys: LinearSystem, cert: Mapping[int, object]):
    """``_combination`` of the constraints of ``sys`` as rows over subset
    masks; None also when a key of ``cert`` names no constraint."""
    rows = [(c.functional.terms, c.relation, c.rhs) for c in sys.constraints]
    if not all(isinstance(i, int) and 0 <= i < len(rows) for i in cert):
        return None
    return _combination(rows, cert)


def verify_certificate(sys: LinearSystem, result) -> bool:
    """Re-validate a result by exact arithmetic, independent of the
    solver, against every constraint of ``sys`` as given. A witness must
    be over ``sys.ground``; an Optimal needs a dual certificate and an
    Optimal or Unbounded needs ``sys.objective``. Every key of a
    certificate must be the index of a constraint."""
    if isinstance(result, Infeasible):
        combo = _certificate_combination(sys, result.certificate)
        return combo is not None and not combo[0] and combo[1] > 0
    if not isinstance(result, (Feasible, Optimal, Unbounded)):
        raise DomainError(f"unknown result type {type(result).__name__}")
    witness = result.witness
    if witness.ground != sys.ground or not all(c.holds_at(witness) for c in sys.constraints):
        return False
    if isinstance(result, Feasible):
        return True
    objective = sys.objective
    if objective is None:
        return False
    if isinstance(result, Optimal):
        if result.dual_certificate is None:
            return False
        combo = _certificate_combination(sys, result.dual_certificate)
        return combo == (dict(objective.terms), result.value)
    ray = EntropyVector(sys.ground, result.ray)
    return objective.evaluate(ray) < 0 and all(
        _holds(c.functional.evaluate(ray), c.relation, ZERO) for c in sys.constraints
    )
