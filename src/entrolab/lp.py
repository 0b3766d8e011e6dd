"""Exact rational linear feasibility/optimization over entropy coordinates.

The decision path is exact: every returned witness or certificate is
re-derivable by rational arithmetic. A floating-point warm start (one
sparse scipy/HiGHS solve) merely *suggests* a point or a Farkas support;
the suggestion is then solved by sparse exact elimination and verified,
and on any mismatch we fall back to the exact simplex ``simplex_solve``,
which pivots the same sparse rows.

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
        lhs = self.functional.evaluate(h)
        if self.relation == GE:
            return lhs >= self.rhs
        if self.relation == LE:
            return lhs <= self.rhs
        return lhs == self.rhs

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
    """Sparse column-indexed view of a system, after redundancy pre-pass.

    ``rows[k]`` is ``(terms, rel, rhs)`` for the constraint
    ``row_index[k]``, with ``terms`` its ``(column, coefficient)`` pairs."""

    def __init__(self, sys: LinearSystem, objective: LinearFunctional | None):
        masks = set()
        for c in sys.constraints:
            masks.update(m for m, _ in c.functional.terms)
        if objective is not None:
            masks.update(m for m, _ in objective.terms)
        self.cols = sorted(masks)  # deterministic: lexicographic by bitmask
        self.col_index = {m: i for i, m in enumerate(self.cols)}
        self.sys = sys
        self.conflict: Optional[Infeasible] = None

        # Redundancy pre-pass: drop duplicate functionals keeping the
        # binding rhs; detect flat contradictions among identical rows.
        best: dict[tuple, tuple[int, object]] = {}
        trivial_bad: Optional[int] = None
        kept: list[int] = []
        for idx, c in enumerate(sys.constraints):
            if not c.functional.terms:
                ok = (
                    (c.relation == GE and 0 >= c.rhs)
                    or (c.relation == LE and 0 <= c.rhs)
                    or (c.relation == EQ and c.rhs == 0)
                )
                if not ok and trivial_bad is None:
                    trivial_bad = idx
                continue
            lead = c.functional.terms[0][1]
            rel = c.relation
            flip = rel != EQ and lead < 0
            if flip:
                # normalize leading coefficient positive, flipping inequality
                rel = GE if rel == LE else LE
            # a unit leading coefficient (almost every row) needs no multiply
            terms, rhs = c.functional.terms, c.rhs
            if abs(lead) != 1:
                scale = (-ONE if flip else ONE) / abs(lead)
                terms = tuple((m, v * scale) for m, v in terms)
                rhs = rhs * scale
            elif flip:
                terms = tuple((m, -v) for m, v in terms)
                rhs = -rhs
            key = (terms, rel)
            prev = best.get(key)
            if prev is None:
                best[key] = (idx, rhs)
                kept.append(idx)
            else:
                pidx, prhs = prev
                if rel == EQ and prhs != rhs:
                    self.conflict = self._equality_conflict(pidx, idx)
                elif (rel == GE and rhs > prhs) or (rel == LE and rhs < prhs):
                    best[key] = (idx, rhs)
                    kept.remove(pidx)
                    kept.append(idx)
        if trivial_bad is not None and self.conflict is None:
            c = sys.constraints[trivial_bad]
            lam = ONE if c.relation != LE else -ONE
            if c.relation == EQ and c.rhs < 0:
                lam = -ONE
            self.conflict = Infeasible({trivial_bad: lam})
        self.row_index = sorted(kept)
        self.rows = [
            (self._terms(c.functional), c.relation, c.rhs)
            for c in (sys.constraints[idx] for idx in self.row_index)
        ]
        self.objective = self._terms(objective) if objective is not None else ()

    def _terms(self, functional: LinearFunctional) -> tuple:
        return tuple((self.col_index[m], v) for m, v in functional.terms)

    def _equality_conflict(self, i: int, j: int) -> Infeasible:
        a = self.sys.constraints[i]
        b = self.sys.constraints[j]
        sa = a.functional.terms[0][1]
        sb = b.functional.terms[0][1]
        # a/sa - b/sb = 0 functional; pick orientation with positive rhs gap.
        gap = a.rhs / sa - b.rhs / sb
        sign = ONE if gap > 0 else -ONE
        return Infeasible({i: sign / sa, j: -sign / sb})

    def witness_from(self, x: Sequence) -> EntropyVector:
        return EntropyVector(self.sys.ground, dict(zip(self.cols, x)), exact=True)

    def multipliers_from_dict(self, lam: Mapping[int, object]) -> dict[int, object]:
        return {self.row_index[i]: v for i, v in lam.items() if v != 0}


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


def _verify_point(canon: _Canon, x) -> bool:
    for terms, rel, rhs in canon.rows:
        lhs = _row_dot(terms, x)
        if rel == GE and lhs < rhs:
            return False
        if rel == LE and lhs > rhs:
            return False
        if rel == EQ and lhs != rhs:
            return False
    return True


def _check_multipliers(canon: _Canon, lam: Mapping[int, object], target, value) -> bool:
    """``lam`` has the public signs, ``sum lam_i a_i`` equals the sparse
    ``target`` terms and ``sum lam_i b_i`` equals ``value``."""
    combo: dict[int, object] = {}
    total = ZERO
    for i, mult in lam.items():
        terms, rel, rhs = canon.rows[i]
        if (rel == GE and mult < 0) or (rel == LE and mult > 0):
            return False
        for j, v in terms:
            combo[j] = combo.get(j, ZERO) + mult * v
        total += mult * rhs
    for j, v in target:
        combo[j] = combo.get(j, ZERO) - v
    return all(v == 0 for v in combo.values()) and total == value


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
    if lam and _check_multipliers(canon, lam, target, value):
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
                return Infeasible(canon.multipliers_from_dict(lam))
    return None


def _exact_fallback(canon: _Canon, optimize: bool = False):
    """The exact simplex over the canonical rows, made a verdict."""
    result = simplex_solve(len(canon.cols), canon.rows, canon.objective)
    lam = {i: v for i, v in enumerate(result.duals or ()) if v != 0}
    if result.status == "infeasible":
        return Infeasible(canon.multipliers_from_dict(lam))
    if result.status == "unbounded":
        ray = {m: v for m, v in zip(canon.cols, result.ray) if v != 0}
        return Unbounded(canon.witness_from(result.x), ray)
    if not optimize:
        return Feasible(canon.witness_from(result.x))
    return Optimal(
        result.value, canon.witness_from(result.x), canon.multipliers_from_dict(lam)
    )


def solve_feasibility(sys: LinearSystem, warm_start: bool = True):
    """Exact feasibility: Feasible(witness) or Infeasible(certificate)."""
    canon = _Canon(sys, None)
    if canon.conflict is not None:
        return canon.conflict
    if not canon.rows:
        return Feasible(canon.witness_from([ZERO] * len(canon.cols)))
    verdict = _elastic_verdict(canon) if warm_start else None
    return verdict or _exact_fallback(canon)


def minimize(sys: LinearSystem, objective: LinearFunctional | None = None):
    """Exact two-phase optimization; Optimal/Unbounded/Infeasible."""
    objective = objective or sys.objective
    if objective is None:
        raise DomainError("minimize requires an objective")
    canon = _Canon(sys, objective)
    if canon.conflict is not None:
        return canon.conflict
    res, x_float, lam_float = _highs(canon, objective=canon.objective)
    if res.status == 2:
        verdict = _elastic_verdict(canon)
        if isinstance(verdict, Infeasible):
            return verdict
    if res.status == 3:
        unb = _exact_unbounded(canon, objective)
        if unb is not None:
            return unb
    if x_float is not None:
        x = _exact_point_from_float(canon, x_float)
        if x is not None:
            value = _row_dot(canon.objective, x)
            # exact dual certificate: sum lam_i a_i = objective, sum lam_i b_i = value
            lam = _exact_multipliers(canon, lam_float, canon.objective, value)
            if lam is not None:
                lam = canon.multipliers_from_dict(lam)
            return Optimal(value, canon.witness_from(x), lam)
    return _exact_fallback(canon, optimize=True)


def _exact_unbounded(canon: _Canon, objective: LinearFunctional):
    """Certify unboundedness: exact feasible point plus exact descent ray."""
    base = solve_feasibility(canon.sys)
    if not isinstance(base, Feasible):
        return None
    ground = canon.sys.ground
    ray_constraints = []
    for c in canon.sys.constraints:
        if not c.functional.terms:
            continue
        rel = {GE: ">=", LE: "<=", EQ: "="}[c.relation]
        ray_constraints.append(LinearConstraint(c.functional, rel, 0))
    ray_constraints.append(LinearConstraint(objective, "=", -1))
    ray_sys = LinearSystem(ground, ray_constraints)
    ray_res = solve_feasibility(ray_sys)
    if not isinstance(ray_res, Feasible):
        return None
    ray = {m: v for m, v in ray_res.witness.values.items() if v != 0}
    return Unbounded(base.witness, ray)


def verify_certificate(sys: LinearSystem, result) -> bool:
    """Re-validate a result by exact arithmetic, independent of the solver."""
    if isinstance(result, Feasible):
        return all(c.holds_at(result.witness) for c in sys.constraints)
    if isinstance(result, Optimal):
        if not all(c.holds_at(result.witness) for c in sys.constraints):
            return False
        if result.dual_certificate is None:
            return True
        objective = sys.objective
        if objective is None:
            return True
        combo: dict[int, object] = {}
        total = ZERO
        for i, mult in result.dual_certificate.items():
            c = sys.constraints[i]
            if c.relation == GE and mult < 0:
                return False
            if c.relation == LE and mult > 0:
                return False
            for m, v in c.functional.terms:
                combo[m] = combo.get(m, ZERO) + mult * v
            total += mult * c.rhs
        target = dict(objective.terms)
        for m in set(combo) | set(target):
            if combo.get(m, ZERO) != target.get(m, ZERO):
                return False
        return total == result.value
    if isinstance(result, Infeasible):
        combo = {}
        total = ZERO
        for i, mult in result.certificate.items():
            c = sys.constraints[i]
            if c.relation == GE and mult < 0:
                return False
            if c.relation == LE and mult > 0:
                return False
            for m, v in c.functional.terms:
                combo[m] = combo.get(m, ZERO) + mult * v
            total += mult * c.rhs
        return all(v == 0 for v in combo.values()) and total > 0
    if isinstance(result, Unbounded):
        if not all(c.holds_at(result.witness) for c in sys.constraints):
            return False
        objective = sys.objective
        ray = result.ray
        for c in sys.constraints:
            d = sum((v * ray.get(m, ZERO) for m, v in c.functional.terms), ZERO)
            if c.relation == GE and d < 0:
                return False
            if c.relation == LE and d > 0:
                return False
            if c.relation == EQ and d != 0:
                return False
        if objective is None:
            return True
        slope = sum((v * ray.get(m, ZERO) for m, v in objective.terms), ZERO)
        return slope < 0
    raise DomainError(f"unknown result type {type(result).__name__}")


def dump_system(sys: LinearSystem) -> str:
    """Text dump, one constraint per line: `<coeff>*h{A,B} ... <rel> <rhs>`."""
    return sys.render()


