"""Exact rational linear feasibility/optimization over entropy coordinates.

The decision path is exact: every returned witness or certificate is
re-derivable by rational arithmetic and is checked on every row of the
system as given before it is returned. Every verdict, of
``solve_feasibility`` (warm or cold) and of ``minimize``, takes one
path: reduce, solve, lift, check.

- **Reduce.** Functional dependencies (FDs) are read off the system
  itself: an ``==`` row h(T) - h(B) = 0 with B inside T, and a pair of
  single-term fixings h(B) = c, h(B u {x}) = c with equal right-hand
  sides. Each is split into single-element steps B -> x (minimal
  premises only), each with its derivation: row multipliers whose sum is
  h(B u {x}) - h(B) with right-hand side 0. With the elemental
  inequalities they force h(S) = h(cl S), where cl closes S under the
  steps, so the columns are the closed masks. Each row's terms are
  mapped to closed columns; identical mapped rows share one
  representative constraint index, so a reduced multiplier is still a
  constraint multiplier. A row that maps to nothing is dropped when it
  holds, and is the whole contradiction when it does not. With no FDs,
  cl is the identity.
- **Solve.** One sparse elastic HiGHS solve (``minimize``: one objective
  solve) suggests a point or a Farkas support; sparse exact elimination
  over that support, anchored at the rationalized floats, makes it exact
  on the reduced rows. Cold, or when that reconstruction misses, the
  exact simplex ``simplex_solve`` pivots the same reduced rows.
- **Lift.** A point: h(S) := h(cl S). Farkas or dual multipliers: the
  residual sum lam_i a_i - target over the full masks sums to zero on
  every closure class. It is moved from each non-closed mask K one
  closure step B -> x up, to K u {x}, smallest masks first so that
  residuals that meet are merged: by r h(x|K) as elementals when the
  residual r is positive, else by -r I(x; K-B | B) as elementals plus
  r times the step's derivation.
- **Check.** The lifted verdict is returned only if
  ``verify_certificate`` accepts it on every row as given, the same
  check a caller makes. A lift that misses (an elemental row the
  cancellation needs is not in the system) or fails that check sends
  the verdict down the same path with no FDs, which is the unreduced
  system: elastic HiGHS, then the simplex.

``minimize`` raises ``DomainError`` on an objective unbounded below, as
it does on a missing one: network LPs minimise an h(U) >= 0.

Every result carries a ``SolveTrace`` of the path that won, the misses
on the way and the sizes and times of the stages.

Certificate convention (Farkas): a map constraint-index -> multiplier
lam with lam_i >= 0 on ">=" rows, lam_i <= 0 on "<=" rows, free on "=="
rows, such that sum lam_i * a_i is the zero functional while
sum lam_i * b_i > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from time import perf_counter
from typing import Mapping, Optional, Sequence

from .core import (
    ONE,
    ZERO,
    DomainError,
    EntropyVector,
    GroundSet,
    LinearFunctional,
    format_rational,
)

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
    rhs: Fraction  # even when integral: c.rhs / v must not divide two ints

    def __init__(self, functional, relation, rhs):
        try:
            rel = RELATIONS[relation]
        except KeyError:
            raise DomainError(f"unknown relation {relation!r}") from None
        object.__setattr__(self, "functional", functional)
        object.__setattr__(self, "relation", rel)
        object.__setattr__(self, "rhs", Fraction(rhs))

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
        # terms are sorted by ascending mask: the last is the largest
        limit = ground.full_mask
        for c in constraints:
            if c.functional.terms and c.functional.terms[-1][0] > limit:
                raise DomainError("constraint references a subset outside the ground set")
        if objective is not None and objective.terms and objective.terms[-1][0] > limit:
            raise DomainError("objective references a subset outside the ground set")
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "constraints", constraints)
        object.__setattr__(self, "objective", objective)

    def render(self) -> str:
        return "\n".join(c.render(self.ground) for c in self.constraints)


@dataclass
class SolveTrace:
    """How a verdict was reached.

    ``path`` is the stage that produced it: ``reduced-float`` (a HiGHS
    answer made exact on the reduced rows), ``reduced-exact`` (the exact
    simplex on them, or a row that alone is the contradiction),
    ``full-float`` or ``full-simplex`` (the same on the unreduced rows,
    after a lift miss). ``misses`` says why each earlier attempt was
    left, in order: ``highs status N``, ``reconstruction miss`` or ``lift
    miss`` (a lift that missed or that ``verify_certificate`` rejected).
    ``full`` and ``reduced`` give the rows, cols and nnz of the
    system as given and as last solved; ``support`` is the number of
    nonzero multipliers of the certificate or dual (0 for a witness
    alone); ``seconds`` is the wall time of each stage."""

    path: str = ""
    misses: list = field(default_factory=list)
    full: dict = field(default_factory=dict)
    reduced: dict = field(default_factory=dict)
    support: int = 0
    seconds: dict = field(default_factory=dict)

    def lap(self, stage: str, start: float) -> float:
        """Add the time since ``start`` to ``stage``; returns now."""
        now = perf_counter()
        self.seconds[stage] = self.seconds.get(stage, 0.0) + now - start
        return now


def _untraced():
    return field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Feasible:
    witness: EntropyVector
    trace: Optional[SolveTrace] = _untraced()


@dataclass(frozen=True)
class Infeasible:
    certificate: Mapping[int, object]  # constraint index -> multiplier
    trace: Optional[SolveTrace] = _untraced()


@dataclass(frozen=True)
class Optimal:
    value: object
    witness: EntropyVector
    dual_certificate: Optional[Mapping[int, object]] = None
    trace: Optional[SolveTrace] = _untraced()


# --- functional dependencies and the reduced view -----------------------------------


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _fd_steps(sys: LinearSystem) -> list:
    """The single-element FD steps ``(B, x, rows, rest)`` the system
    states, ``x`` a one-bit mask outside ``B``, sorted by ``x`` and then
    by the size of ``B``, keeping only minimal premises ``B`` per ``x``. Derivation: ``sum
    rows[i] * a_i`` is h(B u x) - h(B) + h(rest | B u x) with right-hand
    side 0 (``rows`` are ``==`` rows), so h(x|B) <= 0 given the
    elemental inequalities for h(rest | B u x)."""
    found = []
    fixings: dict = {}  # value -> mask -> (index, coefficient)
    for i, c in enumerate(sys.constraints):
        terms = c.functional.terms
        if c.relation != EQ or not 0 < len(terms) <= 2:
            continue
        if len(terms) == 1:
            (t, v), = terms
            fixings.setdefault(c.rhs / v, {}).setdefault(t, (i, v))
            b = 0
        else:
            (b, vb), (t, v) = terms  # ascending masks: a subset comes first
            if vb != -v or b & ~t:
                continue
        if c.rhs == 0:
            found += [(b, x, {i: ONE / v}, t & ~(b | x)) for x in _bits(t & ~b)]
    for fixed in fixings.values():
        for b, (i, v) in fixed.items():
            for x in _bits(sys.ground.full_mask & ~b):
                hi = fixed.get(b | x)
                if hi is not None:
                    found.append((b, x, {hi[0]: ONE / hi[1], i: -ONE / v}, 0))
    steps = []
    for step in sorted(found, key=lambda s: (s[1], s[0].bit_count(), s[0])):
        b, x = step[0], step[1]
        if not any(k[1] == x and k[0] & ~b == 0 for k in steps):
            steps.append(step)
    return steps


def _first_step(steps, mask: int):
    """The first step ``(B, x, ...)`` with B inside ``mask`` and x
    outside it, or None when ``mask`` is closed."""
    for step in steps:
        if not step[1] & mask and not step[0] & ~mask:
            return step
    return None


class _Canon:
    """Sparse column-indexed view of a system with every h(S) replaced by
    h(cl S), cl the closure under the FD ``steps`` (none: the identity).

    ``close`` maps each mask the rows and the objective use to its closed
    mask, or to 0 when the FDs force h(S) = 0 (cl S = cl {}); ``cols`` are
    the closed masks the mapped rows and objective use, ascending.
    ``rows[k]`` is ``(terms, rel, rhs)`` of one distinct mapped row, with
    ``terms`` its ``(column, coefficient)`` pairs, and ``index[k]`` the
    first constraint that maps to it, so row multipliers are constraint
    multipliers. A row that maps to nothing is dropped when it holds;
    ``contradiction`` is the first that does not, or None. ``full`` and
    ``reduced`` are the rows, cols and nnz before and after."""

    def __init__(self, sys: LinearSystem, objective: LinearFunctional | None, steps=()):
        close: dict = {}
        memo: dict = {}

        def closed(mask):
            out = memo.get(mask)
            if out is None:
                step = _first_step(steps, mask)
                out = memo[mask] = mask if step is None else closed(mask | step[1])
            return out

        empty = closed(0)

        def mapped(terms):
            acc: dict = {}
            for m, v in terms:
                c = close.get(m)
                if c is None:
                    c = closed(m)
                    c = close[m] = 0 if c == empty else c
                if c:
                    w = acc.get(c)
                    acc[c] = v if w is None else w + v
            return tuple(sorted(t for t in acc.items() if t[1]))

        distinct: dict = {}
        self.index = []
        self.contradiction = None
        nnz = 0
        for i, c in enumerate(sys.constraints):
            nnz += len(c.functional.terms)
            terms = mapped(c.functional.terms)
            if not terms:
                if self.contradiction is None and not _holds(ZERO, c.relation, c.rhs):
                    self.contradiction = i
                continue
            key = (terms, c.relation, c.rhs)
            if key not in distinct:
                distinct[key] = len(self.index)
                self.index.append(i)
        obj = mapped(objective.terms) if objective is not None else ()
        masks = {m for terms, _, _ in distinct for m, _ in terms}
        self.cols = sorted(masks.union(m for m, _ in obj))
        col_index = {m: j for j, m in enumerate(self.cols)}

        def terms_of(terms):
            return tuple((col_index[m], v) for m, v in terms)

        self.ground = sys.ground
        self.close = close
        self.rows = [(terms_of(terms), rel, rhs) for terms, rel, rhs in distinct]
        self.objective = terms_of(obj)
        self.full = {"rows": len(sys.constraints), "cols": len(close), "nnz": nnz}
        self.reduced = {
            "rows": len(self.rows),
            "cols": len(self.cols),
            "nnz": sum(len(terms) for terms, _, _ in self.rows),
        }

    def witness_from(self, x: Sequence) -> EntropyVector:
        """A reduced column vector lifted to every full mask: h(S) :=
        x(cl S), 0 where cl S = cl {} (or cl S is in no row)."""
        value = dict(zip(self.cols, x))
        lifted = {m: value.get(c, ZERO) for m, c in self.close.items()}
        return EntropyVector(self.ground, lifted, exact=True)

    def multipliers(self, lam: Mapping[int, object]) -> dict:
        """Reduced-row multipliers keyed by their constraint index."""
        return {self.index[k]: v for k, v in lam.items() if v != 0}


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
    status: str  # "optimal" | "infeasible"
    x: list | None = None  # point in the original free-variable space
    value: object | None = None
    duals: list | None = None  # public-convention multipliers per input row


def simplex_solve(ncols: int, rows, objective=()) -> SimplexResult:
    """Exact two-phase simplex with Bland's anti-cycling rule: minimize
    ``objective . x`` subject to ``rows`` over free variables.

    rows: ``(terms, rel, rhs)`` as in ``_Canon.rows``; objective: terms.
    For "infeasible" the duals are a Farkas certificate, for "optimal"
    they certify optimality (sum lam_i a_i = objective, sum lam_i b_i =
    value), both in the public sign convention. Raises ``DomainError``
    when the objective is unbounded below.

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
                return  # optimal
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
            if best_r is None:  # only phase 2 can be unbounded
                raise DomainError("the objective is unbounded below")
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
    run(obj)
    z = {basis[i]: row.get(rhs, ZERO) for i, row in enumerate(tableau)}
    x = [z.get(j, ZERO) - z.get(ncols + j, ZERO) for j in range(ncols)]
    duals = [-obj.get(nstruct + i, ZERO) * s for i, s in enumerate(signs)]
    value = sum((c * x[j] for j, c in objective), ZERO)
    return SimplexResult(status="optimal", x=x, value=value, duals=duals)


def _rationalize(values, max_den=_ANCHOR_DEN):
    return [Fraction(float(v)).limit_denominator(max_den) for v in values]


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


def _point_holds(rows, point) -> bool:
    """Every row ``(terms, rel, rhs)`` holds at ``point``, a mapping or a
    sequence from a term's key to its value (a key it lacks reads 0),
    checked over one integer denominator: the values are scaled once to
    ints over their least common denominator D, a row's left-hand side
    is then an int sum, and it holds against rhs = p/q when ``lhs * q``
    rel ``p * D`` does. A row with a non-integral coefficient sums as a
    Fraction. A value that is neither an int nor a Fraction is first
    converted exactly with ``Fraction``; a point holding a value with no
    exact rational (an infinity or a nan) holds no system."""
    items = point.items() if isinstance(point, Mapping) else enumerate(point)
    try:
        exact = {key: v if isinstance(v, (int, Fraction)) else Fraction(v) for key, v in items}
    except (OverflowError, ValueError):
        return False
    den = math.lcm(*{v.denominator for v in exact.values()})
    scaled = {key: v.numerator * (den // v.denominator) for key, v in exact.items()}
    for terms, rel, rhs in rows:
        lhs = sum(v * scaled.get(m, 0) for m, v in terms)
        if not _holds(lhs * rhs.denominator, rel, rhs.numerator * den):
            return False
    return True


def _exact_multipliers(canon: _Canon, lam_float, target, value):
    """Exactify float row multipliers: solve ``sum lam_i a_i = target``,
    ``sum lam_i b_i = value`` over their support, anchored at the
    rationalized floats, and check the result; None on a miss."""
    support = [i for i, v in enumerate(lam_float) if abs(v) > _SUPPORT_TOL]
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
    if _combination(canon.rows, lam) == (dict(target), value):
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
    if _point_holds(canon.rows, anchor):
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
    if x is not None and _point_holds(canon.rows, x):
        return x
    return None


# --- lifting reduced answers ------------------------------------------------------


def _part(*terms) -> tuple:
    """A functional as sorted ``(mask, coefficient)`` pairs, h({}) = 0 dropped."""
    return tuple(sorted((m, c) for m, c in terms if m))


def _mutual_parts(x: int, rest: int, given: int) -> list:
    """I(x; rest | given) as elementals, by the chain rule over ``rest``."""
    out = []
    for s in _bits(rest):
        out.append(_part((x | given, 1), (s | given, 1), (x | s | given, -1), (given, -1)))
        given |= s
    return out


def _conditional_parts(x: int, given: int, full: int) -> list:
    """h(x | given) = h(N) - h(N - x) + I(x; N - given - x | given) as
    elementals (Yeung's chain-rule expansion)."""
    return [_part((full, 1), (full ^ x, -1))] + _mutual_parts(x, full & ~(given | x), given)


def _lift_multipliers(sys: LinearSystem, canon: _Canon, steps, lam: dict, target=()):
    """Multipliers on the rows as given from constraint multipliers
    ``lam`` of the reduced rows, whose residual ``sum lam_i a_i - target``
    over the full masks sums to zero on every closure class: each
    nonzero residual r_S at a non-closed S is moved one closure step up,
    to S u x, smallest masks first, so residuals that meet on the way
    are merged before they are moved on. None when an elemental row
    this needs is not in the system."""
    out = dict(lam)
    resid: dict = {}
    for i, v in lam.items():
        for m, a in sys.constraints[i].functional.terms:
            resid[m] = resid.get(m, ZERO) + v * a
    for m, a in target:
        resid[m] = resid.get(m, ZERO) - a
    # the class of cl {} maps to h = 0 and need not sum to zero: give
    # h({}) the balancing residual and move it up the chain of {}
    resid[0] = -sum((v for m, v in resid.items() if m and not canon.close[m]), ZERO)
    full = sys.ground.full_mask
    # the first ">= 0" row of each functional
    ge_zero: dict = {}
    if any(resid.values()):
        for i, c in enumerate(sys.constraints):
            if c.relation == GE and not c.rhs:
                ge_zero.setdefault(c.functional.terms, i)

    def add(i, mult):
        out[i] = out.get(i, ZERO) + mult

    def add_elementals(parts, mult):
        for part in parts:
            i = ge_zero.get(part)
            if i is None:
                return False
            add(i, mult)
        return True

    for size in range(full.bit_count() + 1):
        for k in sorted(m for m, r in resid.items() if r and m.bit_count() == size):
            step = _first_step(steps, k)
            if step is None:
                continue
            b, x, rows, rest = step
            r = resid.pop(k)
            resid[k | x] = resid.get(k | x, ZERO) + r
            if r > 0:
                # r h(x|K): monotonicity, no FD needed
                if not add_elementals(_conditional_parts(x, k, full), r):
                    return None
                continue
            # r h(x|K) = r h(x|B) - r I(x; K-B | B), and r h(x|B) is r
            # times the derivation, whose elemental part is -h(rest | B x)
            parts = _mutual_parts(x, k & ~b, b)
            given = b | x
            for t in _bits(rest):
                parts += _conditional_parts(t, given, full)
                given |= t
            if not add_elementals(parts, -r):
                return None
            for i, d in rows.items():
                add(i, r * d)
    return {i: v for i, v in out.items() if v != 0}


# --- public operations ----------------------------------------------------------


def _elastic_verdict(canon: _Canon, trace: SolveTrace):
    """One elastic HiGHS solve made exact: Feasible, Infeasible, or None
    (its miss recorded in ``trace``) when the float answer cannot be
    reconstructed."""
    res, x_float, lam_float = _highs(canon, elastic=True)
    if x_float is None:
        trace.misses.append(f"highs status {res.status}")
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
                return Infeasible(canon.multipliers(lam))
    trace.misses.append("reconstruction miss")
    return None


def _optimum(canon: _Canon, trace: SolveTrace):
    """One HiGHS objective solve made exact: Optimal with its dual,
    Infeasible from the elastic solve, or None (miss recorded)."""
    res, x_float, lam_float = _highs(canon, objective=canon.objective)
    if res.status == 2:
        verdict = _elastic_verdict(canon, trace)
        if isinstance(verdict, Infeasible):
            return verdict
    if x_float is None:
        trace.misses.append(f"highs status {res.status}")
        return None
    x = _exact_point_from_float(canon, x_float)
    if x is not None:
        value = _row_dot(canon.objective, x)
        # exact dual certificate: sum lam_i a_i = objective, sum lam_i b_i = value
        lam = _exact_multipliers(canon, lam_float, canon.objective, value)
        if lam is not None:
            return Optimal(value, canon.witness_from(x), canon.multipliers(lam))
    trace.misses.append("reconstruction miss")
    return None


def _exact_fallback(canon: _Canon, optimize: bool = False):
    """The exact simplex over the canonical rows, made a verdict."""
    result = simplex_solve(len(canon.cols), canon.rows, canon.objective)
    lam = canon.multipliers(dict(enumerate(result.duals or ())))
    if result.status == "infeasible":
        return Infeasible(lam)
    if not optimize:
        return Feasible(canon.witness_from(result.x))
    return Optimal(result.value, canon.witness_from(result.x), lam)


def _settle(sys: LinearSystem, objective, warm: bool, steps=(), trace=None,
            paths=("full-float", "full-simplex")):
    """Reduce ``sys`` by the FD ``steps``, solve (HiGHS made exact when
    ``warm``, else or on a miss the exact simplex), lift, and return the
    lifted verdict if ``verify_certificate`` accepts it on the rows as
    given; None on a lift miss or a rejected verdict. With no steps this
    is the unreduced path."""
    trace = trace if trace is not None else SolveTrace()
    start = perf_counter()
    canon = _Canon(sys, objective, steps)
    trace.full, trace.reduced = canon.full, canon.reduced
    start = trace.lap("reduce", start)
    verdict, path = None, paths[1]
    if canon.contradiction is not None:
        # 0 rel b fails, so b > 0 on a ">=" row and b < 0 on a "<=" row
        rhs = sys.constraints[canon.contradiction].rhs
        verdict = Infeasible({canon.contradiction: ONE if rhs > 0 else -ONE})
    elif not canon.rows and objective is None:
        verdict = Feasible(canon.witness_from([ZERO] * len(canon.cols)))
    elif warm and canon.cols:
        verdict = _elastic_verdict(canon, trace) if objective is None else _optimum(canon, trace)
        path = paths[0]
        start = trace.lap("float", start)
    if verdict is None:
        verdict, path = _exact_fallback(canon, optimize=objective is not None), paths[1]
        start = trace.lap("simplex", start)
    trace.path = path
    if isinstance(verdict, Infeasible):
        lam = _lift_multipliers(sys, canon, steps, verdict.certificate)
        verdict = None if lam is None else Infeasible(lam)
    elif isinstance(verdict, Optimal):
        lam = _lift_multipliers(sys, canon, steps, verdict.dual_certificate, objective.terms)
        verdict = None if lam is None else Optimal(verdict.value, verdict.witness, lam)
    if verdict is not None and not verify_certificate(sys, verdict):
        verdict = None
    trace.lap("lift", start)
    return verdict


def _solve(sys: LinearSystem, objective, warm: bool):
    trace = SolveTrace()
    start = perf_counter()
    steps = _fd_steps(sys)
    trace.lap("fds", start)
    verdict = _settle(sys, objective, warm, steps, trace, ("reduced-float", "reduced-exact"))
    if verdict is None:
        trace.misses.append("lift miss")
        verdict = _settle(sys, objective, warm, (), trace)
        if verdict is None:
            raise RuntimeError("an unreduced verdict failed its check on the rows as given")
    lam = getattr(verdict, "certificate", None) or getattr(verdict, "dual_certificate", None)
    trace.support = len(lam or ())
    return replace(verdict, trace=trace)


def solve_feasibility(sys: LinearSystem, warm_start: bool = True):
    """Exact feasibility: Feasible(witness) or Infeasible(certificate)."""
    return _solve(sys, None, warm_start)


def minimize(sys: LinearSystem):
    """Exact optimization of ``sys.objective``: Optimal with a verified
    dual certificate, or Infeasible. Raises ``DomainError`` when there is
    no objective or it is unbounded below."""
    if sys.objective is None:
        raise DomainError("minimize requires an objective")
    return _solve(sys, sys.objective, True)


def verify_certificate(sys: LinearSystem, result) -> bool:
    """Re-validate a result by exact arithmetic, independent of the
    solver, against every constraint of ``sys`` as given: the check
    every verdict passes before ``solve_feasibility`` or ``minimize``
    returns it. A witness must be over ``sys.ground``; an Optimal needs
    ``sys.objective`` and a dual certificate. Every key of a certificate
    must be the index of a constraint."""
    if not isinstance(result, (Feasible, Infeasible, Optimal)):
        raise DomainError(f"unknown result type {type(result).__name__}")
    rows = [(c.functional.terms, c.relation, c.rhs) for c in sys.constraints]
    if not isinstance(result, Infeasible):
        # row masks are range-checked when the system is built
        if result.witness.ground != sys.ground or not _point_holds(rows, result.witness.values):
            return False
        if isinstance(result, Feasible):
            return True
    lam = result.certificate if isinstance(result, Infeasible) else result.dual_certificate
    if lam is None or not all(isinstance(i, int) and 0 <= i < len(rows) for i in lam):
        return False
    combo = _combination(rows, lam)
    if isinstance(result, Infeasible):
        return combo is not None and not combo[0] and combo[1] > 0
    return sys.objective is not None and combo == (dict(sys.objective.terms), result.value)
