"""Constructions of auxiliary random variables that tighten network LPs.

Three constructions:

* the maximal common function of a pair (connected components of the
  bipartite support graph), exact;
* a seeded local search for a variable K making H(K|X), H(K|Y) and
  I(X;Y|K) simultaneously small (an upper bound on the best possible
  max of the three; the landscape is non-convex and no optimality is
  claimed);
* a shared basis for sources that are uniform over subspaces of F_q^m,
  yielding auxiliaries K_1..K_m with pinned entropies.
"""

from __future__ import annotations

import itertools
import math
import random
import warnings as _warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .core import ZERO, DomainError, JointDistribution, _entropy_of_probs
from .network import AuxFunction, AuxSpec, NetworkProblem


# --- maximal common function ---------------------------------------------------


@dataclass(frozen=True)
class GKDecomposition:
    components: tuple[tuple[tuple, ...], ...]  # each a tuple of joint outcomes
    x_label: Mapping[str, str]  # value of X -> component label
    y_label: Mapping[str, str]
    entropy: object  # H(K), rational bits
    exact: bool

    def label_of(self, x_value: str) -> str:
        return self.x_label[x_value]


def gk_common_information(dist: JointDistribution) -> GKDecomposition:
    """Maximal variable that is a function of each coordinate separately.

    Two outcomes share a component when they share an X value or a Y
    value (transitively); K is the component index."""
    if len(dist.names) != 2:
        raise DomainError("common-information decomposition needs exactly two variables")
    support = sorted(dist.pmf)
    parent: dict = {}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for x, y in support:
        for node in (("x", x), ("y", y)):
            parent.setdefault(node, node)
        union(("x", x), ("y", y))
    roots = sorted({find(("x", x)) for x, _ in support})
    label = {root: str(i) for i, root in enumerate(roots)}
    comps: dict[str, list] = {l: [] for l in label.values()}
    probs: dict[str, object] = {l: ZERO for l in label.values()}
    x_label: dict[str, str] = {}
    y_label: dict[str, str] = {}
    for outcome in support:
        x, y = outcome
        l = label[find(("x", x))]
        comps[l].append(outcome)
        probs[l] += dist.pmf[outcome]
        x_label[x] = l
        y_label[y] = l
    h, exact = _entropy_of_probs(list(probs.values()))
    components = tuple(tuple(comps[l]) for l in sorted(comps))
    return GKDecomposition(components, x_label, y_label, h, exact)


# --- relaxed common information ------------------------------------------------


@dataclass(frozen=True)
class DeltaSearchResult:
    delta_achieved: float
    conditional: tuple[tuple[float, ...], ...]  # rows indexed by support pairs
    support: tuple[tuple, ...]
    components: tuple[float, float, float]  # (H(K|X), H(K|Y), I(X;Y|K))


def _plogp(p: float) -> float:
    return -p * math.log2(p) if p > 0 else 0.0


def _delta_components(classes, probs, q, k_size):
    """(H(K|X), H(K|Y), I(X;Y|K)) for conditional rows ``q`` over the
    support pairs; ``classes`` holds, for X and then for Y, the pair
    indices of each value in value order."""
    # masses[side][value][k]: P(value, K = k)
    masses = [
        [[sum(probs[i] * q[i][k] for i in cls) for k in range(k_size)] for cls in side]
        for side in classes
    ]
    h_given = []
    for side, side_masses in zip(classes, masses):
        h = 0.0
        for cls, mass in zip(side, side_masses):
            pc = sum(probs[i] for i in cls)
            for k in range(k_size):
                h += pc * _plogp(mass[k] / pc)
        h_given.append(h)
    ixy_k = 0.0
    for k in range(k_size):
        rk = sum(probs[i] * q[i][k] for i in range(len(probs)))
        if rk <= 0:
            continue
        hx = hy = hxy = 0.0
        for mass in masses[0]:
            hx += _plogp(mass[k] / rk)
        for mass in masses[1]:
            hy += _plogp(mass[k] / rk)
        for i in range(len(probs)):
            hxy += _plogp(probs[i] * q[i][k] / rk)
        ixy_k += rk * (hx + hy - hxy)
    return h_given[0], h_given[1], max(ixy_k, 0.0)


class _DeltaSums:
    """max(H(K|X), H(K|Y), I(X;Y|K)) of conditional rows ``q`` from
    running sums of ``_plogp`` over the joint masses P(X,K), P(Y,K),
    P(X,Y,K) and P(K): H(K|X) = H(XK) - H(X), H(K|Y) = H(YK) - H(Y) and
    I(X;Y|K) = H(XK) + H(YK) - H(XYK) - H(K). Moving one row changes
    only k entries of each sum, so ``moved`` makes O(k) ``_plogp`` calls
    where ``_delta_components`` makes O(|pairs| k)."""

    def __init__(self, classes, probs, k_size):
        self.classes, self.probs, self.k_size = classes, probs, k_size
        x_of, y_of = ({i: c for c, cls in enumerate(side) for i in cls} for side in classes)
        self.where = [(x_of[i], y_of[i]) for i in range(len(probs))]
        self.h_x, self.h_y = (
            sum(_plogp(sum(probs[i] for i in cls)) for cls in side) for side in classes
        )

    def reset(self, q) -> float:
        """Rebuild the sums from ``q``; returns its score."""
        probs, ks = self.probs, range(self.k_size)
        # [mass, _plogp(mass)] per entry of P(X,K), P(Y,K) and P(K)
        self.xk, self.yk = (
            [[_entry(sum(probs[i] * q[i][c] for i in cls)) for c in ks] for cls in side]
            for side in self.classes
        )
        self.k = [_entry(sum(p * row[c] for p, row in zip(probs, q))) for c in ks]
        self.sums = (
            sum(e[1] for side in self.xk for e in side),
            sum(e[1] for side in self.yk for e in side),
            sum(_plogp(p * v) for p, row in zip(probs, q) for v in row),
            sum(e[1] for e in self.k),
        )
        return self._max(*self.sums)

    def _max(self, s_xk, s_yk, s_xyk, s_k):
        return max(s_xk - self.h_x, s_yk - self.h_y, max(s_xk + s_yk - s_xyk - s_k, 0.0))

    def moved(self, i, old, new) -> float:
        """The score with row ``i`` of q moved from ``old`` to ``new``."""
        p = self.probs[i]
        cx, cy = self.where[i]
        xk, yk = self.xk[cx], self.yk[cy]
        s_xk, s_yk, s_xyk, s_k = self.sums
        for c, (a, b) in enumerate(zip(old, new)):
            if a != b:
                d = p * (b - a)
                s_xk += _plogp(xk[c][0] + d) - xk[c][1]
                s_yk += _plogp(yk[c][0] + d) - yk[c][1]
                s_xyk += _plogp(p * b) - _plogp(p * a)
                s_k += _plogp(self.k[c][0] + d) - self.k[c][1]
        return self._max(s_xk, s_yk, s_xyk, s_k)


def _entry(mass: float) -> tuple[float, float]:
    return mass, _plogp(mass)


def delta_star_search(
    dist: JointDistribution,
    k_alphabet: Optional[int] = None,
    resolution: int = 8,
    restarts: int = 4,
    seed: int = 0,
) -> DeltaSearchResult:
    """Minimize max(H(K|X), H(K|Y), I(X;Y|K)) over conditionals P(K|X,Y).

    Multi-start coordinate descent over a quantized simplex; the result
    is an upper bound on the true minimum, deterministic given the seed.
    Deterministic starting points (constant K, K=X, K=Y, K = maximal
    common function) are always included, so the result never exceeds
    their best value."""
    if len(dist.names) != 2:
        raise DomainError("search needs exactly two variables")
    if resolution < 2:
        raise DomainError("resolution must be at least 2")
    pairs = sorted(dist.pmf)
    probs = [float(dist.pmf[o]) for o in pairs]
    xs = sorted({x for x, _ in pairs})
    ys = sorted({y for _, y in pairs})
    if k_alphabet is None:
        k_alphabet = min(len(xs) * len(ys), 16)
    k = max(int(k_alphabet), 1)

    def pure(assign):
        return [tuple(1.0 if j == assign(o) else 0.0 for j in range(k)) for o in pairs]

    gk = gk_common_information(dist)
    starts = [pure(lambda o: 0)]
    if k >= len(xs):
        starts.append(pure(lambda o: xs.index(o[0])))
    if k >= len(ys):
        starts.append(pure(lambda o: ys.index(o[1])))
    if k >= len(gk.components):
        starts.append(pure(lambda o: int(gk.label_of(o[0]))))
    rng = random.Random(seed)
    for r in range(restarts):
        sub = random.Random(rng.randrange(1 << 30))
        q = []
        for _ in pairs:
            row = [sub.random() for _ in range(k)]
            s = sum(row)
            q.append(tuple(v / s for v in row))
        starts.append(q)

    classes = [
        [[i for i, o in enumerate(pairs) if o[axis] == v] for v in values]
        for axis, values in enumerate((xs, ys))
    ]

    def score(q):
        return max(_delta_components(classes, probs, q, k))

    sums = _DeltaSums(classes, probs, k)
    best_q, best = None, math.inf
    for q in starts:
        q = [tuple(r) for r in q]
        val = sums.reset(q)
        full = None  # score(q), computed only when a move is too close to call
        improved = True
        while improved:
            improved = False
            for i in range(len(pairs)):
                cur_row = q[i]
                for target in range(k):
                    e = tuple(1.0 if j == target else 0.0 for j in range(k))
                    for step in range(1, resolution + 1):
                        w = step / resolution
                        row = tuple((1 - w) * a + w * b for a, b in zip(cur_row, e))
                        if row == cur_row:
                            continue  # the same q: no improvement
                        v = sums.moved(i, cur_row, row)
                        margin = v - (val - 1e-12)
                        moved_full = None
                        if abs(margin) <= 1e-9:
                            # decide a close call as the full rescoring does
                            if full is None:
                                full = score(q)
                            q[i] = row
                            moved_full = score(q)
                            q[i] = cur_row
                            margin = moved_full - (full - 1e-12)
                        if margin < 0:
                            q[i] = cur_row = row
                            improved = True
                            val, full = sums.reset(q), moved_full
        if full is None:
            full = score(q)
        if full < best:
            best, best_q = full, q
    comps = _delta_components(classes, probs, best_q, k)
    return DeltaSearchResult(best, tuple(best_q), tuple(pairs), comps)


# --- pairwise auxiliaries for a network -----------------------------------------


def pairwise_aux_for_network(p: NetworkProblem, mode: str = "gk", **delta_params):
    """One auxiliary per unordered source pair.

    ``gk`` mode returns functional auxiliaries (the maximal common
    function of each pair, constant ones dropped); ``delta`` mode
    returns constraint rows H(K|Y_i) <= d, H(K|Y_j) <= d,
    I(Y_i;Y_j|K) <= d with d from the search. Returns (AuxSpec, rows)
    where rows is the list of emitted inequality templates."""
    dist = p.source_model.distribution
    if dist is None:
        raise DomainError("pairwise auxiliaries need an explicit source model")
    src = list(p.source_ids())
    functions: list[AuxFunction] = []
    rows: list = []
    names: list[str] = []
    for i, j in itertools.combinations(range(len(src)), 2):
        a, b = src[i], src[j]
        pair = dist.restrict([a, b])
        kid = f"K{i + 1}{j + 1}"
        if mode == "gk":
            gk = gk_common_information(pair)
            if len(gk.components) <= 1:
                continue  # constant: vacuous
            functions.append(AuxFunction(kid, (a,), dict(gk.x_label)))
        elif mode == "delta":
            res = delta_star_search(pair, **delta_params)
            d = Fraction(res.delta_achieved)
            names.append(kid)
            rows.extend(
                [
                    (((1, (kid, a)), (-1, (a,))), "<=", d),
                    (((1, (kid, b)), (-1, (b,))), "<=", d),
                    (
                        (
                            (1, (a, kid)),
                            (1, (b, kid)),
                            (-1, (a, b, kid)),
                            (-1, (kid,)),
                        ),
                        "<=",
                        d,
                    ),
                ]
            )
        else:
            raise DomainError(f"unknown mode {mode!r}")
    if mode == "gk":
        return AuxSpec(functions=tuple(functions)), []
    return AuxSpec(constraints=tuple(rows), names=tuple(names)), rows


# --- finite fields ----------------------------------------------------------------


def _factor_prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        raise DomainError("field order must be at least 2")
    for p in range(2, q + 1):
        if q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            if m != 1:
                raise DomainError(f"{q} is not a prime power")
            return p, k
    raise DomainError(f"{q} is not a prime power")


def _poly_rem(a: Sequence[int], mod: Sequence[int], p: int) -> list[int]:
    """Remainder of ``a`` modulo the monic ``mod`` over F_p; polynomials
    are coefficient lists, low degree first."""
    rem = list(a)
    deg = len(mod) - 1
    for top in range(len(rem) - 1, deg - 1, -1):
        lead = rem[top]
        if lead:
            for i, c in enumerate(mod):
                rem[top - deg + i] = (rem[top - deg + i] - lead * c) % p
    return rem[:deg]


class GF:
    """Arithmetic in F_q, q = p^k <= 256; elements are ints 0..q-1,
    base-p digits being polynomial coefficients (low degree first).

    ``poly`` is the first monic irreducible of degree k with a nonzero
    constant term, its low coefficients in ``itertools.product`` order;
    products are read off exp/log tables of the first element whose
    powers exhaust the nonzero elements."""

    def __init__(self, q: int):
        if q > 256:
            raise DomainError("field order limited to 256")
        self.q = q
        p, k = _factor_prime_power(q)
        self.p, self.k = p, k
        self.poly = next(
            mod
            for mod in (list(tail) + [1] for tail in itertools.product(range(p), repeat=k))
            if mod[0]
            and all(
                any(_poly_rem(mod, list(tail) + [1], p))
                for d in range(1, k // 2 + 1)
                for tail in itertools.product(range(p), repeat=d)
            )
        )
        self._exp = next(
            exp for exp in map(self._powers, range(1, q)) if len(set(exp)) == q - 1
        )
        self._log = [0] * q
        for i, v in enumerate(self._exp):
            self._log[v] = i

    def _digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.k):
            out.append(a % self.p)
            a //= self.p
        return out

    def _value(self, digits: Sequence[int]) -> int:
        val = 0
        for c in reversed(digits):
            val = val * self.p + c % self.p
        return val

    def _powers(self, g: int) -> list[int]:
        """1, g, ..., g^(q-2), multiplying polynomials modulo ``poly``."""
        dg = self._digits(g)
        out = [1]
        for _ in range(self.q - 2):
            prod = [0] * (2 * self.k)
            for i, x in enumerate(self._digits(out[-1])):
                for j, y in enumerate(dg):
                    prod[i + j] += x * y
            out.append(self._value(_poly_rem(prod, self.poly, self.p)))
        return out

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        return self._value([x + y for x, y in zip(self._digits(a), self._digits(b))])

    def neg(self, a: int) -> int:
        if self.k == 1:
            return -a % self.p
        return self._value([-x for x in self._digits(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DomainError("zero has no inverse")
        return self._exp[-self._log[a] % (self.q - 1)]


def _column_reduce(field: GF, columns: list[list[int]], context: str) -> list[list[int]]:
    """Independent subset of the given column vectors, in order."""
    basis: list[tuple[list[int], int]] = []  # (reduced vector, pivot index)
    kept = []
    for col in columns:
        v = list(col)
        for bvec, piv in basis:
            if v[piv]:
                f = field.mul(v[piv], field.inv(bvec[piv]))
                v = [field.sub(a, field.mul(f, b)) for a, b in zip(v, bvec)]
        piv = next((i for i, a in enumerate(v) if a), None)
        if piv is None:
            _warnings.warn(f"{context}: dependent generator column dropped")
            continue
        basis.append((v, piv))
        kept.append(list(col))
    return kept


@dataclass(frozen=True)
class SubspaceModel:
    """Sources uniform over subspaces of F_q^m with a shared basis.

    ``generators`` maps a source name to its generator matrix, stored as
    a list of columns, each a length-m vector over F_q."""

    q: int
    m: int
    generators: Mapping[str, Sequence[Sequence[int]]]

    def __post_init__(self):
        field = GF(self.q)
        gens = {}
        for name, cols in dict(self.generators).items():
            cols = [list(c) for c in cols]
            for c in cols:
                if len(c) != self.m:
                    raise DomainError(f"{name}: generator column has wrong dimension")
                if any(not (0 <= v < self.q) for v in c):
                    raise DomainError(f"{name}: entry outside the field")
            gens[name] = _column_reduce(field, cols, name)
        object.__setattr__(self, "generators", gens)

    def distribution(self) -> JointDistribution:
        """Uniform joint distribution of the basis variables K_1..K_m
        and the sources Y = K A (components joined by ``,``)."""
        field = GF(self.q)
        knames = [f"K{j + 1}" for j in range(self.m)]
        pmf = {}
        p = Fraction(1, self.q**self.m)
        for kvec in itertools.product(range(self.q), repeat=self.m):
            outcome = [str(v) for v in kvec]
            for name in self.generators:
                comps = []
                for col in self.generators[name]:
                    acc = 0
                    for kj, aj in zip(kvec, col):
                        acc = field.add(acc, field.mul(kj, aj))
                    comps.append(str(acc))
                outcome.append(",".join(comps))
            pmf[tuple(outcome)] = p
        names = knames + list(self.generators)
        alphabets = [tuple(str(v) for v in range(self.q))] * self.m + [
            tuple(sorted({o[self.m + i] for o in pmf}))
            for i in range(len(self.generators))
        ]
        return JointDistribution(names, alphabets, pmf)


def _uniform_entropy(count: int):
    h, _ = _entropy_of_probs([Fraction(1, count)] * count)
    return h


def linear_basis_aux(model: SubspaceModel):
    """Auxiliaries K_1..K_m (i.i.d. uniform over F_q) and the rows they
    satisfy jointly with the sources. Returns (AuxSpec, rows); rows are
    also embedded in the AuxSpec as constraint templates."""
    m, q = model.m, model.q
    knames = [f"K{j + 1}" for j in range(m)]
    rows: list = []
    for r in range(1, m + 1):
        for combo in itertools.combinations(knames, r):
            rows.append((((1, combo),), "==", _uniform_entropy(q**r)))
    for name, cols in model.generators.items():
        support = [knames[j] for j in range(m) if any(col[j] for col in cols)]
        if support:
            # the source is a function of its supporting basis variables
            rows.append(
                (((1, tuple([name] + support)), (-1, tuple(support))), "==", ZERO)
            )
            # and its entropy is its dimension (independent columns) in
            # units of log2 q
            rows.append((((1, (name,)),), "==", _uniform_entropy(q ** len(cols))))
        else:
            rows.append((((1, (name,)),), "==", ZERO))
    return AuxSpec(constraints=tuple(rows), names=tuple(knames)), rows
