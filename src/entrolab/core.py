"""Entropy vectors over a finite ground set and the Shannon (polymatroid) cone.

Subsets of the ground set are encoded as bitmasks (bit i set means
variable i is in the subset). The empty set has entropy zero by
convention and is never stored; an entropy vector assigns a rational
number of bits to each of the 2**n - 1 nonempty subsets.

Entropy of an explicit distribution is irrational in general. Values
are stored as dyadic rationals produced by fixed-precision base-2
logarithms (``PRECISION_BITS`` = 64 bits) and each
vector carries an ``exact`` flag: vectors whose marginals are all
uniform over power-of-two supports are exact by construction.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

import mpmath

PRECISION_BITS = 64

ZERO = Fraction(0)
ONE = Fraction(1)
#: Positive infinity marker for capacities. Kept distinct from rationals.
INF = float("inf")


def format_rational(value) -> str:
    """Render a rational as "a" or "a/b" (used by file formats)."""
    if value == INF:
        return "inf"
    q = Fraction(value)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def is_dyadic_unit(p) -> bool:
    """True iff p = 2**-k for some k >= 0 (entropy term is exact)."""
    n, d = p.numerator, p.denominator
    return n == 1 and d & (d - 1) == 0


class DomainError(ValueError):
    """Raised when an operation is called outside its stated domain."""


@dataclass(frozen=True)
class GroundSet:
    """Ordered set of random-variable labels; subset indices are bitmasks."""

    names: tuple[str, ...]

    def __init__(self, names: Iterable[str]):
        object.__setattr__(self, "names", tuple(names))
        if not 1 <= self.n <= 24:
            raise DomainError(f"ground set size {self.n} outside [1, 24]")
        if len(set(self.names)) != self.n or any(not x for x in self.names):
            raise DomainError("labels must be unique nonempty strings")

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise DomainError(f"unknown variable {name!r}") from None

    def mask(self, names: Iterable[str] | str) -> int:
        if isinstance(names, str):
            names = (names,)
        m = 0
        for name in names:
            m |= 1 << self.index(name)
        return m

    def subset_names(self, mask: int) -> tuple[str, ...]:
        return tuple(self.names[i] for i in range(self.n) if mask >> i & 1)

    def subsets(self) -> Iterable[int]:
        """All nonempty subset masks, ascending."""
        return range(1, 1 << self.n)


@dataclass(frozen=True)
class LinearFunctional:
    """Rational linear combination of entropy coordinates h(subset).

    ``terms`` are ``(mask, coefficient)`` pairs by ascending mask, with
    no zero coefficient. This is the one place the coefficient format is
    decided: an integral coefficient is stored as an ``int``, any other
    as an exact ``Fraction`` (floats and strings are converted exactly)."""

    terms: tuple[tuple[int, object], ...]

    def __init__(self, terms: Iterable[tuple[int, object]]):
        merged: dict[int, object] = {}
        for mask, coeff in terms:
            if mask <= 0:
                raise DomainError("functional terms must index nonempty subsets")
            merged[mask] = merged.get(mask, 0) + (coeff if type(coeff) is int else Fraction(coeff))
        object.__setattr__(self, "terms", tuple(sorted(
            (m, c.numerator if c.denominator == 1 else c) for m, c in merged.items() if c
        )))

    def evaluate(self, h: "EntropyVector"):
        return sum((c * h.value(mask) for mask, c in self.terms), ZERO)

    def scaled(self, factor) -> "LinearFunctional":
        f = Fraction(factor)
        return LinearFunctional([(m, c * f) for m, c in self.terms])

    def render(self, ground: GroundSet) -> str:
        parts = []
        for mask, coeff in self.terms:
            names = ",".join(ground.subset_names(mask))
            parts.append(f"{format_rational(coeff)}*h{{{names}}}")
        return " + ".join(parts) if parts else "0"


def conditional_functional(a_mask: int, b_mask: int) -> LinearFunctional:
    """h(A|B) = h(A u B) - h(B)."""
    if a_mask <= 0:
        raise DomainError("conditioned subset A must be nonempty")
    terms = [(a_mask | b_mask, 1)]
    if b_mask:
        terms.append((b_mask, -1))
    return LinearFunctional(terms)


def mutual_functional(a_mask: int, b_mask: int, c_mask: int = 0) -> LinearFunctional:
    """I(A;B|C) = h(AC) + h(BC) - h(ABC) - h(C)."""
    if a_mask <= 0 or b_mask <= 0:
        raise DomainError("subsets A, B must be nonempty")
    terms = [(a_mask | c_mask, 1), (b_mask | c_mask, 1), (a_mask | b_mask | c_mask, -1)]
    if c_mask:
        terms.append((c_mask, -1))
    return LinearFunctional(terms)


@dataclass(frozen=True)
class EntropyVector:
    """Entropy values (bits) for every nonempty subset of a ground set."""

    ground: GroundSet
    values: Mapping[int, object]
    exact: bool = True

    def value(self, mask: int):
        if mask == 0:
            return ZERO
        if mask < 0 or mask > self.ground.full_mask:
            raise DomainError(f"subset mask {mask} out of range")
        return self.values.get(mask, ZERO)


@dataclass(frozen=True)
class JointDistribution:
    """Exact pmf over a finite product sample space."""

    names: tuple[str, ...]
    alphabets: tuple[tuple[str, ...], ...]
    pmf: Mapping[tuple, object]

    def __init__(self, names, alphabets, pmf):
        names = tuple(names)
        alphabets = tuple(tuple(a) for a in alphabets)
        clean = {}
        for outcome, p in pmf.items():
            outcome = tuple(outcome)
            if len(outcome) != len(names):
                raise DomainError(f"outcome {outcome} has wrong arity")
            for sym, alpha in zip(outcome, alphabets):
                if sym not in alpha:
                    raise DomainError(f"symbol {sym!r} not in alphabet {alpha}")
            q = Fraction(p)
            if q < 0:
                raise DomainError(f"negative probability for {outcome}")
            if q > 0:
                clean[outcome] = clean.get(outcome, ZERO) + q
        if sum(clean.values(), ZERO) != 1:
            raise DomainError("probabilities must sum exactly to 1")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "alphabets", alphabets)
        object.__setattr__(self, "pmf", dict(clean))

    @property
    def ground(self) -> GroundSet:
        return GroundSet(self.names)

    def marginal(self, mask: int) -> dict[tuple, object]:
        idx = [i for i in range(len(self.names)) if mask >> i & 1]
        out: dict[tuple, object] = {}
        for outcome, p in self.pmf.items():
            key = tuple(outcome[i] for i in idx)
            out[key] = out.get(key, ZERO) + p
        return out

    def restrict(self, names: Sequence[str]) -> "JointDistribution":
        mask = self.ground.mask(names)
        idx = [i for i in range(len(self.names)) if mask >> i & 1]
        return JointDistribution(
            [self.names[i] for i in idx],
            [self.alphabets[i] for i in idx],
            self.marginal(mask),
        )

    def extend(self, name: str, func: Callable[[tuple], str]) -> "JointDistribution":
        """Adjoin a variable that is a deterministic function of the outcome."""
        table = {outcome: str(func(outcome)) for outcome in self.pmf}
        alphabet = sorted(set(table.values()))
        pmf = {outcome + (table[outcome],): p for outcome, p in self.pmf.items()}
        return JointDistribution(
            self.names + (name,), self.alphabets + (tuple(alphabet),), pmf
        )


def _entropy_of_probs(probs: Iterable) -> tuple[object, bool]:
    positive = [Fraction(p) for p in probs if p > 0]
    if all(is_dyadic_unit(p) for p in positive):
        # p = 2**-k contributes exactly k * 2**-k bits.
        return sum((p * p.denominator.bit_length() - p for p in positive), ZERO), True
    with mpmath.workprec(PRECISION_BITS + 32):
        acc = mpmath.mpf(0)
        for p in positive:
            x = mpmath.mpf(int(p.numerator)) / int(p.denominator)
            acc -= x * mpmath.log(x, 2)
        scale = 1 << PRECISION_BITS
        return Fraction(int(mpmath.nint(acc * scale)), scale), False


def entropy_of(dist: JointDistribution, subset):
    """Joint Shannon entropy (bits) of the marginal on ``subset``.

    ``subset`` is a bitmask over the variable order, or an iterable of
    variable names.
    """
    if not isinstance(subset, int):
        subset = dist.ground.mask(subset)
    if subset <= 0:
        raise DomainError("entropy of the empty set is 0 by convention; not queryable")
    return _entropy_of_probs(dist.marginal(subset).values())[0]


def entropy_vector_of(dist: JointDistribution) -> EntropyVector:
    """Brute-force entropy oracle: all 2**n - 1 coordinates of ``dist``."""
    ground = dist.ground
    values: dict[int, object] = {}
    exact = True
    for mask in ground.subsets():
        values[mask], e = _entropy_of_probs(dist.marginal(mask).values())
        exact = exact and e
    return EntropyVector(ground, values, exact=exact)


def elemental_count(n: int) -> int:
    if n == 1:
        return 1
    return n + math.comb(n, 2) * (1 << (n - 2))


def elemental_inequalities(n: int) -> list[LinearFunctional]:
    """Elemental Shannon inequalities, each required >= 0, for n variables.

    These generate the polymatroid cone: h(N) - h(N \\ i) >= 0 for each i,
    and I(i;j|K) >= 0 for each unordered pair i != j and K inside the rest.
    Count: n + C(n,2) * 2**(n-2) for n >= 2; a single h(1) >= 0 for n = 1.
    """
    if n < 1:
        raise DomainError("need at least one variable")
    if n == 1:
        return [LinearFunctional([(1, 1)])]
    full = (1 << n) - 1
    out = [conditional_functional(1 << i, full ^ (1 << i)) for i in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        rest = full ^ (1 << i) ^ (1 << j)
        subs = []
        sub = rest
        while True:
            subs.append(sub)
            if sub == 0:
                break
            sub = (sub - 1) & rest
        for k_mask in sorted(subs):
            out.append(mutual_functional(1 << i, 1 << j, k_mask))
    return out


def is_polymatroid(h: EntropyVector, tolerance=None) -> tuple[bool, list[LinearFunctional]]:
    """Check all elemental inequalities; returns (ok, violated list).

    Exact vectors are checked exactly. For approximate (dyadic-rounded)
    vectors a slack of 2**-(precision-16) absorbs rounding of analytic
    zeros, unless an explicit tolerance is given.
    """
    if tolerance is None:
        tolerance = ZERO if h.exact else Fraction(1, 1 << (PRECISION_BITS - 16))
    violated = [f for f in elemental_inequalities(h.ground.n) if f.evaluate(h) < -tolerance]
    return not violated, violated


def binary_entropy(q: float) -> float:
    """h_b(q) in bits, with h_b(0) = h_b(1) = 0."""
    q = float(q)
    if not 0.0 <= q <= 1.0:
        raise DomainError(f"probability {q} outside [0, 1]")
    if q in (0.0, 1.0):
        return 0.0
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)


def binary_entropy_inverse(delta: float) -> float:
    """The unique q in [0, 1/2] with h_b(q) = delta.

    Seventy bisection steps from [0, 1/2], each deciding h_b(mid) <
    delta. Near q = 1/2 the function is so flat that double arithmetic
    cannot separate h_b(q) from 1, which would cost several digits of
    the root, so the steps doubles cannot decide run in extended
    precision.

    A step is decided in doubles while |h_d(mid) - delta| > 1e-14, where
    h_d is ``binary_entropy``. Up to step 51, mid = k / 2^(step + 2) with
    k < 2^(step + 1) is a multiple of 2^-53 below 1/2, so mid and
    1 - mid are exact doubles. With each log2 within one ulp and each
    product and the difference rounded once, the terms (at most 0.531)
    and their difference (at most 1) put h_d(mid) within 4.6e-16 of
    h_b(mid): the margin is over 20 times that error. Past the margin
    h_b(mid) - delta has the sign of h_d(mid) - delta, and so has the
    40-digit value, whose error is below 1e-39; each decision, and the
    result, is the one of a bisection run wholly in 40 digits. From the
    first step the doubles cannot decide, the bisection goes on from its
    bracket in 40 digits."""
    delta = float(delta)
    if not 0.0 <= delta <= 1.0:
        raise DomainError(f"entropy {delta} outside [0, 1]")
    if delta == 0.0:
        return 0.0
    lo, hi = 0.0, 0.5
    step = 0
    while step < 52:
        mid = (lo + hi) / 2
        gap = binary_entropy(mid) - delta
        if abs(gap) <= 1e-14:
            break
        if gap < 0:
            lo = mid
        else:
            hi = mid
        step += 1
    with mpmath.workdps(40):
        target = mpmath.mpf(delta)

        def h(q):
            return -q * mpmath.log(q, 2) - (1 - q) * mpmath.log(1 - q, 2)

        lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
        for _ in range(step, 70):
            mid = (lo + hi) / 2
            if h(mid) < target:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


# --- JointDistribution file format ------------------------------------------


def distribution_to_json(dist: JointDistribution) -> dict:
    return {
        "variables": [
            {"name": n, "alphabet": list(a)} for n, a in zip(dist.names, dist.alphabets)
        ],
        "pmf": [
            {"outcome": list(outcome), "p": format_rational(p)}
            for outcome, p in sorted(dist.pmf.items())
        ],
    }


def distribution_from_json(data: dict) -> JointDistribution:
    try:
        names = [v["name"] for v in data["variables"]]
        alphabets = [v["alphabet"] for v in data["variables"]]
        pmf = {tuple(row["outcome"]): Fraction(str(row["p"])) for row in data["pmf"]}
    except (KeyError, TypeError) as exc:
        raise DomainError(f"malformed distribution file: {exc}") from exc
    return JointDistribution(names, alphabets, pmf)


def load_json(path: str):
    """The JSON value in the file at ``path``; DomainError naming the
    file and line when it is not valid JSON."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise DomainError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None


def load_distribution(path: str) -> JointDistribution:
    return distribution_from_json(load_json(path))


def uniform_bits(names: Sequence[str]) -> JointDistribution:
    """I.i.d. uniform binary variables with the given names."""
    names = tuple(names)
    outcomes = itertools.product("01", repeat=len(names))
    p = Fraction(1, 1 << len(names))
    return JointDistribution(names, [("0", "1")] * len(names), {o: p for o in outcomes})
