"""Exact rational arithmetic: the stdlib ``Fraction`` throughout.

All decision-relevant arithmetic in this package is exact, so every
rational here is a ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

RationalLike = Union[int, str, float, Fraction]

#: Positive infinity marker for capacities. Kept distinct from rationals.
INF = float("inf")


def rational(value: RationalLike, den: int | None = None):
    """Coerce ``value`` to a ``Fraction``.

    Accepts ints, Fractions, floats (converted exactly) and strings in
    either "a/b" or decimal form.
    """
    if den is not None:
        return Fraction(value) / Fraction(den)
    return Fraction(value)


def format_rational(value) -> str:
    """Render a rational as "a" or "a/b" (used by file formats)."""
    if value == INF:
        return "inf"
    q = Fraction(value)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_capacity(text: str):
    """Parse a capacity field: a rational string or "inf"."""
    if text.strip().lower() in ("inf", "infinity", "+inf"):
        return INF
    return rational(text)


def is_dyadic_unit(p) -> bool:
    """True iff p = 2**-k for some k >= 0 (entropy term is exact)."""
    n, d = p.numerator, p.denominator
    return n == 1 and d & (d - 1) == 0


ZERO = rational(0)
ONE = rational(1)
