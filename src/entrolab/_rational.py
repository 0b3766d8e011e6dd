"""Exact rational arithmetic backend.

All decision-relevant arithmetic in this package is exact. We prefer
gmpy2's mpq (C implementation, much faster on large simplex workloads)
and fall back to the stdlib Fraction when gmpy2 is unavailable. Both
types expose ``numerator``/``denominator`` and interoperate with ints,
so everything downstream is backend-agnostic.

Run ``scripts/bench_rational_backends.py`` to compare the two backends
on a representative elimination workload.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

try:
    from gmpy2 import mpq as _mpq

    BACKEND = "gmpy2"
except ImportError:  # pragma: no cover - exercised only without gmpy2
    _mpq = Fraction
    BACKEND = "fraction"

RationalLike = Union[int, str, float, Fraction]

#: Positive infinity marker for capacities. Kept distinct from rationals.
INF = float("inf")


def rational(value: RationalLike, den: int | None = None):
    """Coerce ``value`` to the backend rational type.

    Accepts ints, backend rationals, Fractions, floats (converted
    exactly) and strings in either "a/b" or decimal form.
    """
    if den is not None:
        return _mpq(value) / _mpq(den)
    if isinstance(value, str):
        # Fraction handles both "3/4" and "0.75"; mpq only the former.
        return _mpq(Fraction(value.strip()))
    return _mpq(value)


def format_rational(value) -> str:
    """Render a rational as "a" or "a/b" (used by file formats)."""
    if value == INF:
        return "inf"
    q = _mpq(value)
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
