"""Exact rational plumbing shared by every other module.

All probabilities, roots, and enclosure endpoints in this package are
`fractions.Fraction` values, which are always kept in canonical form
(positive denominator, gcd(|num|, den) = 1, zero as 0/1).  This module adds
the pieces Fraction does not ship with: strict coercion and parsing of
the "num/den" wire form, and exact decimal rendering that never invents
digits.
"""

from __future__ import annotations

import re
from fractions import Fraction

__all__ = [
    "ZeroDenominatorError",
    "RationalParseError",
    "parse_rational",
    "format_rational",
    "as_exact",
    "decimal_string",
    "shared_prefix_decimal",
]


class ZeroDenominatorError(ValueError):
    """A rational was parsed with denominator zero."""


class RationalParseError(ValueError):
    """A rational string did not match the "A" or "A/B" form."""


_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


def parse_rational(text: str) -> Fraction:
    """Parse "A/B" or a bare integer "A" (meaning A/1) into a Fraction.

    Decimal-point input is deliberately rejected: callers that mean a
    rational must say so explicitly.
    """
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise RationalParseError(f"malformed rational {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise ZeroDenominatorError(f"zero denominator in {text!r}")
    return Fraction(num, den)


def format_rational(x: Fraction) -> str:
    """Serialize in canonical "num/den" form, e.g. "1/2", "-3/7", "0/1"."""
    return f"{x.numerator}/{x.denominator}"


def as_exact(x: Fraction | int) -> Fraction:
    """Coerce an int or Fraction to Fraction; floats are never accepted.

    A float would be silently replaced by its binary expansion, which is
    exactly the kind of precision smuggling this package exists to avoid.
    """
    if not isinstance(x, (int, Fraction)) or isinstance(x, bool):
        raise TypeError(f"expected an exact rational (int or Fraction), got {type(x).__name__}")
    return Fraction(x)


def _fixed_point(q: int, d: int) -> str:
    """q / 10**d in plain decimal notation with exactly d places, q >= 0."""
    if d == 0:
        return str(q)
    ip, fp = divmod(q, 10**d)
    return f"{ip}.{str(fp).zfill(d)}"


def decimal_string(x: Fraction, digits: int) -> str:
    """Decimal rendering of a nonnegative rational.

    If the expansion terminates within `digits` places the exact (shortest)
    form is returned; otherwise the value is correctly rounded to exactly
    `digits` places, ties to even.
    """
    if x < 0:
        raise ValueError("decimal_string expects a nonnegative value")
    if digits < 1:
        raise ValueError("digits must be >= 1")
    q, r = divmod(x.numerator * 10**digits, x.denominator)
    d = digits
    if r == 0:
        # terminates within the budget: trim to the shortest exact form
        while d > 0 and q % 10 == 0:
            q //= 10
            d -= 1
    elif 2 * r > x.denominator or (2 * r == x.denominator and q % 2 == 1):
        q += 1
    return _fixed_point(q, d)


def shared_prefix_decimal(lo: Fraction, hi: Fraction, digits: int) -> str:
    """Digits of the decimal expansion certified by the bracket [lo, hi].

    Both endpoints are expanded to `digits` places and the rendering stops
    at the last place on which they still agree, so every emitted digit is
    a true digit of any value inside the bracket.
    """
    if not 0 <= lo <= hi:
        raise ValueError("expected 0 <= lo <= hi")
    if digits < 1:
        raise ValueError("digits must be >= 1")
    d = digits
    tl = lo.numerator * 10**d // lo.denominator
    th = hi.numerator * 10**d // hi.denominator
    while d > 0 and tl != th:
        tl //= 10
        th //= 10
        d -= 1
    return _fixed_point(tl, d)
