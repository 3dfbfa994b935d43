"""Median classification for binomial distributions.

A point m is a (weak) median of X when P(X <= m) >= 1/2 and
P(X >= m) >= 1/2, and the unique (strong) median when both inequalities
are strict.  When no strong median exists the medians form a closed
interval whose endpoints both lie in the support and carry exact half
tails, reported by its endpoints.

`median_binomial` decides the binomial case on integers.  At p = a/b, k is
the least point with P(X <= k) >= 1/2 exactly when 2·Σ_{i<=k} w_i >= b^n,
for the weights w_i = C(n, i)·a^i·(b - a)^(n-i) of
`distribution.binomial_weights`, and equality is the interval case.  For
p > 1/2 it uses the reflection median(n, p) = n - median(n, 1 - p), which
maps an interval [m1, m2] to [n - m2, n - m1].  The median lies in
{floor(np), ceil(np)} (Kaas & Buhrman 1980), so the scan stops after about
min(np, n(1 - p)) steps.  p = 0 and p = 1 need no special case: at b = 1
the weights are (1, 0, ..., 0), so the scan stops at k = 0, and the
reflection maps p = 1 to n.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record, set_field
from .distribution import BinomialParams, binomial_weights
from .rational import format_rational

__all__ = [
    "UniqueMedian",
    "MedianInterval",
    "MedianResult",
    "median_binomial",
]


class UniqueMedian(Record):
    __slots__ = _fields = ("m",)
    m: Fraction

    def __init__(self, m: Fraction) -> None:
        set_field(self, "m", m)

    def to_json_dict(self) -> dict:
        return {"type": "unique", "m": format_rational(self.m)}


class MedianInterval(Record):
    __slots__ = _fields = ("m1", "m2")
    m1: Fraction
    m2: Fraction

    def __init__(self, m1: Fraction, m2: Fraction) -> None:
        set_field(self, "m1", m1)
        set_field(self, "m2", m2)

    def to_json_dict(self) -> dict:
        return {
            "type": "interval",
            "m1": format_rational(self.m1),
            "m2": format_rational(self.m2),
        }


MedianResult = UniqueMedian | MedianInterval


def median_binomial(n: int, p: Fraction | int) -> MedianResult:
    """Median of B(n, p), scanning the integer weights of the shorter tail."""
    params = BinomialParams(n, p)
    a, b = params.p.numerator, params.p.denominator
    # above 1/2, scan n - X ~ B(n, 1 - p): the shorter tail.  At p = 1/2 either
    # scan gives the same answer: B(n, 1/2) is symmetric, so its median is its
    # own reflection, and `>=` here would change no output.
    reflect = 2 * a > b
    if reflect:
        a = b - a
    total = b**n
    cumulative = 0
    for k, weight in enumerate(binomial_weights(n, a, b - a)):
        cumulative += weight
        if 2 * cumulative >= total:
            break
    tie = 2 * cumulative == total
    m1, m2 = k, (k + 1 if tie else k)
    if reflect:
        m1, m2 = n - m2, n - m1
    if tie:
        return MedianInterval(Fraction(m1), Fraction(m2))
    return UniqueMedian(Fraction(m1))
