"""Exact binomial pmf, CDF, and survival function at rational p.

Everything here runs on one integer kernel.  At p = a/b with c = b - a,
`binomial_weights` yields the weights w_i = C(n, i)·a^i·c^(n-i), so that
P(X = i) = w_i / b^n and the weights sum to b^n.  It walks the term-ratio
recurrence

    w_0 = c^n,    w_{i+1} = w_i·(n - i)·a // ((i + 1)·c),

and every division is exact: w_i·(n - i)·a = C(n, i+1)·(i + 1)·a^(i+1)·c^(n-i).
A scan therefore runs on integers of about n·log2(b) bits with no gcd per
step, and the one `Fraction` a caller needs is built at the end.  The CDF
sums whichever tail is shorter, by the reflection
F(k; n, a/b) = 1 - F(n - k - 1; n, c/b).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from fractions import Fraction
from itertools import islice, repeat

from ._record import Record, set_field
from .rational import as_exact

__all__ = [
    "ParameterError",
    "BinomialParams",
    "binomial_weights",
    "pmf",
    "cdf",
    "survival",
    "pmf_sequence",
]


class ParameterError(ValueError):
    """Trial count or success probability outside the valid domain."""


class BinomialParams(Record):
    """Trial count n >= 0 and exact success probability 0 <= p <= 1."""

    __slots__ = _fields = ("n", "p")
    n: int
    p: Fraction

    def __init__(self, n: int, p: Fraction) -> None:
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ParameterError(f"n must be a nonnegative integer, got {n!r}")
        if type(p) is not Fraction:  # an exact Fraction is kept as it is
            p = as_exact(p)
        # on the lowest-terms ints: two Fraction comparisons cost more than the rest
        if not 0 <= p.numerator <= p.denominator:
            raise ParameterError(f"p must lie in [0, 1], got {p}")
        set_field(self, "n", n)
        set_field(self, "p", p)


def binomial_weights(n: int, a: int, c: int) -> Iterator[int]:
    """Yield w_i = C(n, i)·a^i·c^(n-i) for i = 0, ..., n, for a, c >= 0.

    At p = a/(a + c) these are the masses P(X = i) scaled by (a + c)^n.
    Each step of the recurrence is one exact integer division.
    """
    if c == 0:
        # point mass at n; the recurrence would divide by c = 0
        yield from repeat(0, n)
        yield a**n
        return
    w = c**n
    yield w
    for i in range(n):
        w = w * ((n - i) * a) // ((i + 1) * c)
        yield w


def pmf(k: int, params: BinomialParams) -> Fraction:
    """P(X = k), exactly; zero outside 0 <= k <= n."""
    n, p = params.n, params.p
    if k < 0 or k > n:
        return Fraction(0)
    a, b = p.numerator, p.denominator
    return Fraction(math.comb(n, k) * a**k * (b - a) ** (n - k), b**n)


def pmf_sequence(params: BinomialParams) -> Iterator[Fraction]:
    """Yield P(X = 0), ..., P(X = n), one integer weight per mass."""
    n, p = params.n, params.p
    a, b = p.numerator, p.denominator
    total = b**n
    for w in binomial_weights(n, a, b - a):
        yield Fraction(w, total)


def cdf(k: int, params: BinomialParams) -> Fraction:
    """P(X <= k), exactly; clamped to 0 below the support and 1 above.

    Sums min(k + 1, n - k) weights: the lower tail directly, or the upper
    tail as the lower tail of n - X ~ B(n, 1 - p).
    """
    n, p = params.n, params.p
    if k < 0:
        return Fraction(0)
    if k >= n:
        return Fraction(1)
    a, b = p.numerator, p.denominator
    total = b**n
    if k + 1 <= n - k:
        return Fraction(sum(islice(binomial_weights(n, a, b - a), k + 1)), total)
    upper = sum(islice(binomial_weights(n, b - a, a), n - k))
    return Fraction(total - upper, total)


def survival(k: int, params: BinomialParams) -> Fraction:
    """P(X >= k) = 1 - P(X <= k-1), exactly."""
    return 1 - cdf(k - 1, params)
