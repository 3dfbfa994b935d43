"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they are used to
check: binomial coefficients come from a Pascal-triangle recurrence,
medians from exhaustive enumeration against the defining inequalities,
reference roots from integer Newton iteration, and rational roots from
an exhaustive rational-root-theorem candidate scan.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from binomedian.median import FiniteDiscreteDist
from binomedian.polynomial import IntPolynomial

HALF = Fraction(1, 2)


def pascal_row(n: int) -> list[int]:
    """Row n of Pascal's triangle, built purely by the addition recurrence."""
    row = [1]
    for _ in range(n):
        row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]
    return row


def random_finite_dist(rng: random.Random, max_support: int = 12) -> FiniteDiscreteDist:
    """Random strictly increasing rational support with masses summing to 1."""
    size = rng.randint(1, max_support)
    points: set[Fraction] = set()
    while len(points) < size:
        points.add(Fraction(rng.randint(-30, 30), rng.randint(1, 12)))
    support = tuple(sorted(points))
    weights = [rng.randint(1, 20) for _ in range(size)]
    total = sum(weights)
    return FiniteDiscreteDist(support, tuple(Fraction(w, total) for w in weights))


def tail_at_most(dist: FiniteDiscreteDist, m: Fraction) -> Fraction:
    return sum((w for x, w in zip(dist.support, dist.probs) if x <= m), Fraction(0))


def tail_at_least(dist: FiniteDiscreteDist, m: Fraction) -> Fraction:
    return sum((w for x, w in zip(dist.support, dist.probs) if x >= m), Fraction(0))


def median_by_enumeration(dist: FiniteDiscreteDist):
    """Median classification by brute enumeration over the support.

    Collects every support point satisfying the weak inequalities, then
    checks the strict ones; returns ("unique", m) or ("interval", lo, hi).
    """
    weak = [
        x
        for x in dist.support
        if tail_at_most(dist, x) >= HALF and tail_at_least(dist, x) >= HALF
    ]
    strong = [
        x
        for x in weak
        if tail_at_most(dist, x) > HALF and tail_at_least(dist, x) > HALF
    ]
    if strong:
        assert len(strong) == 1
        return ("unique", strong[0])
    assert weak
    return ("interval", weak[0], weak[-1])


def isqrt_fraction(m: int, digits: int) -> Fraction:
    """sqrt(m) to `digits` decimal places via exact integer square root."""
    scale = 10**digits
    return Fraction(math.isqrt(m * scale * scale), scale)


def icbrt(m: int) -> int:
    """Floor cube root of m >= 0 by integer Newton iteration."""
    if m == 0:
        return 0
    x = 1 << (m.bit_length() // 3 + 2)
    while True:
        y = (2 * x + m // (x * x)) // 3
        if y >= x:
            break
        x = y
    while x * x * x > m:
        x -= 1
    while (x + 1) ** 3 <= m:
        x += 1
    return x


def icbrt_fraction(m: int, digits: int) -> Fraction:
    """cbrt(m) to `digits` decimal places via the integer Newton oracle."""
    scale = 10**digits
    return Fraction(icbrt(m * scale**3), scale)


def divisors(m: int) -> list[int]:
    """All positive divisors of m > 0, by trial division."""
    factors: dict[int, int] = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            factors[d] = factors.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        factors[m] = factors.get(m, 0) + 1
    divs = [1]
    for prime, mult in factors.items():
        divs = [dv * prime**e for dv in divs for e in range(mult + 1)]
    return sorted(divs)


def candidate_roots(poly: IntPolynomial) -> list[Fraction]:
    """Every rational that could be a root: ±q/r in lowest terms with
    q dividing |constant| and r dividing |leading| (plus 0 when x divides
    the polynomial)."""
    coeffs = poly.coeffs
    valuation = 0
    while coeffs[valuation] == 0:
        valuation += 1
    stripped = coeffs[valuation:]
    out = {Fraction(0)} if valuation > 0 else set()
    for q in divisors(abs(stripped[0])):
        for r in divisors(abs(stripped[-1])):
            if math.gcd(q, r) != 1:
                continue
            out.add(Fraction(q, r))
            out.add(Fraction(-q, r))
    return sorted(out)


def rational_root_scan(
    poly: IntPolynomial, open_interval: tuple[Fraction, Fraction]
) -> list[Fraction]:
    """All rational roots of an integer polynomial inside an open interval.

    Complete by the rational root theorem: every rational root q/r in
    lowest terms has q dividing the constant coefficient and r dividing
    the leading one, and every such candidate is evaluated exactly.  The
    candidate count grows with the divisors of the leading coefficient,
    so this is a small-degree oracle only.
    """
    if poly.is_zero:
        raise ValueError("polynomial must not be identically zero")
    lo, hi = Fraction(open_interval[0]), Fraction(open_interval[1])
    return [
        c
        for c in candidate_roots(poly)
        if lo < c < hi and poly.scaled_value(c.numerator, c.denominator) == 0
    ]
