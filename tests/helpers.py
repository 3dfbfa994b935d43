"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they are used to
check: binomial coefficients come from a Pascal-triangle recurrence,
medians from exhaustive enumeration against the defining inequalities,
reference roots from integer Newton iteration, rational roots from an
exhaustive rational-root-theorem candidate scan, the CDF polynomials from
two binomial coefficients per term or, like P(1 - x), from explicit
polynomial products, -P(1 - x) also from a Taylor shift, enclosures from
a bisection that carries both ends and tests the gap as a Fraction or that starts
from [0, 1] without a Newton guess and with its step count from a Fraction
1 / width, `table` rows from one `isolate_root`
call per k, binomial masses, CDFs and medians from a chain of Fraction
mass ratios, polynomial values from a Fraction Horner loop, and decimal
renderings from Fraction products.  `mc_median_check` is the suite's one
floating-point oracle: an empirical median from seeded samples.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from binomedian.critical import (
    Bracket,
    ExactRoot,
    FalsificationError,
    _checked_poly,
    isolate_root,
)
from binomedian.distribution import BinomialParams, binomial_weights
from binomedian.median import (
    FiniteDiscreteDist,
    MedianInterval,
    MedianResult,
    UniqueMedian,
    median_binomial,
)
from binomedian.polynomial import IntPolynomial
from binomedian.rational import decimal_string, format_rational

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


def comb_cdf_polynomial(n: int, j: int) -> IntPolynomial:
    """`critical._cdf_coeffs`'s closed form 1 + sum_{s>j} (-1)^(s-j) C(n,s) C(s-1,j) x^s,
    with two binomial coefficients per term."""
    tail = [
        (-1) ** (s - j) * math.comb(n, s) * math.comb(s - 1, j)
        for s in range(j + 1, n + 1)
    ]
    return IntPolynomial([1] + [0] * j + tail)


def pascal_cdf_polynomial(n: int, j: int) -> IntPolynomial:
    """sum_{i<=j} C(n,i) x^i (1-x)^(n-i), expanded term by term with every
    (1-x)^m taken from a Pascal-style table of rows."""
    powers = [[1]]
    for m in range(1, n + 1):
        prev = powers[-1]
        nxt = [0] * (m + 1)
        for idx, c in enumerate(prev):
            nxt[idx] += c
            nxt[idx + 1] -= c
        powers.append(nxt)
    acc = [0] * (n + 1)
    for i in range(j + 1):
        coeff = math.comb(n, i)
        for t, c in enumerate(powers[n - i]):
            acc[i + t] += coeff * c
    return IntPolynomial(acc)


def sign_at(poly: IntPolynomial, x: Fraction) -> int:
    """Sign of P(x): -1, 0, or +1."""
    v = poly.scaled_value(x.numerator, x.denominator)
    return (v > 0) - (v < 0)


def poly_add(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """p + q, coefficient by coefficient."""
    a, b = p.coeffs, q.coeffs
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return IntPolynomial(out)


def poly_mul(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """p * q by schoolbook convolution."""
    out = [0] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return IntPolynomial(out)


def product_one_minus_x_power(m: int) -> IntPolynomial:
    """(1-x)^m as m polynomial products."""
    poly = IntPolynomial((1,))
    for _ in range(m):
        poly = poly_mul(poly, IntPolynomial((1, -1)))
    return poly


def horner_compose_one_minus_x(poly: IntPolynomial) -> IntPolynomial:
    """P(1 - x) by Horner's scheme over polynomial products."""
    result = IntPolynomial(())
    for c in reversed(poly.coeffs):
        result = poly_add(poly_mul(result, IntPolynomial((1, -1))), IntPolynomial((c,)))
    return result


def taylor_reflect(coeffs) -> list[int]:
    """Coefficients of -P(1 - x), where coeffs are those of P.

    With c_i the coefficients of P, -P(1 - x) has x^j coefficient
    (-1)^(j+1) sum_{i>=j} C(i,j) c_i: a Taylor shift to P(1 + y) by
    synthetic division (integer additions only), then y = -x and the
    negation fold into one sign per coefficient.  Trimmed input gives
    trimmed output: the leading coefficient only changes sign.  O(n^2)
    additions per polynomial; `critical._walk` is tested against it.
    """
    shifted = list(coeffs)
    for i in range(len(shifted) - 1):
        for j in range(len(shifted) - 2, i - 1, -1):
            shifted[j] += shifted[j + 1]
    return [c if j % 2 else -c for j, c in enumerate(shifted)]


def fraction_gap_bisect(poly: IntPolynomial, width: Fraction):
    """Bisection of a polynomial with P(0) > 0 > P(1), carrying both ends
    over a power-of-two denominator and testing the gap as a Fraction.

    Stops on the same conditions as the library (gap <= width, both ends
    interior) and raises FalsificationError after
    4 * steps(width) + 256 steps, steps(width) counted by halving.
    """
    steps_for_width = 0
    while Fraction(1, 2**steps_for_width) > width:
        steps_for_width += 1
    lo_n, hi_n, t = 0, 1, 0
    while True:
        scale = 1 << t
        if Fraction(hi_n - lo_n, scale) <= width and 0 < lo_n and hi_n < scale:
            return Bracket(Fraction(lo_n, scale), Fraction(hi_n, scale))
        if t >= 4 * steps_for_width + 256:
            raise FalsificationError("step cap")
        mid_n = lo_n + hi_n
        t += 1
        lo_n <<= 1
        hi_n <<= 1
        sign = poly.scaled_value(mid_n, 1 << t)
        if sign == 0:
            return ExactRoot(Fraction(mid_n, 1 << t))
        if sign > 0:
            lo_n = mid_n
        else:
            hi_n = mid_n


def fraction_steps_for(width: Fraction) -> int:
    """Bisection steps after which the gap 2^-t is <= width, from the
    Fraction 1 / width: the bit length of ceil(1 / width) - 1."""
    inv = 1 / width
    ceil_inv = -((-inv.numerator) // inv.denominator)
    return max(ceil_inv - 1, 0).bit_length()


def bisection_enclose(n: int, k: int, width: Fraction):
    """`isolate_root` without its Newton start: plain bisection from
    [0, 1], with the same stop conditions and step cap."""
    poly = _checked_poly(n, k)
    steps = fraction_steps_for(width)
    lo, t = 0, 0
    while not (t >= steps and 0 < lo and lo + 1 < 1 << t):
        if t >= 4 * steps + 256:
            raise FalsificationError(
                "bisection exceeded its step cap before reaching the target bracket"
            )
        t += 1
        mid = 2 * lo + 1
        sign = poly.scaled_value(mid, 1 << t)
        if sign == 0:
            return ExactRoot(Fraction(mid, 1 << t))
        lo = mid if sign > 0 else 2 * lo
    return Bracket(Fraction(lo, 1 << t), Fraction(lo + 1, 1 << t))


def isolate_root_table_rows(n: int, width: Fraction, digits: int) -> list[dict]:
    """The `table` rows of one n, from one `isolate_root` bisection per k."""
    rows = []
    for k in range(1, n + 1):
        enclosure = isolate_root(n, k, width)
        doc = enclosure.to_json_dict(digits)
        if isinstance(enclosure, ExactRoot):
            doc["decimal"] = decimal_string(enclosure.root, digits)
        rows.append(
            {
                "n": n,
                "k": k,
                "kind": doc["type"],
                "value": doc.get("root"),
                "lo": doc.get("lo"),
                "hi": doc.get("hi"),
                "decimal": doc["decimal"],
            }
        )
    return rows


def fraction_pmf_sequence(params: BinomialParams) -> Iterator[Fraction]:
    """P(X = 0), ..., P(X = n), each the previous mass times the Fraction
    ratio (n-k)p / ((k+1)(1-p))."""
    n, p = params.n, params.p
    if p == 1:
        for _ in range(n):
            yield Fraction(0)
        yield Fraction(1)
        return
    ratio = p / (1 - p)
    mass = (1 - p) ** n
    yield mass
    for k in range(n):
        mass = mass * ratio * (n - k) / (k + 1)
        yield mass


def fraction_cdf(k: int, params: BinomialParams) -> Fraction:
    """P(X <= k) as a running Fraction sum of `fraction_pmf_sequence`."""
    if k < 0:
        return Fraction(0)
    if k >= params.n:
        return Fraction(1)
    total = Fraction(0)
    for i, mass in enumerate(fraction_pmf_sequence(params)):
        total += mass
        if i == k:
            break
    return total


def fraction_median_binomial(n: int, p: Fraction):
    """Median of B(n, p) from the first running Fraction sum >= 1/2 of
    `fraction_pmf_sequence`; exactly 1/2 is the interval case."""
    cumulative = Fraction(0)
    for k, mass in enumerate(fraction_pmf_sequence(BinomialParams(n, p))):
        cumulative += mass
        if cumulative >= HALF:
            if cumulative == HALF:
                return MedianInterval(Fraction(k), Fraction(k + 1))
            return UniqueMedian(Fraction(k))
    raise AssertionError("unreachable: masses sum to 1")


def fraction_horner(poly: IntPolynomial, x: Fraction | int) -> Fraction:
    """P(x) by Horner's scheme in Fraction arithmetic."""
    value = Fraction(0)
    for c in reversed(poly.coeffs):
        value = value * x + c
    return value


def _fraction_scaled_floor(x: Fraction, digits: int) -> int:
    """floor(x * 10**digits) for x >= 0, via a Fraction product."""
    scaled = x * 10**digits
    return scaled.numerator // scaled.denominator


def fraction_decimal_string(x: Fraction, digits: int) -> str:
    """`rational.decimal_string` from the reduced Fraction x * 10**digits:
    the shortest exact form when it is an integer, else rounded half to
    even at `digits` places."""
    scale = 10**digits
    num, den = (x * scale).numerator, (x * scale).denominator
    if den == 1:
        q = num
        d = digits
        while d > 0 and q % 10 == 0:
            q //= 10
            d -= 1
        if d == 0:
            return str(q)
        ip, fp = divmod(q, 10**d)
        return f"{ip}.{str(fp).zfill(d)}"
    q, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and q % 2 == 1):
        q += 1
    ip, fp = divmod(q, scale)
    return f"{ip}.{str(fp).zfill(digits)}"


def fraction_shared_prefix_decimal(lo: Fraction, hi: Fraction, digits: int) -> str:
    """`rational.shared_prefix_decimal` from the Fraction floors of
    lo * 10**digits and hi * 10**digits, cut back until they agree."""
    d = digits
    tl = _fraction_scaled_floor(lo, d)
    th = _fraction_scaled_floor(hi, d)
    while d > 0 and tl != th:
        tl //= 10
        th //= 10
        d -= 1
    if d == 0:
        return str(tl)
    ip, fp = divmod(tl, 10**d)
    return f"{ip}.{str(fp).zfill(d)}"


@dataclass(frozen=True)
class McMedianCheck:
    """Agreement verdict between an empirical and the exact median."""

    n: int
    p: Fraction
    samples: int
    seed: int
    exact: MedianResult
    empirical_median: int
    agrees: bool

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "p": format_rational(self.p),
            "samples": self.samples,
            "seed": self.seed,
            "exact": self.exact.to_json_dict(),
            "empirical_median": self.empirical_median,
            "agrees": self.agrees,
        }


def mc_median_check(
    n: int, p: Fraction | int, samples: int, seed: int
) -> McMedianCheck:
    """Draw binomial variates by inverting the exact CDF and compare the
    empirical median with the exact classification.

    The exact CDF, built as running sums of the integer pmf weights, is
    converted to double precision once; uniforms come from a
    `random.Random(seed)` stream, so runs are reproducible bit-for-bit.
    Variates are tallied per value, and the empirical median is read off
    the tallies with the lower-midpoint convention for even sample counts.
    A UniqueMedian must be hit exactly; a MedianInterval accepts any
    empirical median inside it.

    False-failure odds: with margin d = min |CDF boundary - 1/2| over the
    boundaries adjacent to the exact median, Hoeffding gives failure
    probability at most 2*exp(-2*samples*d^2).  At samples = 10^6 any
    margin above 0.0034 keeps that below 1e-9; the acceptance
    configuration (n=10, p=3/10) has margin ~0.117.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 unsigned bits")
    params = BinomialParams(n, p)
    exact = median_binomial(params.n, params.p)
    a, b = params.p.numerator, params.p.denominator
    scale = b**params.n
    # int / int rounds correctly, as float(Fraction) does
    thresholds = [
        running / scale
        for running in itertools.accumulate(binomial_weights(params.n, a, b - a))
    ]
    rng = random.Random(seed)
    counts = [0] * (params.n + 1)
    for _ in range(samples):
        counts[bisect.bisect_left(thresholds, rng.random())] += 1
    # lower-midpoint order statistic: the first value whose running tally exceeds its rank
    empirical = bisect.bisect_right(list(itertools.accumulate(counts)), (samples - 1) // 2)
    if isinstance(exact, UniqueMedian):
        agrees = empirical == exact.m
    else:
        agrees = exact.m1 <= empirical <= exact.m2
    return McMedianCheck(
        n=params.n,
        p=params.p,
        samples=samples,
        seed=seed,
        exact=exact,
        empirical_median=empirical,
        agrees=agrees,
    )
