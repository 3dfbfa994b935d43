"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they are used to
check: binomial coefficients come from a Pascal-triangle recurrence,
medians from exhaustive enumeration against the defining inequalities,
reference roots from integer Newton iteration, rational roots from an
exhaustive rational-root-theorem candidate scan, the CDF polynomials from
two binomial coefficients per term or, like P(1 - x), from explicit
polynomial products, -P(1 - x) also from a Taylor shift, the battery's
identity verdicts from one O(n^2) walk over the binomial terms, enclosures from
a bisection that carries both ends and tests the gap as a Fraction or that starts
from [0, 1] without a Newton guess and with its step count from a Fraction
1 / width, Halley steps from the derivative's exact powers, `table` rows from
one `isolate_root` call per k, the battery's ordering verdict from enclosures
at the requested width alone, binomial masses, CDFs and medians from a chain of Fraction
mass ratios, polynomial values from a Fraction Horner loop, and decimal
renderings from Fraction products.  Two oracles use floating point:
`mc_median_check`, an empirical median from seeded samples, and
`tests/test_newton_start.py::half_margin`, a float CDF whose rounding
error is bounded well below the margins it decides.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple

from binomedian.critical import (
    Bracket,
    ExactRoot,
    FalsificationError,
    _checked_poly,
    _horner_floor,
    isolate_root,
)
from binomedian.distribution import BinomialParams, binomial_weights
from binomedian.median import MedianInterval, MedianResult, UniqueMedian, median_binomial
from binomedian.polynomial import IntPolynomial
from binomedian.rational import decimal_string, format_rational

HALF = Fraction(1, 2)


class Masses(NamedTuple):
    """A finite distribution as increasing support points and their masses;
    nothing checks that the masses are positive or sum to 1."""

    support: tuple[Fraction, ...]
    probs: tuple[Fraction, ...]


def binomial_masses(n: int, p: Fraction) -> Masses:
    """B(n, p) from `fraction_pmf_sequence`, with the zero masses dropped."""
    pairs = [
        (Fraction(k), mass)
        for k, mass in enumerate(fraction_pmf_sequence(BinomialParams(n, p)))
        if mass
    ]
    return Masses(tuple(x for x, _ in pairs), tuple(w for _, w in pairs))


def tail_at_most(dist: Masses, m: Fraction) -> Fraction:
    return sum((w for x, w in zip(dist.support, dist.probs) if x <= m), Fraction(0))


def tail_at_least(dist: Masses, m: Fraction) -> Fraction:
    return sum((w for x, w in zip(dist.support, dist.probs) if x >= m), Fraction(0))


def weak_medians(dist: Masses) -> list[tuple[Fraction, Fraction, Fraction]]:
    """(x, P(X <= x), P(X >= x)) for every support point x with both tails
    at least 1/2, the tails running sums over the support in each direction."""
    at_most = itertools.accumulate(dist.probs)
    at_least = reversed(list(itertools.accumulate(reversed(dist.probs))))
    return [
        (x, le, ge)
        for x, le, ge in zip(dist.support, at_most, at_least)
        if le >= HALF and ge >= HALF
    ]


def median_by_enumeration(dist: Masses):
    """Median classification by brute enumeration over the support.

    Collects every support point satisfying the weak inequalities, then
    checks the strict ones; returns ("unique", m) or ("interval", lo, hi).
    """
    weak = weak_medians(dist)
    strong = [x for x, le, ge in weak if le > HALF and ge > HALF]
    if strong:
        assert len(strong) == 1
        return ("unique", strong[0])
    assert weak
    return ("interval", weak[0][0], weak[-1][0])


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
    """sum_{i<=j} C(n,i) x^i (1-x)^(n-i) from the closed form
    1 + sum_{s>j} (-1)^(s-j) C(n,s) C(s-1,j) x^s (derived at `critical.critical_poly`),
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


def twice_less_one(poly: IntPolynomial) -> IntPolynomial:
    """2 P - 1: P_{n,k} from the CDF polynomial B(k-1; n, x)."""
    return IntPolynomial([2 * c - (s == 0) for s, c in enumerate(poly.coeffs)])


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
    additions per polynomial; `walk` is tested against it.
    """
    shifted = list(coeffs)
    for i in range(len(shifted) - 1):
        for j in range(len(shifted) - 2, i - 1, -1):
            shifted[j] += shifted[j + 1]
    return [c if j % 2 else -c for j, c in enumerate(shifted)]


def walk(n: int, indices) -> Iterator[tuple[int, list[int], list[int]]]:
    """(i, R_i, 2 T_i / x^i) for each i in `indices`, descending, from one walk
    R_{n+1} = 1, R_i = R_{i+1} - 2 T_i down to the least of them, with
    T_i = C(n,i) x^i (1-x)^(n-i).

    By the binomial theorem the T_m sum to 1, so R_i = 2 B(i-1; n, x) - 1,
    the definition of P_{n,i}, and R_i = -(2 B(n-i; n, 1-x) - 1), the
    reflection -P_{n,n-i+1}(1 - x) of the partner's; P'_{n,i} = -i x^(i-1) (2 T_i / x^i).
    The walk runs in the basis (-1)^s C(n,s) x^s, the terms of (1-x)^n, whose
    row comes from `math.comb`: there the x^s coefficient of T_i is
    (-1)^i C(s,i), since C(n,i) C(n-i,s-i) = C(n,s) C(s,i), and column i of
    Pascal's triangle follows from column i+1 by C(s,i) = C(s+1,i+1) - C(s,i+1).
    O(n^2) additions per n; `critical._derivative_matches` and
    `verify._check_identities` are tested against it.
    """
    row = [(-1) ** s * math.comb(n, s) for s in range(n + 1)]
    # in that basis, r holds R_i and col[t] = 2 (-1)^i C(i+t, i) the x^(i+t) coefficient of 2 T_i
    r, col = [1] + [0] * n, []
    for i in range(n, min(indices) - 1, -1):
        col = [b - a for a, b in zip(col, [0] + col)]
        col.append(2 * row[i])
        r[i:] = [a - b for a, b in zip(r[i:], col)]
        if i in indices:
            yield i, [a * b for a, b in zip(row, r)], [a * b for a, b in zip(row[i:], col)]


def walk_identities(
    n: int, polys: list[IntPolynomial]
) -> tuple[tuple[int, str | None], tuple[int, str | None]]:
    """`verify._check_identities` by one `walk` over every index: P_{n,i} = R_i
    for both members of a pair proves its reflection identity, reported at the
    pair's lower index, and each step's term gives P'_{n,i}, reported as j = i-1."""
    bad_pairs, bad_js = [], []
    for i, r, term in walk(n, range(1, n + 1)):
        coeffs = polys[i - 1].coeffs
        if list(coeffs) != r:
            bad_pairs.append(min(i, n - i + 1))
        if [s * c for s, c in enumerate(coeffs)][1:] != [0] * (i - 1) + [-i * c for c in term]:
            bad_js.append(i - 1)
    reflection = f"n={n} i={min(bad_pairs)} reflection identity failed" if bad_pairs else None
    derivative = f"n={n} j={min(bad_js)} derivative identity failed" if bad_js else None
    return (n, reflection), (n, derivative)


def walk_matches(poly: IntPolynomial, n: int, k: int) -> bool:
    """Whether `poly` is R_k of the `walk`, P_{n,k} as its definition."""
    ((_, r, _),) = walk(n, {k})
    return list(poly.coeffs) == r


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


def dyadic_value(poly, m: int, t: int) -> int:
    """2^(t*d) P(m / 2^t) for P = `poly` of degree d >= 0, exactly, with no
    help from the library's kernels.  It is `scaled_value`'s homogenised
    Horner sum c_j m^j den^(d-j) with den = 2^t, so each den^(d-j) is a
    shift by t*(d-j) bits."""
    coeffs = poly.coeffs
    d = len(coeffs) - 1
    value = coeffs[-1]
    for j in range(d - 1, -1, -1):
        value = value * m + (coeffs[j] << t * (d - j))
    return value


def bisection_enclose(n: int, k: int, width: Fraction, poly=None):
    """`isolate_root` without its start: plain bisection from [0, 1], with
    the same stop conditions and step cap, on `poly` where it is given and
    else on critical_poly(n, k)."""
    poly = _checked_poly(n, k, poly)
    steps = fraction_steps_for(width)
    lo, t = 0, 0
    while not (t >= steps and 0 < lo and lo + 1 < 1 << t):
        if t >= 4 * steps + 256:
            raise FalsificationError(
                "bisection exceeded its step cap before reaching the target bracket"
            )
        t += 1
        mid = 2 * lo + 1
        sign = dyadic_value(poly, mid, t)
        if sign == 0:
            return ExactRoot(Fraction(mid, 1 << t))
        lo = mid if sign > 0 else 2 * lo
    return Bracket(Fraction(lo, 1 << t), Fraction(lo + 1, 1 << t))


def exact_halley_step(
    poly: IntPolynomial, n: int, k: int, m: int, s: int, guard: int, scale: int
) -> int:
    """`critical._halley_step` with D = 2n C(n-1,k-1) m^(k-1) y^(n-k) multiplied
    out exactly, an integer of about s n bits, in place of its cut powers."""
    value = _horner_floor(poly, m, s, s + guard)
    y = (1 << s) - m
    num, den = value << s * (n - 1), scale * m ** (k - 1) * y ** (n - k)
    d = num // den
    two_xy = 2 * m * y
    den = two_xy + d * ((k - 1) * y - (n - k) * m)
    return m + (d * two_xy // den if den > 0 else d)


def fine_monotonicity(n: int, width: Fraction) -> tuple[int, str | None]:
    """`verify._check_monotonicity` as it ran before its coarse first pass:
    one `isolate_root` enclosure per root at `width` alone, and every
    adjacent pair disjoint and ascending.  n = 1 has nothing to compare."""
    if n == 1:
        return 1, None
    try:
        intervals = [
            (e.root, e.root) if isinstance(e, ExactRoot) else (e.lo, e.hi)
            for e in (isolate_root(n, k, width) for k in range(1, n + 1))
        ]
    except FalsificationError as exc:
        return 1, f"n={n} {exc}"
    for k in range(1, n):
        if intervals[k - 1][1] >= intervals[k][0]:
            return 1, f"n={n} roots {k} and {k + 1} of n={n} are not separated at width {width}"
    return 1, None


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
