"""Critical probabilities of the binomial median and their certificates.

For 1 <= k <= n the critical probability is the unique p in (0, 1) where
the binomial CDF satisfies B(k-1, n, p) = 1/2, i.e. where the median of
B(n, p) degenerates to the interval [k-1, k].  Clearing denominators turns
that condition into an integer polynomial with value +1 at p = 0 and -1 at
p = 1, so bisection with rigorous signs yields certified enclosures.  Each
sign is fixed-point Horner at about t + log2(n) bits for m / 2^t under an
absolute error bound, exact only where that bound cannot tell (`_sign_at`).
Halley steps from Kerman's start (Kerman 2011) put bisection straight onto
its final dyadic cell: at 35 digits, 4 Horner passes reach it and 2 signs
prove it, where bisection alone takes about 117 signs.
Its coefficients come from the closed form (derived in `_cdf_coeffs`)
1 + 2 * sum_{s=k}^{n} (-1)^(s-k+1) C(n,s) C(s-1,k-1) x^s, so the constant
coefficient is 1 by construction.

The certificates check the reflection identity, and `verify`'s battery both
it and the derivative identity, against one walk per n (`_walk`), with no
polynomial arithmetic.  With T_m = C(n,m) x^m (1-x)^(n-m),
it runs R_{n+1} = 1, R_i = R_{i+1} - 2 T_i down to the lowest index asked
for.  By the binomial theorem the T_m sum to (x + (1 - x))^n = 1, so
R_i = 2 sum_{m<i} T_m - 1 = 2 B(i-1; n, x) - 1, the definition of P_{n,i};
and R_i = 1 - 2 sum_{m>=i} T_m = -(2 B(n-i; n, 1-x) - 1), the reflection
-P_{n,n-i+1}(1 - x) of the partner's definition.  So P_{n,i} = R_i and
P_{n,n-i+1} = R_{n-i+1}, both compared coefficient by coefficient, prove
that the library's pair reflects.  Each step's term also gives the right
side of P'_{n,i} = -2n C(n-1,i-1) x^(i-1) (1-x)^(n-i) = -2 i T_i / x.

The irrationality certificates mechanize a three-way case split:

* odd n with k in the middle: the polynomial vanishes exactly at 1/2;
* k above the middle: the exact integer 2^n P(1/2) = 2 sum_{i<k} C(n,i) - 2^n
  is positive and P(1) = -1, so the root lies in (1/2, 1); the constant
  coefficient is 1, so by the rational root theorem every rational root
  has the form ±1/r for a positive integer r, and no such number lies in
  (1/2, 1), so the root is irrational;
* k below the middle: the polynomial is the reflection -P(1 - x) of its
  partner's P at index n-k+1 (both equal R from the walk), so the root is
  1 minus the partner's and inherits its irrationality.

Certificates rest on exact facts alone and never bisect.  A status's
`enclosure`, the one `isolate_root` returns, is bisected on first read, and
a lower index reflects its partner's: n enclosures bisect only the upper half.

Every branch re-checks the exact facts it relies on and raises
FalsificationError instead of ever passing silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Collection, Iterable, Iterator, Union

from .polynomial import IntPolynomial, _from_ints
from .rational import binomial_coeff, format_rational, shared_prefix_decimal

__all__ = [
    "DEFAULT_WIDTH",
    "FalsificationError",
    "ExactRoot",
    "Bracket",
    "RootEnclosure",
    "ExactRational",
    "IrrationalUpperHalf",
    "IrrationalBySymmetry",
    "IrrationalityCertificate",
    "critical_poly",
    "isolate_root",
    "certify",
    "certify_range",
]

_HALF = Fraction(1, 2)

#: Default enclosure width, two powers of ten tighter than anything a
#: 25-digit comparison could notice; about 100 bisection steps.
DEFAULT_WIDTH = Fraction(1, 10**30)


class FalsificationError(RuntimeError):
    """An exact fact a certificate depends on failed to verify.

    This is the loud counterpart of a silent pass: it can only trigger on
    an implementation bug or an actual counterexample to the uniqueness
    theorem, and either deserves a crash.
    """


# ---------------------------------------------------------------------------
# enclosures


@dataclass(frozen=True)
class ExactRoot:
    """A rational point where the polynomial evaluates to exactly zero."""

    root: Fraction

    def to_json_dict(self, digits: int = 30) -> dict:
        return {"type": "exact", "root": format_rational(self.root)}


@dataclass(frozen=True)
class Bracket:
    """lo < hi with rigorously proved opposite polynomial signs at the ends."""

    lo: Fraction
    hi: Fraction

    def to_json_dict(self, digits: int = 30) -> dict:
        return {
            "type": "bracket",
            "lo": format_rational(self.lo),
            "hi": format_rational(self.hi),
            "decimal": shared_prefix_decimal(self.lo, self.hi, digits),
        }


RootEnclosure = Union[ExactRoot, Bracket]


# ---------------------------------------------------------------------------
# polynomial construction


def _cdf_coeffs(n: int, j: int) -> list[int]:
    """Coefficients of the full expansion of sum_{i=0}^{j} C(n,i) x^i (1-x)^(n-i),
    0 <= j <= n, from the closed form 1 + sum_{s=j+1}^{n} (-1)^(s-j) C(n,s) C(s-1,j) x^s.

    The coefficient of x^s is sum_{i<=min(j,s)} (-1)^(s-i) C(n,i) C(n-i,s-i).
    Since C(n,i) C(n-i,s-i) = C(n,s) C(s,i), it equals
    (-1)^s C(n,s) sum_{i<=min(j,s)} (-1)^i C(s,i).  For s <= j that sum is
    (1-1)^s, so the constant is 1 and x^1 .. x^j vanish; for s > j the
    partial alternating sum is (-1)^j C(s-1,j).  Term s+1 is exactly term s
    times -(n-s) s / ((s+1)(s-j)): C(n,s)(n-s) = C(n,s+1)(s+1), C(s-1,j) s = C(s,j)(s-j).
    """
    coeffs, term = [1] + [0] * j, -binomial_coeff(n, j + 1)
    for s in range(j + 1, n + 1):
        coeffs.append(term)
        term = -term * (n - s) * s // ((s + 1) * (s - j))
    return coeffs


def critical_poly(n: int, k: int) -> IntPolynomial:
    """The integer polynomial 2*B(k-1, n, x) - 1, fully expanded.

    Degree is exactly n and the constant coefficient is exactly 1; its
    unique root in (0, 1) is the critical probability for (n, k).
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    coeffs = [2 * c for c in _cdf_coeffs(n, k - 1)]
    coeffs[0] -= 1
    return _from_ints(coeffs)


def _one_minus_x_power(m: int) -> list[int]:
    """Coefficients of (1-x)^m: the one of x^t is (-1)^t C(m,t), and term
    t+1 is exactly term t times -(m-t)/(t+1), since C(m,t)(m-t) = C(m,t+1)(t+1)."""
    coeffs = [1]
    for t in range(m):
        coeffs.append(-coeffs[-1] * (m - t) // (t + 1))
    return coeffs


def _walk(
    n: int, indices: Collection[int]
) -> Iterator[tuple[int, list[int], list[int]]]:
    """(i, R_i, 2 T_i / x^i) for each i in `indices`, descending, from one walk
    R_{n+1} = 1, R_i = R_{i+1} - 2 T_i down to the least of them.

    R_i = 2 B(i-1; n, x) - 1 = -P_{n,n-i+1}(1 - x) by the binomial theorem
    (module docstring).  The walk runs in the basis (-1)^s C(n,s) x^s, the
    terms of (1-x)^n: there the x^s coefficient of T_i is (-1)^i C(s,i),
    because C(n,i) C(n-i,s-i) = C(n,s) C(s,i), and column i of Pascal's
    triangle follows from column i+1 by C(s,i) = C(s+1,i+1) - C(s,i+1), with
    C(n,i) from the row.  So a step is O(n - i) additions; only the R_i and
    terms asked for are multiplied out.
    """
    row = _one_minus_x_power(n)
    # in that basis, r holds R_i and col[t] = 2 (-1)^i C(i+t, i) the x^(i+t) coefficient of 2 T_i
    r, col = [1] + [0] * n, []
    for i in range(n, min(indices) - 1, -1):
        col = [b - a for a, b in zip(col, [0] + col)]
        col.append(2 * row[i])
        r[i:] = [a - b for a, b in zip(r[i:], col)]
        if i in indices:
            # lists: a tuple built from a map object is resized as it fills, and
            # that raised the battery's young-generation collections 2.5-fold,
            # promoting more short-lived cyclic garbage (peak RSS +25%)
            yield i, list(map(mul, row, r)), list(map(mul, row[i:], col))


# ---------------------------------------------------------------------------
# bisection


def _steps_for(width: Fraction) -> int:
    """Bisection steps after which the bracket gap 2^-t is <= width: the bit
    length of ceil(den / num) - 1, for width = num / den in lowest terms."""
    return max(-(-width.denominator // width.numerator) - 1, 0).bit_length()


def _checked_poly(n: int, k: int) -> IntPolynomial:
    """critical_poly plus the endpoint sign facts bisection relies on."""
    poly = critical_poly(n, k)
    if poly.constant != 1 or sum(poly.coeffs) != -1:
        raise FalsificationError(
            f"polynomial for (n={n}, k={k}) lost its endpoint values +1/-1"
        )
    return poly


def _horner_floor(poly: IntPolynomial, m: int, t: int, q: int) -> int:
    """V with V <= P(x) * 2^q < V + degree at x = m / 2^t, 0 <= m <= 2^t, q >= t.

    Horner as a floor chain at q fractional bits: X = m << (q - t),
    V = c_d << q, then V = ((V * X) >> q) + (c_j << q) for j = d-1 .. 0.
    Coefficient additions are exact and each floor drops less than one unit;
    since 0 <= x <= 1, the error carried into a step does not grow, so after
    d steps it lies in [0, d).  The bound is absolute: neither the size of
    the coefficients (up to about 4^n) nor their cancellation enters it.
    """
    x = m << (q - t)
    value = poly.coeffs[-1] << q
    for c in poly.coeffs[-2::-1]:
        value = ((value * x) >> q) + (c << q)
    return value


def _sign_at(poly: IntPolynomial, m: int, t: int) -> int:
    """The sign of P(m / 2^t), 0 <= m <= 2^t: root isolation's one sign kernel.

    `_horner_floor` at q = t + bit_length(degree) + 16 bits proves +1 when
    V > 0 and -1 when V + degree <= 0; otherwise the exact `scaled_value`
    decides, and only it reports 0.  One try suffices: the only undecided
    signs met in practice are exact zeros (the odd middle root 1/2), which
    no precision decides.
    """
    d = poly.degree
    value = _horner_floor(poly, m, t, t + d.bit_length() + 16)
    if value > 0:
        return 1
    if value + d <= 0:
        return -1
    value = poly.scaled_value(m, 1 << t)
    return (value > 0) - (value < 0)


#: A Halley step at a scale below this many bits multiplies and divides
#: exactly; at or above it, `_halley_step` cuts its operands to the bits the
#: step needs.  Cutting costs a fixed dozen integer operations and saves time
#: that grows with the square of the scale: interleaved timings on CPython
#: 3.11 put the break-even near 1,300 bits at n = 2 and 400 bits at n = 60.
_CUT_BITS = 1024


def _quotient(a: int, b: int, guard: int) -> int:
    """a // b or one off it, for b > 0 and guard >= 3, from the top bits of a and b.

    Both drop r low bits, where b >> r keeps `guard` bits more than the
    quotient has, so the cut quotient is within 2^(3 - guard) of a / b before
    the floor.  CPython's division takes time (quotient bits) x (divisor
    bits), so the cost follows the quotient's length alone.
    """
    r = max(b.bit_length() - max(abs(a).bit_length() - b.bit_length(), 0) - guard, 0)
    return (a >> r) // (b >> r)


def _halley_step(
    poly: IntPolynomial, n: int, k: int, m: int, s: int, guard: int, scale: int
) -> int | None:
    """m plus Halley's increment toward the root of P = `poly` from x = m / 2^s,
    0 < m < 2^s, or None where P(m / 2^s) is exactly zero; `scale` is
    2n C(n-1,k-1) 2^guard.

    With y = 2^s - m and D = 2n C(n-1,k-1) m^(k-1) y^(n-k), P'(x) = -D / 2^(s*(n-1)),
    and V = `_horner_floor` at q = s + guard bits, Newton's increment is
    d = V 2^(s*(n-1)) / (D 2^guard).  P' is a Beta(k, n-k+1) density times a
    constant, so P''/P' = (k-1)/x - (n-k)/(1-x), and Halley's increment
    d / (1 + d P''/(2 P')) is d 2my / (2my + d c) = d - d^2 c / (2my + d c) with
    c = (k-1) y - (n-k) m: no further evaluation.  Where 2my + d c is not
    positive, the step is Newton's d.  Where V cannot tell P's sign, the exact
    `scaled_value` decides whether P is zero.

    From `_CUT_BITS` on, d comes from `_quotient`, and the correction
    d^2 c / (2my + d c), about 2 bits(d) - s bits long, from d, m and y cut to
    that many bits plus 2 guard: each is then off by a few units of 2^-s.
    """
    value = _horner_floor(poly, m, s, s + guard)
    if not (value > 0 or value + n <= 0) and poly.scaled_value(m, 1 << s) == 0:
        return None
    y = (1 << s) - m
    num, den = value << s * (n - 1), scale * m ** (k - 1) * y ** (n - k)
    if s < _CUT_BITS:
        d = num // den
        two_xy = 2 * m * y
        den = two_xy + d * ((k - 1) * y - (n - k) * m)
        return m + (d * two_xy // den if den > 0 else d)
    d = _quotient(num, den, guard)
    keep = max(2 * abs(d).bit_length() - s, 0) + 2 * guard
    a, b = max(abs(d).bit_length() - keep, 0), max(s - keep, 0)
    d_cut, m_cut, y_cut = d >> a, m >> b, y >> b
    u = d_cut * ((k - 1) * y_cut - (n - k) * m_cut)
    den = (2 * m_cut * y_cut << b) + (u << a)
    if den <= 0:
        return m + d
    return m + d - _quotient(d_cut * u << 2 * a, den, guard)


def _newton_cell(poly: IntPolynomial, n: int, k: int, t: int) -> int | None:
    """The Newton-type start's guess lo for the level-t cell [lo, lo + 1] / 2^t
    holding the root of P = `poly`, or None if it hits an exact (rational) root.

    Integer `_halley_step`s at scale 2^s from Kerman's start (k - 1/3)/(n + 1/3),
    the median of Beta(k, n-k+1), with m clamped to [1, 2^s - 1].  One step
    at the lowest precision absorbs the start's error; then, since Halley's
    step triples the correct bits, the precision about triples per step up
    to t plus log2(n) + 16 guard bits.  At 35 digits that is 4 steps, one
    Horner pass each, for every n <= 40 (Newton's doubling took 6).
    """
    guard = n.bit_length() + 16
    precisions = [t + guard]
    # p // 3 + guard < p exactly when p > 1.5 guard, so a floor above that
    # ends the list; at a floor of guard + 8 it would stall at about 1.5 guard
    while precisions[-1] > 3 * guard:
        precisions.append(precisions[-1] // 3 + guard)
    s = precisions[-1]
    m = ((3 * k - 1) << s) // (3 * n + 1)
    scale = (2 * n * binomial_coeff(n - 1, k - 1)) << guard
    for p in [s] + precisions[::-1]:
        m, s = min(max(m << (p - s), 1), (1 << p) - 1), p
        m = _halley_step(poly, n, k, m, s, guard, scale)
        if m is None:
            return None
    return min(max(m >> (s - t), 0), (1 << t) - 1)


def _bisect(poly: IntPolynomial, n: int, k: int, width: Fraction) -> RootEnclosure:
    """An enclosure of the root of P = `poly`, the checked polynomial for (n, k).

    Bisects with `_sign_at` signs from [0, 1], where P(0) > 0 > P(1),
    carrying the level-t cell [lo, lo + 1] / 2^t as the single integer lo.
    Stops once t reaches the steps `width` implies and both ends are
    interior; a midpoint where P is exactly zero is returned as ExactRoot.
    The cap of 4 * steps + 256 turns a sign kernel that never settles (a
    cell that keeps sliding to 0 or 1) into FalsificationError instead of
    an endless loop.

    Bisection starts at level t = steps from `_newton_cell`'s guess once two
    signs prove P(lo / 2^t) > 0 > P((lo + 1) / 2^t).  Same bytes: P is
    strictly decreasing, so the root is inside the open cell and no multiple
    of 2^-t is a zero; every midpoint up to level t is such a multiple and no
    stop condition holds below level t, so bisection reaches this very cell.
    """
    steps = _steps_for(width)
    lo, t = _newton_cell(poly, n, k, steps), steps
    if lo is None or not _sign_at(poly, lo, t) > 0 > _sign_at(poly, lo + 1, t):
        lo, t = 0, 0
    while not (t >= steps and 0 < lo and lo + 1 < 1 << t):
        if t >= 4 * steps + 256:
            raise FalsificationError(
                "bisection exceeded its step cap before reaching the target bracket"
            )
        t += 1
        mid = 2 * lo + 1
        sign = _sign_at(poly, mid, t)
        if sign == 0:
            return ExactRoot(Fraction(mid, 1 << t))
        lo = mid if sign > 0 else 2 * lo
    return Bracket(Fraction(lo, 1 << t), Fraction(lo + 1, 1 << t))


def isolate_root(n: int, k: int, width: Fraction = DEFAULT_WIDTH) -> RootEnclosure:
    """Certified enclosure of the critical probability for (n, k).

    Returns either the exact rational root (only ever 1/2, at the odd
    middle index) or a bracket of width at most `width` with proved
    opposite signs at its endpoints, both strictly inside (0, 1).
    """
    width = Fraction(width)
    if width <= 0:
        raise ValueError("width must be positive")
    return _bisect(_checked_poly(n, k), n, k, width)


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class ExactRational:
    """The critical probability is exactly this rational (always 1/2)."""

    root: Fraction

    @property
    def enclosure(self) -> ExactRoot:
        return ExactRoot(self.root)

    def to_json_dict(self, digits: int = 30) -> dict:
        return {"type": "exact_rational", "root": format_rational(self.root)}


@dataclass(frozen=True)
class IrrationalUpperHalf:
    """Direct irrationality evidence for the root of `poly` = P_{n,k}, k above the middle.

    Records the exact facts the argument needs, checked on `poly`: P(1/2) has
    sign `sign_at_half` = +1, from the exact integer 2^n P(1/2), and P(1) = -1,
    so the root lies in (1/2, 1).  The constant coefficient is 1, so every
    rational root is ±1/r for a positive integer r, and none lies in (1/2, 1):
    the root is irrational.  No enclosure enters the proof; `enclosure`
    bisects `poly` to `width` on first read only.
    """

    n: int
    k: int
    poly: IntPolynomial = field(repr=False)
    width: Fraction
    constant_coeff: int
    sign_at_half: int

    @cached_property
    def enclosure(self) -> Bracket:
        enclosure = _bisect(self.poly, self.n, self.k, self.width)
        if isinstance(enclosure, ExactRoot):
            raise FalsificationError(
                f"exact rational root {enclosure.root} found for "
                f"(n={self.n}, k={self.k}) above the middle index"
            )
        return enclosure

    def to_json_dict(self, digits: int = 30) -> dict:
        return {
            "type": "irrational_upper_half",
            "enclosure": self.enclosure.to_json_dict(digits),
            "constant_coeff": str(self.constant_coeff),
            "sign_at_half": str(self.sign_at_half),
        }


@dataclass(frozen=True)
class IrrationalBySymmetry:
    """Irrationality inherited from the mirror-image partner index."""

    partner_k: int
    partner: "IrrationalityCertificate"

    @property
    def enclosure(self) -> Bracket:
        """The partner's bracket reflected to [1 - hi, 1 - lo], which holds
        this root by the reflection identity."""
        partner = self.partner.status.enclosure
        return Bracket(1 - partner.hi, 1 - partner.lo)

    def to_json_dict(self, digits: int = 30) -> dict:
        return {
            "type": "irrational_by_symmetry",
            "partner_k": self.partner_k,
            "partner": self.partner.to_json_dict(digits),
        }


CertificateStatus = Union[ExactRational, IrrationalUpperHalf, IrrationalBySymmetry]


@dataclass(frozen=True)
class IrrationalityCertificate:
    """Machine-checked evidence for the status of one critical probability."""

    n: int
    k: int
    status: CertificateStatus

    def to_json_dict(self, digits: int = 30) -> dict:
        return {"n": self.n, "k": self.k, "status": self.status.to_json_dict(digits)}


def _certificates(
    n: int, ks: Iterable[int], width: Fraction
) -> list[IrrationalityCertificate]:
    """Certificates for the indices `ks` of one n, in order.

    The odd middle index certifies the exact root 1/2; indices above the
    middle get direct upper-half evidence; indices below inherit from
    their partner n-k+1 via the reflection identity, which one walk checks
    for every such pair once the other facts hold, and reports at the
    pair's lower index.  Each upper-half certificate and its polynomial are
    built once per call and shared.
    """
    width = Fraction(width)
    if width <= 0:
        raise ValueError("width must be positive")
    if n < 1:
        raise ValueError("n must be positive")
    middle = (n + 1) // 2
    upper: dict[int, IrrationalityCertificate] = {}
    pairs: dict[int, IntPolynomial] = {}  # lower indices and their partners
    out = []
    for k in ks:
        if not 1 <= k <= n:
            raise ValueError(f"k must lie in [1, {n}], got {k}")
        if n % 2 == 1 and k == middle:
            if _checked_poly(n, k).scaled_value(1, 2) != 0:
                raise FalsificationError(
                    f"polynomial for odd n={n}, middle k={k} does not vanish at 1/2"
                )
            out.append(IrrationalityCertificate(n, k, ExactRational(_HALF)))
            continue
        above = max(k, n - k + 1)  # k itself, or its partner above the middle
        if above not in upper:
            poly = _checked_poly(n, above)
            if poly.scaled_value(1, 2) <= 0:
                raise FalsificationError(
                    f"P(1/2) is not positive for (n={n}, k={above}) above the middle index"
                )
            status = IrrationalUpperHalf(n, above, poly, width, poly.constant, sign_at_half=1)
            upper[above] = IrrationalityCertificate(n, above, status)
        cert = upper[above]
        if k != above:
            pairs[k], pairs[above] = critical_poly(n, k), cert.status.poly
            cert = IrrationalityCertificate(n, k, IrrationalBySymmetry(above, cert))
        out.append(cert)
    if pairs:
        bad = [min(i, n - i + 1) for i, r, _ in _walk(n, pairs) if list(pairs[i].coeffs) != r]
        if bad:
            raise FalsificationError(f"reflection identity failed for (n={n}, i={min(bad)})")
    return out


def certify(
    n: int, k: int, width: Fraction = DEFAULT_WIDTH
) -> IrrationalityCertificate:
    """Irrationality certificate for the critical probability of (n, k)."""
    return _certificates(n, (k,), width)[0]


def certify_range(n: int, width: Fraction = DEFAULT_WIDTH) -> list[IrrationalityCertificate]:
    """Certificates for every k in [1, n], each upper-half one shared with
    its partner, so reading every `enclosure` bisects each upper root once.

    Each status's `enclosure` equals `isolate_root(n, k, width)`: the
    reflection of a level-t dyadic cell is the level-t cell, and the stop
    conditions of the bisection are symmetric about 1/2.
    """
    return _certificates(n, range(1, n + 1), width)
