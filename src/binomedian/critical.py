"""Critical probabilities of the binomial median and their certificates.

For 1 <= k <= n the critical probability is the unique p in (0, 1) where
the binomial CDF satisfies B(k-1, n, p) = 1/2, i.e. where the median of
B(n, p) degenerates to the interval [k-1, k].  Clearing denominators turns
that condition into an integer polynomial with value +1 at p = 0 and -1 at
p = 1, so bisection with rigorous signs yields certified enclosures.  Each
sign is fixed-point Horner at about t + log2(n) bits for m / 2^t under an
absolute error bound, exact only where that bound cannot tell (`_sign_at`,
root isolation's one exact evaluation).  The odd middle's root 1/2 is
bisection's first midpoint.  Every other root starts from a point m on its
final dyadic level: Kerman's start (Kerman 2011) up to `_coarse_level`,
where it lies within one cell of the root, and Halley steps from it beyond.
Signs at m and next to it, three at most, prove the cell (`_proved_cell`):
at 35 digits 4 Horner passes reach it and 2 signs prove it.  The
polynomial's coefficients come from the closed form (derived in
`critical_poly`) 1 + 2 * sum_{s=k}^{n} (-1)^(s-k+1) C(n,s) C(s-1,k-1) x^s, so
the constant coefficient is 1 by construction.

The identity argument, written here once: with T_m = C(n,m) x^m (1-x)^(n-m),
the derivative of B(i-1; n, x) = sum_{m<i} T_m telescopes to
-n C(n-1,i-1) x^(i-1) (1-x)^(n-i), so
P'_{n,i} = -2n C(n-1,i-1) x^(i-1) (1-x)^(n-i) (`_derivative`), the
derivative identity, and with P_{n,i}(0) = 1 it fixes
P_{n,i} = 2 B(i-1; n, x) - 1, the definition.  By the binomial theorem the
T_m sum to (x + (1 - x))^n = 1, so that is also
1 - 2 sum_{m>=i} T_m = -(2 B(n-i; n, 1-x) - 1), the reflection
-P_{n,n-i+1}(1 - x) of the partner's definition.  So a pair {i, n-i+1} whose
members both have the right derivative and constant 1 reflects, and a
mirror-consistent pair of wrong polynomials does not pass.  Each check is
O(n) per index, with no polynomial arithmetic.  `_identity_faults` gives the
one verdict: the certificates raise on its pair faults, and `verify`'s
battery reports both its pair faults (the reflection identity) and its
derivative faults (the derivative identity).

The irrationality certificates mechanize a three-way case split:

* odd n with k in the middle: the polynomial vanishes exactly at 1/2;
* k above the middle: the exact integer 2^n P(1/2) = 2 sum_{i<k} C(n,i) - 2^n
  is positive and P(1) = -1, so the root lies in (1/2, 1); the constant
  coefficient is 1, so by the rational root theorem every rational root
  has the form ±1/r for a positive integer r, and no such number lies in
  (1/2, 1), so the root is irrational;
* k below the middle: the polynomial is the reflection -P(1 - x) of its
  partner's P at index n-k+1 (both equal their definitions), so the root is
  1 minus the partner's and inherits its irrationality.

Certificates rest on exact facts alone and never bisect.  A status's
`enclosure`, the one `isolate_root` returns, is bisected on first read, and
a lower index reflects its partner's: n enclosures bisect only the upper half.

Every branch re-checks the exact facts it relies on and raises
FalsificationError instead of ever passing silently.  `isolate_root` and
`certify_range` build their polynomials with `critical_poly` unless the
caller hands them in (`poly=`, `polys=`); `verify`'s battery builds
P_{n,1..n} once per n and passes that one list to both, and they check on
it the same facts they check on polynomials they build.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction

from ._record import Record, set_field
from .polynomial import IntPolynomial, _from_ints
from .rational import format_rational, shared_prefix_decimal

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


class ExactRoot(Record):
    """A rational point where the polynomial evaluates to exactly zero."""

    __slots__ = _fields = ("root",)
    root: Fraction

    def __init__(self, root: Fraction) -> None:
        set_field(self, "root", root)

    def to_json_dict(self, digits: int = 30) -> dict:
        return {"type": "exact", "root": format_rational(self.root)}


class Bracket(Record):
    """lo < hi with rigorously proved opposite polynomial signs at the ends."""

    __slots__ = _fields = ("lo", "hi")
    lo: Fraction
    hi: Fraction

    def __init__(self, lo: Fraction, hi: Fraction) -> None:
        set_field(self, "lo", lo)
        set_field(self, "hi", hi)

    def to_json_dict(self, digits: int = 30) -> dict:
        return {
            "type": "bracket",
            "lo": format_rational(self.lo),
            "hi": format_rational(self.hi),
            "decimal": shared_prefix_decimal(self.lo, self.hi, digits),
        }


RootEnclosure = ExactRoot | Bracket


# ---------------------------------------------------------------------------
# polynomial construction


def _check_index(n: int, k: int) -> None:
    if n < 1:
        raise ValueError("n must be positive")
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")


def _checked_width(width: Fraction | int) -> Fraction:
    """`width` as a Fraction, once it is positive."""
    if not isinstance(width, Fraction):
        width = Fraction(width)
    if width.numerator <= 0:
        raise ValueError("width must be positive")
    return width


def critical_poly(n: int, k: int) -> IntPolynomial:
    """The integer polynomial 2*B(k-1, n, x) - 1, fully expanded.

    Degree is exactly n and the constant coefficient is exactly 1; its
    unique root in (0, 1) is the critical probability for (n, k).

    With j = k - 1, the coefficient of x^s in B(j; n, x) =
    sum_{i<=j} C(n,i) x^i (1-x)^(n-i) is sum_{i<=min(j,s)} (-1)^(s-i) C(n,i) C(n-i,s-i).
    Since C(n,i) C(n-i,s-i) = C(n,s) C(s,i), it equals
    (-1)^s C(n,s) sum_{i<=min(j,s)} (-1)^i C(s,i).  For s <= j that sum is
    (1-1)^s, so the constant is 1 and x^1 .. x^j vanish; for s > j the
    partial alternating sum is (-1)^j C(s-1,j).  So P_{n,k} is 1, then k - 1
    zeros, then the terms 2 (-1)^(s-k+1) C(n,s) C(s-1,k-1) for s = k .. n,
    from -2 C(n,k).  Term s+1 is exactly term s times
    -(n-s) s / ((s+1)(s-k+1)): C(n,s)(n-s) = C(n,s+1)(s+1), C(s-1,k-1) s = C(s,k-1)(s-k+1).
    """
    _check_index(n, k)
    coeffs, term = [1] + [0] * (k - 1), -2 * math.comb(n, k)
    for s in range(k, n + 1):
        coeffs.append(term)
        term = -term * (n - s) * s // ((s + 1) * (s - k + 1))
    return _from_ints(coeffs)


def _derivative(n: int, k: int) -> list[int]:
    """Coefficients of P'_{n,k} = -2n C(n-1,k-1) x^(k-1) (1-x)^(n-k): k - 1 zeros,
    then the (1-x)^m row, m = n - k, from -2n C(n-1,k-1).  Term t+1 of that row
    is exactly term t times -(m-t)/(t+1), since C(m,t)(m-t) = C(m,t+1)(t+1)."""
    m = n - k
    coeffs, term = [0] * (k - 1), -2 * n * math.comb(n - 1, k - 1)
    for t in range(m + 1):
        coeffs.append(term)
        term = term * (t - m) // (t + 1)
    return coeffs


def _derivative_matches(poly: IntPolynomial, n: int, k: int) -> bool:
    """Whether `poly`'s derivative, s c_s at x^(s-1), is `_derivative(n, k)`.
    With constant coefficient 1 as well, `poly` is P_{n,k}: a polynomial is
    fixed by its derivative and its constant term."""
    c = poly.coeffs
    return [s * c[s] for s in range(1, len(c))] == _derivative(n, k)


def _identity_faults(
    n: int, members: Iterable[tuple[int, IntPolynomial]]
) -> tuple[list[int], list[int]]:
    """The identity verdict on the polynomials `members`, (i, P_{n,i}) pairs.

    Returns (pair faults, derivative faults): min(i, n-i+1), the lower index
    of i's pair, wherever P's derivative or constant term is wrong, and
    i - 1 wherever its derivative is wrong.  A pair reflects exactly when
    neither member is a fault (module docstring).
    """
    pair_faults, derivative_faults = [], []
    for i, poly in members:
        derivative_ok = _derivative_matches(poly, n, i)
        if not derivative_ok:
            derivative_faults.append(i - 1)
        if not derivative_ok or poly.constant != 1:
            pair_faults.append(min(i, n - i + 1))
    return pair_faults, derivative_faults


# ---------------------------------------------------------------------------
# bisection


def _steps_for(width: Fraction) -> int:
    """Bisection steps after which the bracket gap 2^-t is <= width: the bit
    length of ceil(den / num) - 1, for width = num / den in lowest terms."""
    return max(-(-width.denominator // width.numerator) - 1, 0).bit_length()


def _checked_poly(n: int, k: int, poly: IntPolynomial | None = None) -> IntPolynomial:
    """`poly`, or critical_poly(n, k) where it is None, once it has the
    endpoint values P(0) = 1 and P(1) = -1 bisection relies on."""
    if poly is None:
        poly = critical_poly(n, k)
    else:
        _check_index(n, k)
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
    if value + d <= 0:  # at equality P < 0, so with `<` the exact path returns -1 too
        return -1
    value = poly.scaled_value(m, 1 << t)
    return (value > 0) - (value < 0)


def _power_top(base: int, e: int, bits: int) -> tuple[int, int]:
    """(v, r) with base^e (1 - e 2^(2-bits)) <= v 2^r <= base^e, for base >= 0.

    Left-to-right binary powering that keeps the top `bits` bits after each
    step's product.  Each cut drops less than 2^(1-bits) of the value, and
    squaring doubles the deficit carried in, so after the bits of e the
    deficit is at most (2e - 1) 2^(1-bits).  e = 0 gives (1, 0).
    """
    v, r = 1, 0
    for bit in bin(e)[2:]:
        v, r = v * v, 2 * r
        if bit == "1":
            v *= base
        cut = max(v.bit_length() - bits, 0)
        v, r = v >> cut, r + cut
    return v, r


def _halley_step(
    poly: IntPolynomial, n: int, k: int, m: int, s: int, guard: int, scale: int
) -> int:
    """m plus Halley's increment toward the root of P = `poly` from x = m / 2^s,
    0 < m < 2^s; `scale` is 2n C(n-1,k-1) 2^guard.

    With y = 2^s - m and D = 2n C(n-1,k-1) m^(k-1) y^(n-k), P'(x) = -D / 2^(s*(n-1)),
    and V = `_horner_floor` at q = s + guard bits, Newton's increment is
    d = V 2^(s*(n-1)) / (D 2^guard).  P' is a Beta(k, n-k+1) density times a
    constant, so P''/P' = (k-1)/x - (n-k)/(1-x), and Halley's increment
    d / (1 + d P''/(2 P')) is d 2my / (2my + d c) with c = (k-1) y - (n-k) m:
    no further evaluation.  Where 2my + d c is not positive, the step is
    Newton's d.

    The powers m^(k-1) and y^(n-k), about s n bits together, come from
    `_power_top` at s + 2 guard bits, so D is low by a relative n 2^(2-s-2 guard)
    at most, and d is within one unit of the exact quotient wherever
    |d| < 2^(s + guard).  A cut power keeps `bits` bits and is below 2^(s e),
    so it drops at most s e - bits: the shift of V is never negative.  The
    step gives only a guess, which `_proved_cell`'s signs prove or reject.
    """
    value = _horner_floor(poly, m, s, s + guard)
    y = (1 << s) - m
    bits = s + 2 * guard
    (a, ra), (b, rb) = _power_top(m, k - 1, bits), _power_top(y, n - k, bits)
    d = (value << s * (n - 1) - ra - rb) // (scale * a * b)
    two_xy = 2 * m * y
    den = two_xy + d * ((k - 1) * y - (n - k) * m)
    return m + (d * two_xy // den if den > 0 else d)


def _kerman_start(n: int, k: int, t: int) -> int:
    """floor(2^t (3k - 1)/(3n + 1)): Kerman's start (k - 1/3)/(n + 1/3), the
    median of Beta(k, n-k+1), on the level-t grid."""
    return ((3 * k - 1) << t) // (3 * n + 1)


def _coarse_level(n: int) -> int:
    """bit_length(n) + 4: the deepest level t at which `_kerman_start` needs
    no Halley step.  A cell 2^-t is then at least 1/(32n) wide, and n |p - start|
    is largest at k = 1 and k = n, where it tends to ln 2 - 2/3 ~ 0.0265, so
    the start lies within one cell of the root."""
    return n.bit_length() + 4


def _proved_cell(poly: IntPolynomial, m: int, t: int) -> int | None:
    """The level-t cell [lo, lo + 1] / 2^t holding the root of P = `poly`, as
    lo, proved from signs at and next to the start m in [0, 2^t), or None.

    P(m) > 0 > P(m+1) proves cell m, P(m-1) > 0 > P(m) cell m-1, and
    P(m+1) > 0 > P(m+2) cell m+1: two signs, three for the last.  A start
    within one cell of the root puts it in one of these three cells.
    Anything else, a zero included, gives None.  Since P(0) = 1 and
    P(1) = -1, every point asked lies in [0, 2^t].
    """
    here = _sign_at(poly, m, t)
    if here < 0:
        return m - 1 if _sign_at(poly, m - 1, t) > 0 else None
    if here > 0:
        right = _sign_at(poly, m + 1, t)
        if right < 0:
            return m
        if right > 0 and _sign_at(poly, m + 2, t) < 0:
            return m + 1
    return None


def _newton_cell(poly: IntPolynomial, n: int, k: int, t: int) -> int:
    """The Newton-type start's guess lo for the level-t cell [lo, lo + 1] / 2^t
    holding the root of P = `poly`, clamped to [0, 2^t - 1].

    Integer `_halley_step`s at scale 2^s from Kerman's start (k - 1/3)/(n + 1/3),
    the median of Beta(k, n-k+1), with m clamped to [1, 2^s - 1].  One step
    at the lowest precision absorbs the start's error; then, since Halley's
    step triples the correct bits, the precision about triples per step up
    to t plus log2(n) + 16 guard bits.  At 35 digits that is 4 steps, one
    Horner pass each, for every n <= 40.
    """
    guard = n.bit_length() + 16
    precisions = [t + guard]
    # p // 3 + guard < p exactly when p > 1.5 guard, so a floor above that
    # ends the list; at a floor of guard + 8 it would stall at about 1.5 guard.
    # The list changes only the guess, which `_proved_cell` proves or rejects,
    # so `>=` here changes no output
    while precisions[-1] > 3 * guard:
        precisions.append(precisions[-1] // 3 + guard)
    s = precisions[-1]
    m = _kerman_start(n, k, s)
    scale = (2 * n * math.comb(n - 1, k - 1)) << guard
    for p in [s] + precisions[::-1]:
        m, s = min(max(m << (p - s), 1), (1 << p) - 1), p
        m = _halley_step(poly, n, k, m, s, guard, scale)
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

    Bisection starts at level t = steps from the cell `_proved_cell` proves
    next to a start m: `_kerman_start` up to `_coarse_level(n)`, where it is
    within one cell of the root, and `_newton_cell`'s guess beyond.  Same
    bytes: P is strictly decreasing, so the root is inside the open cell and
    no multiple of 2^-t is a zero; every midpoint up to level t is such a
    multiple and no stop condition holds below level t, so bisection reaches
    this very cell.  The signs alone prove it; the start only says how fast
    it is found.  Where they prove none, and at the odd middle, whose root
    1/2 is bisection's first midpoint, bisection starts from [0, 1].
    """
    steps = _steps_for(width)
    lo = None
    if 2 * k != n + 1:
        if steps <= _coarse_level(n):
            m = _kerman_start(n, k, steps)
        else:
            m = _newton_cell(poly, n, k, steps)
        lo = _proved_cell(poly, m, steps)
    lo, t = (0, 0) if lo is None else (lo, steps)
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
        lo = mid if sign > 0 else 2 * lo  # sign is not 0 here, so `>=` is the same
    return Bracket(Fraction(lo, 1 << t), Fraction(lo + 1, 1 << t))


def isolate_root(
    n: int, k: int, width: Fraction = DEFAULT_WIDTH, *, poly: IntPolynomial | None = None
) -> RootEnclosure:
    """Certified enclosure of the critical probability for (n, k).

    Returns either the exact rational root (only ever 1/2, at the odd
    middle index) or a bracket of width at most `width` with proved
    opposite signs at its endpoints, both strictly inside (0, 1).

    `poly`, when given, stands in for critical_poly(n, k), which is then
    not built; n and k are still validated, and `poly` must pass the same
    endpoint check, constant coefficient 1 and P(1) = -1, or
    FalsificationError is raised as for a built polynomial.
    """
    return _bisect(_checked_poly(n, k, poly), n, k, _checked_width(width))


# ---------------------------------------------------------------------------
# certificates


class ExactRational(Record):
    """The critical probability is exactly this rational (always 1/2)."""

    __slots__ = _fields = ("root",)
    root: Fraction

    def __init__(self, root: Fraction) -> None:
        set_field(self, "root", root)

    @property
    def enclosure(self) -> ExactRoot:
        return ExactRoot(self.root)

    def to_json_dict(self, digits: int = 30) -> dict:
        return {"type": "exact_rational", "root": format_rational(self.root)}


class IrrationalUpperHalf(Record):
    """Direct irrationality evidence for the root of `poly` = P_{n,k}, k above the middle.

    Records the exact facts the argument needs, checked on `poly`: P(1/2) has
    sign `sign_at_half` = +1, from the exact integer 2^n P(1/2), and P(1) = -1,
    so the root lies in (1/2, 1).  The constant coefficient is 1, so every
    rational root is ±1/r for a positive integer r, and none lies in (1/2, 1):
    the root is irrational.  No enclosure enters the proof; `enclosure`
    bisects `poly` to `width` on first read only.
    """

    _fields = ("n", "k", "poly", "width", "constant_coeff", "sign_at_half")
    _hidden = ("poly",)
    __slots__ = (*_fields, "_enclosure")
    n: int
    k: int
    poly: IntPolynomial
    width: Fraction
    constant_coeff: int
    sign_at_half: int

    def __init__(
        self,
        n: int,
        k: int,
        poly: IntPolynomial,
        width: Fraction,
        constant_coeff: int,
        sign_at_half: int,
    ) -> None:
        set_field(self, "n", n)
        set_field(self, "k", k)
        set_field(self, "poly", poly)
        set_field(self, "width", width)
        set_field(self, "constant_coeff", constant_coeff)
        set_field(self, "sign_at_half", sign_at_half)
        set_field(self, "_enclosure", None)

    @property
    def enclosure(self) -> Bracket:
        if self._enclosure is None:
            enclosure = _bisect(self.poly, self.n, self.k, self.width)
            if isinstance(enclosure, ExactRoot):
                raise FalsificationError(
                    f"exact rational root {enclosure.root} found for "
                    f"(n={self.n}, k={self.k}) above the middle index"
                )
            set_field(self, "_enclosure", enclosure)
        return self._enclosure

    def to_json_dict(self, digits: int = 30) -> dict:
        return {
            "type": "irrational_upper_half",
            "enclosure": self.enclosure.to_json_dict(digits),
            "constant_coeff": str(self.constant_coeff),
            "sign_at_half": str(self.sign_at_half),
        }


class IrrationalBySymmetry(Record):
    """Irrationality inherited from the mirror-image partner index."""

    __slots__ = _fields = ("partner_k", "partner")
    partner_k: int
    partner: IrrationalityCertificate

    def __init__(self, partner_k: int, partner: IrrationalityCertificate) -> None:
        set_field(self, "partner_k", partner_k)
        set_field(self, "partner", partner)

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


CertificateStatus = ExactRational | IrrationalUpperHalf | IrrationalBySymmetry


class IrrationalityCertificate(Record):
    """Machine-checked evidence for the status of one critical probability."""

    __slots__ = _fields = ("n", "k", "status")
    n: int
    k: int
    status: CertificateStatus

    def __init__(self, n: int, k: int, status: CertificateStatus) -> None:
        set_field(self, "n", n)
        set_field(self, "k", k)
        set_field(self, "status", status)

    def to_json_dict(self, digits: int = 30) -> dict:
        return {"n": self.n, "k": self.k, "status": self.status.to_json_dict(digits)}


def _certificates(
    n: int, ks: Iterable[int], width: Fraction, polys: Sequence[IntPolynomial] | None = None
) -> list[IrrationalityCertificate]:
    """Certificates for the indices `ks` of one n, in order.

    The odd middle index certifies the exact root 1/2; indices above the
    middle get direct upper-half evidence; indices below inherit from
    their partner n-k+1 via the reflection identity, checked once the other
    facts hold by `_identity_faults` on both members of every such pair and
    reported at its least pair fault.  Each upper-half certificate is made
    once per call and shared.  P_{n,k} is polys[k-1] where `polys` is given, else
    critical_poly(n, k), built once per call at most.
    """
    width = _checked_width(width)
    if n < 1:
        raise ValueError("n must be positive")
    if polys is not None and len(polys) != n:
        raise ValueError(f"polys must hold the {n} polynomials of n={n}, got {len(polys)}")

    def poly_for(k: int) -> IntPolynomial:
        return critical_poly(n, k) if polys is None else polys[k - 1]

    middle = (n + 1) // 2
    upper: dict[int, IrrationalityCertificate] = {}
    pairs: dict[int, IntPolynomial] = {}  # lower indices and their partners
    out = []
    for k in ks:
        _check_index(n, k)
        if n % 2 == 1 and k == middle:
            if _checked_poly(n, k, poly_for(k)).scaled_value(1, 2) != 0:
                raise FalsificationError(
                    f"polynomial for odd n={n}, middle k={k} does not vanish at 1/2"
                )
            out.append(IrrationalityCertificate(n, k, ExactRational(_HALF)))
            continue
        above = max(k, n - k + 1)  # k itself, or its partner above the middle
        if above not in upper:
            poly = _checked_poly(n, above, poly_for(above))
            if poly.scaled_value(1, 2) <= 0:
                raise FalsificationError(
                    f"P(1/2) is not positive for (n={n}, k={above}) above the middle index"
                )
            status = IrrationalUpperHalf(n, above, poly, width, poly.constant, sign_at_half=1)
            upper[above] = IrrationalityCertificate(n, above, status)
        cert = upper[above]
        if k != above:
            pairs[k], pairs[above] = poly_for(k), cert.status.poly
            cert = IrrationalityCertificate(n, k, IrrationalBySymmetry(above, cert))
        out.append(cert)
    bad, _ = _identity_faults(n, pairs.items())
    if bad:
        raise FalsificationError(f"reflection identity failed for (n={n}, i={min(bad)})")
    return out


def certify(
    n: int, k: int, width: Fraction = DEFAULT_WIDTH
) -> IrrationalityCertificate:
    """Irrationality certificate for the critical probability of (n, k)."""
    return _certificates(n, (k,), width)[0]


def certify_range(
    n: int, width: Fraction = DEFAULT_WIDTH, *, polys: Sequence[IntPolynomial] | None = None
) -> list[IrrationalityCertificate]:
    """Certificates for every k in [1, n], each upper-half one shared with
    its partner, so reading every `enclosure` bisects each upper root once.

    Each status's `enclosure` equals `isolate_root(n, k, width)`: the
    reflection of a level-t dyadic cell is the level-t cell, and the stop
    conditions of the bisection are symmetric about 1/2.

    `polys`, when given, holds P_{n,1..n} in order and stands in for
    `critical_poly`, which is then not called; a list of any other length
    raises ValueError.  The certificates check on it every fact they check
    on built polynomials: constant coefficient 1 and P(1) = -1 at the middle
    and above, P(1/2) > 0 above the middle and P(1/2) = 0 at the odd middle,
    and their own reflection check of every pair, so a wrong list raises
    the FalsificationError a wrong `critical_poly` would.
    """
    return _certificates(n, range(1, n + 1), width, polys)
