"""Critical probabilities of the binomial median and their certificates.

For 1 <= k <= n the critical probability is the unique p in (0, 1) where
the binomial CDF satisfies B(k-1, n, p) = 1/2, i.e. where the median of
B(n, p) degenerates to the interval [k-1, k].  Clearing denominators turns
that condition into an integer polynomial (the full expansion of
2*B(k-1, n, p) - 1) with value +1 at p = 0 and -1 at p = 1, so bisection
with exact sign evaluation yields certified enclosures.

The irrationality certificates mechanize a three-way case split:

* odd n with k in the middle: the polynomial vanishes exactly at 1/2;
* k above the middle: the constant coefficient is 1, so by the rational
  root theorem every rational root has the form ±1/r for a positive
  integer r; no such number lies in the open interval (1/2, 1), and the
  enclosure puts the root there, so the root is irrational;
* k below the middle: the polynomial is the reflection of its partner's
  at index n-k+1 (checked coefficient-by-coefficient), so the root is
  1 minus the partner's and inherits its irrationality.

Every branch re-checks the exact facts it relies on and raises
FalsificationError instead of ever passing silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .polynomial import IntPolynomial
from .rational import binomial_coeff, format_rational, shared_prefix_decimal

__all__ = [
    "DEFAULT_WIDTH",
    "FalsificationError",
    "SeparationError",
    "ExactRoot",
    "Bracket",
    "RootEnclosure",
    "IdentityCheck",
    "ExactRational",
    "IrrationalUpperHalf",
    "IrrationalBySymmetry",
    "IrrationalityCertificate",
    "cdf_polynomial",
    "critical_poly",
    "isolate_root",
    "derivative_identity_check",
    "symmetry_identity_check",
    "monotonicity_check",
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


class SeparationError(RuntimeError):
    """Enclosure refinement hit its step cap before separating two roots."""


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
    """lo < hi with exactly evaluated opposite polynomial signs at the ends."""

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


def cdf_polynomial(n: int, j: int) -> IntPolynomial:
    """Full expansion of sum_{i=0}^{j} C(n,i) x^i (1-x)^(n-i)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 0 <= j <= n:
        raise ValueError("j must lie in [0, n]")
    # powers[m] holds the coefficients of (1-x)^m
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
        coeff = binomial_coeff(n, i)
        for t, c in enumerate(powers[n - i]):
            acc[i + t] += coeff * c
    return IntPolynomial(acc)


def critical_poly(n: int, k: int) -> IntPolynomial:
    """The integer polynomial 2*B(k-1, n, x) - 1, fully expanded.

    Degree is exactly n and the constant coefficient is exactly 1; its
    unique root in (0, 1) is the critical probability for (n, k).
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    coeffs = [2 * c for c in cdf_polynomial(n, k - 1).coeffs]
    coeffs[0] -= 1
    return IntPolynomial(coeffs)


def _one_minus_x_power(m: int) -> IntPolynomial:
    poly = IntPolynomial((1,))
    base = IntPolynomial((1, -1))
    for _ in range(m):
        poly = poly * base
    return poly


# ---------------------------------------------------------------------------
# bisection


def _steps_for(width: Fraction) -> int:
    """Bisection steps after which the bracket gap 2^-t is <= width."""
    inv = 1 / width
    ceil_inv = -((-inv.numerator) // inv.denominator)
    return max(ceil_inv - 1, 0).bit_length()


def _checked_poly(n: int, k: int) -> IntPolynomial:
    """critical_poly plus the endpoint sign facts bisection relies on."""
    poly = critical_poly(n, k)
    if poly.constant != 1 or sum(poly.coeffs) != -1:
        raise FalsificationError(
            f"polynomial for (n={n}, k={k}) lost its endpoint values +1/-1"
        )
    return poly


def _enclose(
    n: int, k: int, width: Fraction, require_upper_half: bool = False
) -> tuple[IntPolynomial, RootEnclosure]:
    """The checked polynomial for (n, k) and an enclosure of its root.

    Bisects on [0, 1], where P(0) > 0 > P(1), with exact sign evaluation.
    Midpoints are dyadic, so the bracket is carried as integers over a
    power-of-two denominator.  Stops once the gap is at most `width` and
    both endpoints are interior (and past 1/2 when `require_upper_half`).
    A midpoint that evaluates to exactly zero is returned as ExactRoot.
    The step cap (four times the steps `width` implies, plus 256) turns a
    stop condition that can never hold, such as a root below 1/2 under
    `require_upper_half`, into FalsificationError instead of an endless loop.
    """
    poly = _checked_poly(n, k)
    max_steps = 4 * _steps_for(width) + 256
    lo_n, hi_n, t = 0, 1, 0
    steps = 0
    while True:
        scale = 1 << t
        if (
            Fraction(hi_n - lo_n, scale) <= width
            and 0 < lo_n
            and hi_n < scale
            and (not require_upper_half or 2 * lo_n > scale)
        ):
            return poly, Bracket(Fraction(lo_n, scale), Fraction(hi_n, scale))
        if steps >= max_steps:
            raise FalsificationError(
                "bisection exceeded its step cap before reaching the target bracket"
            )
        mid_n = lo_n + hi_n
        t += 1
        lo_n <<= 1
        hi_n <<= 1
        sign = poly.scaled_value(mid_n, 1 << t)
        steps += 1
        if sign == 0:
            return poly, ExactRoot(Fraction(mid_n, 1 << t))
        if sign > 0:
            lo_n = mid_n
        else:
            hi_n = mid_n


def isolate_root(n: int, k: int, width: Fraction = DEFAULT_WIDTH) -> RootEnclosure:
    """Certified enclosure of the critical probability for (n, k).

    Returns either the exact rational root (only ever 1/2, at the odd
    middle index) or a bracket of width at most `width` with opposite
    exact signs at its endpoints, both strictly inside (0, 1).
    """
    width = Fraction(width)
    if width <= 0:
        raise ValueError("width must be positive")
    return _enclose(n, k, width)[1]


# ---------------------------------------------------------------------------
# polynomial identities


@dataclass(frozen=True)
class IdentityCheck:
    """Verdict of a coefficient-by-coefficient identity, with both sides."""

    equal: bool
    lhs: IntPolynomial
    rhs: IntPolynomial

    def __bool__(self) -> bool:
        return self.equal


def derivative_identity_check(n: int, j: int) -> IdentityCheck:
    """d/dx of the expanded CDF polynomial against -n * C(n-1,j) x^j (1-x)^(n-1-j).

    The formal derivative of sum_{i<=j} C(n,i) x^i (1-x)^(n-i) telescopes
    down to a single negative term, which is why the CDF is strictly
    decreasing in p and each critical probability is the only root in (0,1).
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 <= j <= n - 1:
        raise ValueError(f"j must lie in [0, {n - 1}], got {j}")
    lhs = cdf_polynomial(n, j).derivative()
    rhs = _one_minus_x_power(n - 1 - j).shift(j).scale(-n * binomial_coeff(n - 1, j))
    return IdentityCheck(lhs == rhs, lhs, rhs)


def symmetry_identity_check(n: int, i: int) -> IdentityCheck:
    """P_{n,i}(x) against -P_{n,n-i+1}(1-x), expanded and compared exactly.

    Equality of the two expansions means the roots are mirror images:
    the critical probability at index i equals 1 minus the one at n-i+1.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 1 <= i <= n:
        raise ValueError(f"i must lie in [1, {n}], got {i}")
    lhs = critical_poly(n, i)
    rhs = -critical_poly(n, n - i + 1).compose_one_minus_x()
    return IdentityCheck(lhs == rhs, lhs, rhs)


# ---------------------------------------------------------------------------
# monotonicity


def _as_interval(enc: RootEnclosure) -> tuple[Fraction, Fraction]:
    if isinstance(enc, ExactRoot):
        return enc.root, enc.root
    return enc.lo, enc.hi


def monotonicity_check(n: int, width: Fraction = DEFAULT_WIDTH) -> bool:
    """Confirm the n critical probabilities are strictly increasing in k.

    Computes enclosures for every k at the given width and refines until
    consecutive enclosures are disjoint and ascending.  Refinement is
    capped at four times the steps the requested width itself implies;
    hitting the cap signals a uselessly coarse width, not a counterexample.
    """
    width = Fraction(width)
    if n < 1:
        raise ValueError("n must be positive")
    if width <= 0:
        raise ValueError("width must be positive")
    if n == 1:
        return True
    base_steps = _steps_for(width)
    enclosures = [isolate_root(n, k, width) for k in range(1, n + 1)]
    halvings = 0
    while True:
        bad = None
        for k in range(n - 1):
            hi_left = _as_interval(enclosures[k])[1]
            lo_right = _as_interval(enclosures[k + 1])[0]
            if hi_left >= lo_right:
                bad = k
                break
        if bad is None:
            return True
        halvings += 1
        if base_steps + halvings > 4 * base_steps:
            raise SeparationError(
                f"could not separate roots {bad + 1} and {bad + 2} of n={n} "
                f"within the refinement cap; width {width} is too coarse"
            )
        finer = width / 2**halvings
        for k in (bad, bad + 1):
            if not isinstance(enclosures[k], ExactRoot):
                enclosures[k] = isolate_root(n, k + 1, finer)


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class ExactRational:
    """The critical probability is exactly this rational (always 1/2)."""

    root: Fraction

    def to_json_dict(self, digits: int = 30) -> dict:
        return {"type": "exact_rational", "root": format_rational(self.root)}


@dataclass(frozen=True)
class IrrationalUpperHalf:
    """Direct irrationality evidence for a root enclosed in (1/2, 1).

    Records the two facts the argument needs.  The constant coefficient
    is 1, so every rational root is ±1/r for a positive integer r, and no
    such number lies in (1/2, 1).  The enclosure lies inside (1/2, 1) with
    exactly evaluated opposite signs at its ends, so it holds a root, and
    that root is irrational.
    """

    enclosure: Bracket
    constant_coeff: int

    def to_json_dict(self, digits: int = 30) -> dict:
        return {
            "type": "irrational_upper_half",
            "enclosure": self.enclosure.to_json_dict(digits),
            "constant_coeff": str(self.constant_coeff),
        }


@dataclass(frozen=True)
class IrrationalBySymmetry:
    """Irrationality inherited from the mirror-image partner index."""

    partner_k: int
    partner: "IrrationalityCertificate"

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
    their partner n-k+1 via the reflection identity.  Each upper-half
    certificate is built at most once per call and shared with its partner.
    """
    width = Fraction(width)
    if width <= 0:
        raise ValueError("width must be positive")
    if n < 1:
        raise ValueError("n must be positive")
    middle = (n + 1) // 2
    upper: dict[int, IrrationalityCertificate] = {}
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
            poly, enclosure = _enclose(n, above, width, require_upper_half=True)
            if isinstance(enclosure, ExactRoot):
                raise FalsificationError(
                    f"exact rational root {enclosure.root} found for "
                    f"(n={n}, k={above}) above the middle index"
                )
            status = IrrationalUpperHalf(enclosure, constant_coeff=poly.constant)
            upper[above] = IrrationalityCertificate(n, above, status)
        cert = upper[above]
        if k != above:
            if not symmetry_identity_check(n, k):
                raise FalsificationError(f"reflection identity failed for (n={n}, i={k})")
            cert = IrrationalityCertificate(n, k, IrrationalBySymmetry(above, cert))
        out.append(cert)
    return out


def certify(
    n: int, k: int, width: Fraction = DEFAULT_WIDTH
) -> IrrationalityCertificate:
    """Irrationality certificate for the critical probability of (n, k)."""
    return _certificates(n, (k,), width)[0]


def certify_range(n: int, width: Fraction = DEFAULT_WIDTH) -> list[IrrationalityCertificate]:
    """Certificates for every k in [1, n], computing each upper-half
    enclosure once and sharing it with its symmetric partner."""
    return _certificates(n, range(1, n + 1), width)
