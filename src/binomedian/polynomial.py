"""Dense integer-coefficient polynomials, ascending degree order.

Coefficients are plain Python ints, so nothing here ever overflows or
rounds.  Exact evaluation has one kernel: the homogenized integer Horner
form den^deg * P(num/den), which shares sign and zeroness with P at the
rational point.  The exact value P(x) is that integer over den^deg.  Root
isolation takes its signs from a fixed-point kernel (`critical._sign_at`)
and calls this one only as its exact fallback, the only path that can
report a zero.

With c_i the coefficients of P, P(1 - x) has x^j coefficient
(-1)^j sum_{i>=j} C(i,j) c_i: a Taylor shift to P(1 + y) by synthetic
division (integer additions only), then y = -x.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

__all__ = ["IntPolynomial"]


def _trim(coeffs: Sequence[int]) -> tuple[int, ...]:
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return tuple(coeffs[:end])


@dataclass(frozen=True)
class IntPolynomial:
    """coeffs[i] is the coefficient of x**i; trailing zeros are trimmed."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(self.coeffs)
        for c in coeffs:
            if not isinstance(c, int) or isinstance(c, bool):
                raise TypeError(f"coefficients must be ints, got {type(c).__name__}")
        object.__setattr__(self, "coeffs", _trim(coeffs))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def constant(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def scale(self, factor: int) -> "IntPolynomial":
        return IntPolynomial(tuple(factor * c for c in self.coeffs))

    def shift(self, power: int) -> "IntPolynomial":
        """Multiply by x**power."""
        return IntPolynomial((0,) * power + self.coeffs)

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(tuple(i * c for i, c in enumerate(self.coeffs))[1:])

    def evaluate(self, x: Fraction | int) -> Fraction:
        """P(x), exactly: `scaled_value` over den**degree."""
        return Fraction(
            self.scaled_value(x.numerator, x.denominator), x.denominator ** max(self.degree, 0)
        )

    def scaled_value(self, num: int, den: int) -> int:
        """den**degree * P(num/den) as an integer, for den > 0.

        Shares sign and zeroness with P(num/den), so sign tests never need
        Fraction arithmetic; `evaluate` is built on it.
        """
        if den <= 0:
            raise ValueError("den must be positive")
        if self.is_zero:
            return 0
        value = self.coeffs[-1]
        den_power = 1
        for c in reversed(self.coeffs[:-1]):
            den_power *= den
            value = value * num + c * den_power
        return value

    def compose_one_minus_x(self) -> "IntPolynomial":
        """The polynomial P(1 - x), expanded: P(1 + y) by synthetic
        division, then y = -x."""
        shifted = list(self.coeffs)
        for i in range(len(shifted) - 1):
            for j in range(len(shifted) - 2, i - 1, -1):
                shifted[j] += shifted[j + 1]
        return IntPolynomial(tuple(-c if j % 2 else c for j, c in enumerate(shifted)))
