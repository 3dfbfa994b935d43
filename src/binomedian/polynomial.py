"""Dense integer-coefficient polynomials, ascending degree order.

Coefficients are plain Python ints, so nothing here ever overflows or
rounds.  Exact evaluation has one kernel: the homogenized integer Horner
form den^deg * P(num/den), which shares sign and zeroness with P at the
rational point, so no caller needs Fraction arithmetic to test a sign or
a value.  Root isolation takes its signs from a fixed-point kernel
(`critical._sign_at`) and calls this one only as its exact fallback, the
only path that can report a zero.  The identity checks of the battery and
the certificates (`critical._identity_faults`) work on coefficient lists
directly.
"""

from __future__ import annotations

from collections.abc import Sequence

from ._record import Record, set_field

__all__ = ["IntPolynomial"]


def _trim(coeffs: Sequence[int]) -> tuple[int, ...]:
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return tuple(coeffs[:end])


class IntPolynomial(Record):
    """coeffs[i] is the coefficient of x**i; trailing zeros are trimmed."""

    __slots__ = _fields = ("coeffs",)
    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Sequence[int]) -> None:
        coeffs = tuple(coeffs)
        for c in coeffs:
            if not isinstance(c, int) or isinstance(c, bool):
                raise TypeError(f"coefficients must be ints, got {type(c).__name__}")
        set_field(self, "coeffs", _trim(coeffs))

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

    def scaled_value(self, num: int, den: int) -> int:
        """den**degree * P(num/den) as an integer, for den > 0.

        Shares sign and zeroness with P(num/den); the exact value is this
        integer over den**max(degree, 0).
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


def _from_ints(coeffs: Sequence[int]) -> IntPolynomial:
    """IntPolynomial(coeffs) without the per-coefficient type check, for the
    library's own constructions, whose coefficients come from int arithmetic
    alone.  The public constructor keeps the check for what callers hand in."""
    poly = object.__new__(IntPolynomial)
    set_field(poly, "coeffs", _trim(coeffs))
    return poly
