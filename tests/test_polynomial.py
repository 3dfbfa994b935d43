import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomedian.critical import critical_poly
from binomedian.polynomial import IntPolynomial
from helpers import (
    fraction_horner,
    horner_compose_one_minus_x,
    poly_add,
    poly_mul,
    sign_at,
    taylor_reflect,
)

int_polys = st.lists(st.integers(), max_size=25).map(IntPolynomial)
rationals = st.fractions(max_denominator=2**130)


class TestConstruction:
    def test_trailing_zeros_trimmed(self):
        assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)

    def test_zero_polynomial(self):
        assert IntPolynomial((0, 0)).is_zero
        assert IntPolynomial(()).degree == -1
        assert IntPolynomial(()).constant == 0
        assert IntPolynomial(()).coeffs == ()

    @pytest.mark.parametrize(
        "coeffs", [(0.5, 1), ("3",), (True, 1), (1, Fraction(2))], ids=["float", "str", "bool", "Fraction"]
    )
    def test_rejects_non_int_coefficients(self, coeffs):
        # int() would round 0.5 to 0 and parse "3": nothing here may round
        with pytest.raises(TypeError):
            IntPolynomial(coeffs)

    def test_degree_constant_leading(self):
        p = IntPolynomial((1, -4, 2))
        assert p.degree == 2
        assert p.constant == 1
        assert p.coeffs[-1] == 2


class TestArithmetic:
    def test_add_cancels(self):
        assert poly_add(IntPolynomial((1, 2)), IntPolynomial((3, -2))) == IntPolynomial((4,))

    def test_mul(self):
        # (1 - x)(1 + x) = 1 - x^2
        assert poly_mul(IntPolynomial((1, -1)), IntPolynomial((1, 1))) == IntPolynomial((1, 0, -1))
        assert poly_mul(IntPolynomial((1, -1)), IntPolynomial(())).is_zero
        assert poly_mul(IntPolynomial(()), IntPolynomial((2,))).is_zero
        assert poly_mul(IntPolynomial(()), IntPolynomial(())).is_zero


class TestEvaluation:
    def test_horner_known_value(self):
        p = IntPolynomial((1, 0, -6, 4))
        assert p.scaled_value(1, 2) == 0
        assert p.scaled_value(0, 1) == 1
        assert p.scaled_value(1, 1) == -1
        assert p.scaled_value(1, 3) == 27 - 18 + 4

    def test_scaled_value_matches_fraction_horner(self):
        rng = random.Random(31)
        for _ in range(200):
            coeffs = tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 8)))
            p = IntPolynomial(coeffs)
            num = rng.randint(-20, 20)
            den = rng.randint(1, 20)
            x = Fraction(num, den)
            scaled = p.scaled_value(num, den)
            assert Fraction(scaled, den ** max(p.degree, 0)) == fraction_horner(p, x)

    @settings(deadline=None)
    @given(int_polys, st.one_of(rationals, st.integers()))
    def test_scaled_value_matches_fraction_horner_oracle(self, p, x):
        x = Fraction(x)
        expected = fraction_horner(p, x)
        scaled = p.scaled_value(x.numerator, x.denominator)
        assert Fraction(scaled, x.denominator ** max(p.degree, 0)) == expected

    def test_scaled_value_requires_positive_denominator(self):
        with pytest.raises(ValueError):
            IntPolynomial((1, 1)).scaled_value(1, 0)

    def test_sign_at(self):
        p = IntPolynomial((1, -2))
        assert sign_at(p, Fraction(0)) == 1
        assert sign_at(p, Fraction(1, 2)) == 0
        assert sign_at(p, Fraction(1)) == -1


class TestCompose:
    """`helpers.taylor_reflect`, the coefficients of -P(1 - x)."""

    def test_one_minus_x_on_line(self):
        # -(1 - 2(1-x)) = 1 - 2x
        assert taylor_reflect([1, -2]) == [1, -2]
        assert taylor_reflect([0, 1]) == [-1, 1]

    @settings(deadline=None)
    @given(int_polys)
    def test_involution(self, p):
        assert taylor_reflect(taylor_reflect(p.coeffs)) == list(p.coeffs)

    def test_matches_horner_on_every_critical_polynomial(self):
        for n in range(1, 41):
            for k in range(1, n + 1):
                poly = critical_poly(n, k)
                want = [-c for c in horner_compose_one_minus_x(poly).coeffs]
                assert taylor_reflect(poly.coeffs) == want, (n, k)

    @settings(deadline=None)
    @given(int_polys)
    def test_matches_horner_oracle(self, p):
        assert taylor_reflect(p.coeffs) == [-c for c in horner_compose_one_minus_x(p).coeffs]

    def test_matches_pointwise_evaluation(self):
        rng = random.Random(33)
        for _ in range(100):
            p = IntPolynomial(tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 8))))
            q = IntPolynomial(taylor_reflect(p.coeffs))
            x = Fraction(rng.randint(-10, 10), rng.randint(1, 10))
            assert fraction_horner(q, x) == -fraction_horner(p, 1 - x)
