import random
from fractions import Fraction
from math import comb

import pytest

from binomedian.distribution import BinomialParams, ParameterError, binomial_weights, cdf, pmf

HALF = Fraction(1, 2)


def direct_cdf(k: int, n: int, p: Fraction) -> Fraction:
    """Independent oracle: plain sum of the closed-form masses."""
    return sum(
        (comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(0, min(k, n) + 1)),
        Fraction(0),
    )


def random_p(rng: random.Random, denom_max: int = 50) -> Fraction:
    den = rng.randint(2, denom_max)
    return Fraction(rng.randint(1, den - 1), den)


class TestParams:
    def test_accepts_endpoints(self):
        BinomialParams(0, Fraction(0))
        BinomialParams(5, Fraction(1))

    @pytest.mark.parametrize("n,p", [(-1, Fraction(1, 2)), (3, Fraction(-1, 2)), (3, Fraction(3, 2))])
    def test_rejects_bad_domain(self, n, p):
        with pytest.raises(ParameterError):
            BinomialParams(n, p)

    def test_rejects_float_probability(self):
        with pytest.raises(TypeError):
            BinomialParams(3, 0.5)

    def test_keeps_a_fraction_as_it_is(self):
        p = Fraction(2, 7)
        assert BinomialParams(3, p).p is p

    @pytest.mark.parametrize("p", [0, 1])
    def test_int_probability_becomes_a_fraction(self, p):
        params = BinomialParams(3, p)
        assert type(params.p) is Fraction and params.p == p

    @pytest.mark.parametrize("p", [True, False, 1.0])
    def test_rejects_bool_and_float_probability(self, p):
        with pytest.raises(TypeError, match=f"exact rational .* got {type(p).__name__}"):
            BinomialParams(3, p)

    @pytest.mark.parametrize(
        "p, shown",
        [(Fraction(-1, 2), "-1/2"), (-1, "-1"), (Fraction(3, 2), "3/2"), (2, "2")],
    )
    def test_out_of_range_message(self, p, shown):
        with pytest.raises(ParameterError, match=rf"^p must lie in \[0, 1\], got {shown}$"):
            BinomialParams(3, p)


class TestPmf:
    def test_all_failures(self):
        assert pmf(0, BinomialParams(4, Fraction(1, 3))) == Fraction(16, 81)

    def test_symmetric_middle(self):
        # 2 * (1/2) * (1/2), straight from the closed form
        assert pmf(1, BinomialParams(2, Fraction(1, 2))) == Fraction(1, 2)

    def test_reduced_value(self):
        # 6 * (1/9) * (4/9) = 24/81 = 8/27
        assert pmf(2, BinomialParams(4, Fraction(1, 3))) == Fraction(8, 27)

    def test_outside_support_is_zero(self):
        params = BinomialParams(4, Fraction(1, 3))
        assert pmf(-1, params) == 0
        assert pmf(5, params) == 0

    def test_incremental_sequence_matches_closed_form(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(0, 25)
            p = random_p(rng)
            a, b = p.numerator, p.denominator
            masses = [Fraction(w, b**n) for w in binomial_weights(n, a, b - a)]
            assert masses == [pmf(k, BinomialParams(n, p)) for k in range(n + 1)]


class TestCdf:
    def test_total_mass(self):
        for n, p in [(0, Fraction(1, 3)), (5, Fraction(2, 7)), (9, Fraction(1))]:
            assert cdf(n, BinomialParams(n, p)) == 1

    def test_exact_half_case(self):
        # 1/8 + 3/8: the odd-n, p = 1/2 boundary value
        assert cdf(1, BinomialParams(3, Fraction(1, 2))) == HALF

    def test_square_of_failure(self):
        assert cdf(0, BinomialParams(2, Fraction(1, 4))) == Fraction(9, 16)

    def test_clamped_outside_support(self):
        params = BinomialParams(4, Fraction(1, 3))
        assert cdf(-1, params) == 0
        assert cdf(4, params) == 1
        assert cdf(7, params) == 1

    def test_against_direct_sum_oracle(self):
        rng = random.Random(6)
        for _ in range(40):
            n = rng.randint(0, 30)
            p = random_p(rng)
            k = rng.randint(-1, n + 1)
            assert cdf(k, BinomialParams(n, p)) == direct_cdf(k, n, p)

    def test_n_2000_against_direct_sum_oracle(self):
        # k = 999 sums the lower tail, k = 1000 the upper one
        params = BinomialParams(2000, Fraction(5, 11))
        for k in (999, 1000):
            assert cdf(k, params) == direct_cdf(k, 2000, params.p)


class TestSurvival:
    """The upper tail P(X >= k) = 1 - cdf(k - 1); past the middle, cdf sums
    it directly, as the lower tail of n - X ~ B(n, 1 - p)."""

    def test_full_tail(self):
        params = BinomialParams(7, Fraction(2, 5))
        assert 1 - cdf(-1, params) == 1
        assert 1 - cdf(0, params) == 1 - Fraction(3, 5) ** 7

    def test_exact_half_tail(self):
        # 3/8 + 1/8, then 1/8 alone from the reflected sum
        params = BinomialParams(3, HALF)
        assert 1 - cdf(1, params) == HALF
        assert 1 - cdf(2, params) == Fraction(1, 8)

    def test_empty_tail(self):
        params = BinomialParams(7, Fraction(2, 5))
        assert 1 - cdf(7, params) == 0
        assert 1 - cdf(6, params) == Fraction(2, 5) ** 7


class TestProperties:
    def test_normalization_up_to_60(self):
        rng = random.Random(60)
        for n in range(0, 61):
            params = BinomialParams(n, random_p(rng, 200))
            assert sum((pmf(k, params) for k in range(n + 1)), Fraction(0)) == 1

    def test_cdf_survival_complement(self):
        rng = random.Random(8)
        for _ in range(20):
            n = rng.randint(0, 20)
            params = BinomialParams(n, random_p(rng))
            # the upper tail P(X > k) summed mass by mass
            for k in range(-1, n + 2):
                tail = sum((pmf(i, params) for i in range(k + 1, n + 1)), Fraction(0))
                assert cdf(k, params) + tail == 1

    def test_cdf_strictly_increasing_on_support(self):
        rng = random.Random(9)
        for _ in range(20):
            n = rng.randint(1, 20)
            params = BinomialParams(n, random_p(rng))
            values = [cdf(k, params) for k in range(n + 1)]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_reflection(self):
        rng = random.Random(10)
        for _ in range(30):
            n = rng.randint(0, 20)
            p = random_p(rng)
            for k in range(-1, n + 2):
                # P(X <= k) = P(n - X >= n - k), and n - X ~ B(n, 1 - p)
                reflected = 1 - cdf(n - k - 1, BinomialParams(n, 1 - p))
                assert cdf(k, BinomialParams(n, p)) == reflected

    def test_cdf_strictly_decreasing_in_p(self):
        rng = random.Random(12)
        for _ in range(30):
            n = rng.randint(1, 20)
            p1, p2 = sorted({random_p(rng, 100), random_p(rng, 100)})
            if p1 == p2:
                continue
            j = rng.randint(0, n - 1)
            assert cdf(j, BinomialParams(n, p1)) > cdf(j, BinomialParams(n, p2))


class TestDegenerate:
    def test_point_mass_at_zero(self):
        params = BinomialParams(5, Fraction(0))
        assert pmf(0, params) == 1
        assert cdf(0, params) == 1
        assert [pmf(k, params) for k in range(6)] == [1, 0, 0, 0, 0, 0]

    def test_point_mass_at_n(self):
        params = BinomialParams(5, Fraction(1))
        assert pmf(5, params) == 1
        assert cdf(4, params) == 0
        assert [pmf(k, params) for k in range(6)] == [0, 0, 0, 0, 0, 1]
