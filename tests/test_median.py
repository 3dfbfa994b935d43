import random
from fractions import Fraction

from binomedian.median import MedianInterval, UniqueMedian, median_binomial
from helpers import HALF


class TestMedianBinomial:
    def test_odd_half_exception(self):
        assert median_binomial(3, Fraction(1, 2)) == MedianInterval(
            Fraction(1), Fraction(2)
        )

    def test_even_half_is_unique(self):
        # CDF values 1/4 and 3/4 straddle 1/2 strictly
        assert median_binomial(2, Fraction(1, 2)) == UniqueMedian(Fraction(1))

    def test_single_trial(self):
        # P(X <= 0) = 2/3 > 1/2 and P(X >= 0) = 1 > 1/2
        assert median_binomial(1, Fraction(1, 3)) == UniqueMedian(Fraction(0))

    def test_degenerate(self):
        assert median_binomial(5, 0) == UniqueMedian(Fraction(0))
        assert median_binomial(5, 1) == UniqueMedian(Fraction(5))
        assert median_binomial(0, Fraction(1, 3)) == UniqueMedian(Fraction(0))

    def test_mirror_symmetry(self):
        rng = random.Random(23)
        for _ in range(100):
            n = rng.randint(0, 40)
            den = rng.randint(1, 80)
            p = Fraction(rng.randint(0, den), den)
            left = median_binomial(n, p)
            right = median_binomial(n, 1 - p)
            if isinstance(left, UniqueMedian):
                assert right == UniqueMedian(n - left.m)
            else:
                assert right == MedianInterval(n - left.m2, n - left.m1)

    def test_uniqueness_unless_half_and_odd(self):
        rng = random.Random(24)
        for _ in range(300):
            n = rng.randint(1, 60)
            den = rng.randint(2, 200)
            p = Fraction(rng.randint(1, den - 1), den)
            result = median_binomial(n, p)
            if p == HALF and n % 2 == 1:
                assert result == MedianInterval(Fraction(n - 1, 2), Fraction(n + 1, 2))
            else:
                assert isinstance(result, UniqueMedian)
