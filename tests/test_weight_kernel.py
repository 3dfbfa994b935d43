"""The integer weight kernel behind cdf, pmf and median_binomial, checked
against the Fraction mass-ratio oracles in `helpers`."""

from fractions import Fraction
from itertools import accumulate
from math import ceil, floor

from hypothesis import given, settings
from hypothesis import strategies as st

from binomedian.distribution import BinomialParams, cdf, pmf, pmf_sequence
from binomedian.median import MedianInterval, UniqueMedian, median_binomial
from helpers import fraction_cdf, fraction_median_binomial, fraction_pmf_sequence

# every n <= 30 against every reduced a/b in [0, 1] with b <= 16
PROBABILITIES = sorted({Fraction(a, b) for b in range(1, 17) for a in range(b + 1)})
GRID = [(n, p) for n in range(31) for p in PROBABILITIES]


def medians(result) -> set[Fraction]:
    if isinstance(result, UniqueMedian):
        return {result.m}
    return {result.m1, result.m2}


def test_exhaustive_against_fraction_oracles():
    for n, p in GRID:
        params = BinomialParams(n, p)
        masses = list(fraction_pmf_sequence(params))
        assert list(pmf_sequence(params)) == masses
        assert [pmf(k, params) for k in range(n + 1)] == masses
        # fraction_cdf(k) for k = -1, ..., n + 1, in one pass
        expected = [Fraction(0), *accumulate(masses), Fraction(1)]
        assert [cdf(k, params) for k in range(-1, n + 2)] == expected, (n, p)
        assert median_binomial(n, p) == fraction_median_binomial(n, p), (n, p)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(0, 400),
    b=st.integers(1, 10**6),
    data=st.data(),
)
def test_matches_fraction_oracles_up_to_400(n, b, data):
    a = data.draw(st.integers(0, b))
    k = data.draw(st.integers(-1, n + 1))
    params = BinomialParams(n, Fraction(a, b))
    assert cdf(k, params) == fraction_cdf(k, params)
    assert median_binomial(n, params.p) == fraction_median_binomial(n, params.p)


def test_median_lies_at_floor_or_ceiling_of_np():
    # Kaas & Buhrman (1980): every median of B(n, p) is floor(np) or ceil(np)
    for n, p in GRID:
        assert medians(median_binomial(n, p)) <= {floor(n * p), ceil(n * p)}, (n, p)


def test_reflection_of_median_and_cdf():
    for n, p in GRID:
        left, right = median_binomial(n, p), median_binomial(n, 1 - p)
        if isinstance(left, UniqueMedian):
            assert right == UniqueMedian(n - left.m)
        else:
            assert right == MedianInterval(n - left.m2, n - left.m1)
        params, mirror = BinomialParams(n, p), BinomialParams(n, 1 - p)
        for k in range(-1, n + 2):
            assert cdf(k, params) + cdf(n - k - 1, mirror) == 1


def test_median_at_n_20000():
    assert median_binomial(20000, Fraction(3, 7)) == UniqueMedian(Fraction(8571))
