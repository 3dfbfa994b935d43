import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomedian.rational import (
    RationalParseError,
    ZeroDenominatorError,
    as_exact,
    decimal_string,
    format_rational,
    parse_rational,
    shared_prefix_decimal,
)
from helpers import fraction_decimal_string, fraction_shared_prefix_decimal

# every a/b with b < 200 and a <= 2b: terminating expansions and ties
# (b dividing 2 * 10**digits) included
GRID = sorted({Fraction(a, b) for b in range(1, 200) for a in range(2 * b + 1)})

denominators = st.one_of(
    st.integers(1, 2**130),
    st.integers(1, 10**40),
    st.builds(lambda i, j: 2**i * 5**j, st.integers(0, 130), st.integers(0, 40)),
)


@st.composite
def nonnegative_rationals(draw):
    den = draw(denominators)
    return Fraction(draw(st.integers(0, 3 * den)), den)


@st.composite
def brackets(draw):
    lo = draw(nonnegative_rationals())
    gap = draw(st.one_of(nonnegative_rationals(), denominators.map(lambda d: Fraction(1, d))))
    return lo, lo + gap


class TestArithmetic:
    def test_addition(self):
        assert Fraction(1, 3) + Fraction(1, 6) == Fraction(1, 2)

    def test_power(self):
        assert Fraction(1, 2) ** 3 == Fraction(1, 8)

    def test_compare(self):
        assert Fraction(2, 3) > Fraction(1, 2)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Fraction(1, 2) / Fraction(0)

    def test_results_stay_canonical(self):
        r = Fraction(1, 6) * Fraction(3, 1)
        assert (r.numerator, r.denominator) == (1, 2)


class TestParseFormat:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1/2", Fraction(1, 2)),
            ("-3/7", Fraction(-3, 7)),
            ("0/1", Fraction(0)),
            ("5", Fraction(5)),
            ("+2/6", Fraction(1, 3)),
            (" 4/8 ", Fraction(1, 2)),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_rational(text) == expected

    @pytest.mark.parametrize("text", ["", "0.5", "a/b", "1/2/3", "1/-2", "--1"])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(RationalParseError):
            parse_rational(text)

    def test_parse_rejects_zero_denominator(self):
        with pytest.raises(ZeroDenominatorError):
            parse_rational("1/0")

    def test_format(self):
        assert format_rational(Fraction(1, 2)) == "1/2"
        assert format_rational(Fraction(-3, 7)) == "-3/7"
        assert format_rational(Fraction(0)) == "0/1"
        assert format_rational(Fraction(2)) == "2/1"

    def test_round_trip(self):
        rng = random.Random(3)
        for _ in range(100):
            x = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
            assert parse_rational(format_rational(x)) == x


class TestAsExact:
    def test_accepts_int_and_fraction(self):
        assert as_exact(3) == Fraction(3)
        assert as_exact(Fraction(1, 2)) == Fraction(1, 2)

    def test_rejects_floats_and_bools(self):
        with pytest.raises(TypeError):
            as_exact(0.5)
        with pytest.raises(TypeError):
            as_exact(True)


class TestDecimalString:
    def test_terminating_is_exact_and_short(self):
        assert decimal_string(Fraction(1, 2), 30) == "0.5"
        assert decimal_string(Fraction(3, 4), 10) == "0.75"
        assert decimal_string(Fraction(1), 5) == "1"
        assert decimal_string(Fraction(0), 5) == "0"

    def test_nonterminating_is_rounded_full_width(self):
        assert decimal_string(Fraction(1, 3), 10) == "0.3333333333"
        assert decimal_string(Fraction(2, 3), 10) == "0.6666666667"

    def test_ties_round_to_even(self):
        assert decimal_string(Fraction(1, 8), 2) == "0.12"
        assert decimal_string(Fraction(3, 8), 2) == "0.38"

    def test_grid_matches_fraction_oracle(self):
        for x in GRID:
            for digits in (1, 2, 3):
                assert decimal_string(x, digits) == fraction_decimal_string(x, digits), (x, digits)

    @settings(deadline=None, max_examples=500)
    @given(nonnegative_rationals(), st.integers(1, 40))
    def test_matches_fraction_oracle(self, x, digits):
        assert decimal_string(x, digits) == fraction_decimal_string(x, digits)

    def test_rejects_negative_and_bad_digits(self):
        with pytest.raises(ValueError):
            decimal_string(Fraction(-1, 2), 5)
        with pytest.raises(ValueError):
            decimal_string(Fraction(1, 2), 0)


class TestSharedPrefixDecimal:
    def test_tight_bracket_shows_all_digits(self):
        lo = Fraction(70710678118654752, 10**17)
        hi = lo + Fraction(1, 10**17)
        assert shared_prefix_decimal(lo, hi, 10) == "0.7071067811"

    def test_disagreeing_digits_are_dropped(self):
        lo = Fraction(4999, 10**4)
        hi = Fraction(5001, 10**4)
        assert shared_prefix_decimal(lo, hi, 4) == "0"

    def test_never_invents_digits(self):
        # every rendered digit must be a common prefix of both expansions
        rng = random.Random(11)
        for _ in range(200):
            lo = Fraction(rng.randint(0, 10**6), 10**6 + rng.randint(1, 999))
            hi = lo + Fraction(1, rng.randint(1, 10**8))
            text = shared_prefix_decimal(lo, hi, 12)
            digits = len(text.split(".")[1]) if "." in text else 0
            scale = 10**digits
            assert (lo * scale).__floor__() == (hi * scale).__floor__()

    def test_grid_matches_fraction_oracle(self):
        # degenerate and adjacent-neighbour brackets over the sorted grid
        for lo, hi in list(zip(GRID, GRID)) + list(zip(GRID, GRID[1:])):
            for digits in (1, 2, 3):
                expected = fraction_shared_prefix_decimal(lo, hi, digits)
                assert shared_prefix_decimal(lo, hi, digits) == expected, (lo, hi, digits)

    @settings(deadline=None, max_examples=500)
    @given(brackets(), st.integers(1, 40))
    def test_matches_fraction_oracle(self, bracket, digits):
        lo, hi = bracket
        assert shared_prefix_decimal(lo, hi, digits) == fraction_shared_prefix_decimal(lo, hi, digits)

    def test_rejects_reversed_bracket(self):
        with pytest.raises(ValueError):
            shared_prefix_decimal(Fraction(1, 2), Fraction(1, 3), 5)
