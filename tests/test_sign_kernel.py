"""`critical._sign_at`, the sign kernel of root isolation, against the exact
`scaled_value`.

`_horner_floor` must keep its error lemma, V <= P(x) * 2^q < V + degree, at
every q >= t, with no guard bits (q = t) too.  `_sign_at` must agree with the
exact sign everywhere, and only its exact fallback may report 0.  The
fallback guard makes a silent slide back to exact Horner fail without any
timing.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomedian import critical
from binomedian.critical import Bracket
from binomedian.polynomial import IntPolynomial
from helpers import dyadic_value


def exact_sign(poly, m, t):
    value = poly.scaled_value(m, 1 << t)
    return (value > 0) - (value < 0)


def check_lemma(poly, m, t, q):
    """Assert V <= P(m / 2^t) * 2^q < V + d exactly, and return the sign V
    proves (+1, -1, or None when it proves neither)."""
    d = poly.degree
    value = critical._horner_floor(poly, m, t, q)
    # P(m / 2^t) = scaled_value / 2^(t*d)
    scaled = poly.scaled_value(m, 1 << t) << q
    assert value << (t * d) <= scaled < (value + d) << (t * d), (m, t, q)
    if value > 0:
        return 1
    if value + d <= 0:
        return -1
    return None


@pytest.fixture
def exact_calls(monkeypatch):
    """A one-element list counting every exact `scaled_value` call."""
    count = [0]
    scaled_value = IntPolynomial.scaled_value

    def counting(self, num, den):
        count[0] += 1
        return scaled_value(self, num, den)

    monkeypatch.setattr(IntPolynomial, "scaled_value", counting)
    return count


def test_exhaustive_small_grid():
    for n in range(1, 13):
        for k in range(1, n + 1):
            poly = critical.critical_poly(n, k)
            for t in range(9):
                for m in range(2**t + 1):
                    want = exact_sign(poly, m, t)
                    assert critical._sign_at(poly, m, t) == want, (n, k, m, t)
                    starved = check_lemma(poly, m, t, t)
                    assert starved in (None, want), (n, k, m, t)


@st.composite
def points(draw):
    """(poly, m, t): a critical polynomial with n <= 200 and 0 <= m <= 2^t,
    half the time within two cells of the root, where signs are hardest."""
    n = draw(st.integers(1, 200))
    k = draw(st.integers(1, n))
    t = draw(st.integers(0, 300))
    poly = critical.critical_poly(n, k)
    if draw(st.booleans()):
        m = min(max(critical._newton_cell(poly, n, k, t) + draw(st.integers(-2, 2)), 0), 2**t)
    else:
        m = draw(st.integers(0, 2**t))
    return poly, m, t


@settings(max_examples=150, deadline=None)
@given(point=points(), extra=st.integers(0, 40))
def test_property_matches_exact_sign(point, extra):
    poly, m, t = point
    want = exact_sign(poly, m, t)
    assert critical._sign_at(poly, m, t) == want
    for q in (t, t + extra):
        assert check_lemma(poly, m, t, q) in (None, want)


def test_starved_precision_never_decides_wrong():
    # q = t leaves no guard bits, so the bound alone must keep every decision
    # right; the points sit next to each root, where P is smallest
    decided = 0
    for n in range(1, 41):
        for k in range(1, n + 1):
            poly = critical.critical_poly(n, k)
            for t in (8, 40, 117):
                lo = critical._newton_cell(poly, n, k, t)
                for m in range(max(lo - 2, 0), min(lo + 4, 2**t + 1)):
                    starved = check_lemma(poly, m, t, t)
                    assert starved in (None, exact_sign(poly, m, t)), (n, k, m, t)
                    decided += starved is not None
    assert decided > 0


def test_oracle_dyadic_value_matches_scaled_value():
    # `helpers.bisection_enclose` signs with `dyadic_value`, not the library's
    # `scaled_value`; the two must be the same integer
    for n in range(1, 13):
        for k in range(1, n + 1):
            poly = critical.critical_poly(n, k)
            for t in range(7):
                for m in range(2**t + 1):
                    assert dyadic_value(poly, m, t) == poly.scaled_value(m, 1 << t), (n, k, m, t)
    poly = IntPolynomial((5,))
    assert dyadic_value(poly, 3, 4) == poly.scaled_value(3, 16) == 5


def test_odd_middle_half_is_zero_through_the_exact_path(exact_calls):
    for n in range(1, 42, 2):
        poly = critical.critical_poly(n, (n + 1) // 2)
        for t in range(1, 9):
            exact_calls[0] = 0
            assert critical._sign_at(poly, 1 << (t - 1), t) == 0, (n, t)
            assert exact_calls[0] == 1, (n, t)


def test_forced_fallback_takes_one_fixed_try_then_the_exact_sign(monkeypatch, exact_calls):
    tries = [0]

    def undecided(poly, m, t, q):
        tries[0] += 1
        return 0  # V = 0 proves no sign for degree >= 1

    monkeypatch.setattr(critical, "_horner_floor", undecided)
    for n in range(1, 9):
        for k in range(1, n + 1):
            poly = critical.critical_poly(n, k)
            for m in range(17):
                want = exact_sign(poly, m, 4)
                tries[0] = exact_calls[0] = 0
                assert critical._sign_at(poly, m, 4) == want, (n, k, m)
                assert (tries[0], exact_calls[0]) == (1, 1), (n, k, m)


def test_exact_fallback_stays_rare(monkeypatch, exact_calls):
    # the start's steps and the two proving signs decide every irrational root
    # in fixed point, each sign at the first precision tried; only the odd
    # middle root 1/2 needs the exact path
    signs, tries, inside = [0], [0], [False]
    sign_at, horner_floor = critical._sign_at, critical._horner_floor

    def counting_sign_at(poly, m, t):
        signs[0] += 1
        inside[0] = True
        try:
            return sign_at(poly, m, t)
        finally:
            inside[0] = False

    def counting_horner_floor(poly, m, t, q):
        tries[0] += inside[0]
        return horner_floor(poly, m, t, q)

    monkeypatch.setattr(critical, "_sign_at", counting_sign_at)
    monkeypatch.setattr(critical, "_horner_floor", counting_horner_floor)
    width = Fraction(1, 10**35)
    roots = 0
    for n in range(1, 41):
        for k in range(1, n + 1):
            exact_calls[0] = signs[0] = tries[0] = 0
            enclosure = critical.isolate_root(n, k, width)
            if isinstance(enclosure, Bracket):
                roots += 1
                assert exact_calls[0] == 0, (n, k, exact_calls[0])
                assert tries[0] == signs[0] > 0, (n, k, tries[0], signs[0])
    assert roots == 800
