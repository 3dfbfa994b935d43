"""`isolate_root` starts bisection from `_newton_cell`'s level-t cell.

The start must not change a single enclosure: every result is compared
with `bisection_enclose`, plain bisection from [0, 1].
The sign-count guard makes a silent slide back to full bisection fail
without any timing.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomedian import cli, critical
from binomedian.critical import Bracket, ExactRoot, isolate_root
from helpers import HALF, bisection_enclose

ORACLE_WIDTHS = [Fraction(1, 2), Fraction(1, 10**6), Fraction(1, 10**35)]
ORACLE_IDS = ["1/2", "1e-6", "1e-35"]


@pytest.fixture
def sign_count(monkeypatch):
    """A one-element list counting every sign decision: each call to the
    sign kernel `critical._sign_at`, whether fixed point or exact decides."""
    count = [0]
    sign_at = critical._sign_at

    def counting(poly, m, t):
        count[0] += 1
        return sign_at(poly, m, t)

    monkeypatch.setattr(critical, "_sign_at", counting)
    return count


@pytest.mark.parametrize("width", ORACLE_WIDTHS, ids=ORACLE_IDS)
def test_matches_bisection_oracle_exhaustive(width):
    for n in range(1, 41):
        for k in range(1, n + 1):
            assert isolate_root(n, k, width) == bisection_enclose(n, k, width), (n, k)


@settings(max_examples=100, deadline=None)
@given(
    nk=st.integers(1, 200).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
    digits=st.integers(0, 60),
)
def test_property_matches_bisection_oracle(nk, digits):
    n, k = nk
    width = Fraction(1, 10**digits)
    assert isolate_root(n, k, width) == bisection_enclose(n, k, width)


def test_without_newton_outputs_are_unchanged(monkeypatch, capsys):
    argvs = [
        ["table", "--n-max", "12", "--format", "json"],
        ["critical", "--n", "50", "--k", "30", "--digits", "60"],
        ["critical", "--n", "9", "--k", "5"],
        ["certify", "--n", "30", "--k", "10"],
    ]

    def outputs():
        for argv in argvs:
            assert cli.main(argv) == 0
        return capsys.readouterr().out

    with_newton = outputs()
    monkeypatch.setattr(critical, "_newton_cell", lambda *args: None)
    assert outputs() == with_newton


@pytest.mark.parametrize("offset", [-1, 1])
def test_adjacent_cell_is_rejected_by_the_two_signs(monkeypatch, sign_count, offset):
    width = Fraction(1, 10**35)
    steps = critical._steps_for(width)
    for n, k in [(2, 2), (10, 3), (40, 27)]:
        want = bisection_enclose(n, k, width)
        guess = int(want.lo * (1 << steps)) + offset
        monkeypatch.setattr(critical, "_newton_cell", lambda *args: guess)
        sign_count[0] = 0
        assert isolate_root(n, k, width) == want, (n, k)
        # rejected after one or two signs, then the full bisection ran
        assert sign_count[0] >= steps + 1, (n, k)


def test_odd_middle_index_is_exact_half():
    for n in range(1, 42, 2):
        middle = (n + 1) // 2
        poly = critical._checked_poly(n, middle)
        for width in ORACLE_WIDTHS + [critical.DEFAULT_WIDTH]:
            assert critical._newton_cell(poly, n, middle, critical._steps_for(width)) is None
            assert isolate_root(n, middle, width) == ExactRoot(HALF), (n, width)


@pytest.mark.parametrize("n", [100, 200, 300])
def test_no_fallback_at_larger_n(n):
    middle = (n + 1) // 2
    for width in (Fraction(1, 10**6), critical.DEFAULT_WIDTH, Fraction(1, 10**35)):
        t = critical._steps_for(width)
        for k in (1, 2, middle - 1, middle + 1, n - 1, n):
            poly = critical._checked_poly(n, k)
            lo = critical._newton_cell(poly, n, k, t)
            assert lo is not None, (n, k, width)
            assert poly.scaled_value(lo, 1 << t) > 0 > poly.scaled_value(lo + 1, 1 << t), (n, k)


def test_sign_evaluations_per_root_stay_low(sign_count):
    # about 117 signs per root for plain bisection at this width; the
    # Newton start needs 2, so a slide back to bisection fails here
    width = Fraction(1, 10**35)
    worst = 0
    for n in range(1, 41):
        for k in range(1, n + 1):
            sign_count[0] = 0
            enclosure = isolate_root(n, k, width)
            if isinstance(enclosure, Bracket):
                worst = max(worst, sign_count[0])
                assert sign_count[0] <= 16, (n, k, sign_count[0])
    assert worst > 0
