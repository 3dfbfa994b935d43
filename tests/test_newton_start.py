"""`isolate_root` starts bisection from the level-t cell `_proved_cell`
proves next to a start: Kerman's start at coarse levels, `_newton_cell`'s
guess beyond them, and none at the odd middle, whose root 1/2 is
bisection's first midpoint.

The start must not change a single enclosure: every result is compared
with `bisection_enclose`, plain bisection from [0, 1].
The sign-count guard makes a silent slide back to full bisection fail
without any timing, and the Horner-pass, Halley-step and exact-evaluation
guards do the same for a slide back to a slower start.
"""

import sys
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomedian import cli, critical, verify
from binomedian.critical import Bracket, ExactRoot, isolate_root
from binomedian.polynomial import IntPolynomial
from helpers import HALF, bisection_enclose, exact_halley_step, fraction_steps_for

ORACLE_WIDTHS = [Fraction(1, 2), Fraction(1, 10**6), Fraction(1, 10**35)]
ORACLE_IDS = ["1/2", "1e-6", "1e-35"]
# a small scale and a large one; the ids stay `exact` and `cut` so that the
# step tests keep their names
STEP_SCALES = [64, 2048]


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


@pytest.fixture
def halley_count(monkeypatch):
    """A one-element list counting every `critical._halley_step` call."""
    count = [0]
    halley_step = critical._halley_step

    def counting(*args):
        count[0] += 1
        return halley_step(*args)

    monkeypatch.setattr(critical, "_halley_step", counting)
    return count


@pytest.fixture
def horner_count(monkeypatch):
    """A one-element list counting every fixed-point Horner pass
    (`critical._horner_floor`): the start's steps and the proving signs."""
    count = [0]
    horner_floor = critical._horner_floor

    def counting(poly, m, t, q):
        count[0] += 1
        return horner_floor(poly, m, t, q)

    monkeypatch.setattr(critical, "_horner_floor", counting)
    return count


def assert_cells_proved(ns, digit_values):
    """`_newton_cell`'s cell passes the two proving signs for every k of each
    n at each width 10^-digits; the odd middle root 1/2 has no cell to prove."""
    for n in ns:
        for k in range(1, n + 1):
            if 2 * k == n + 1:
                continue
            poly = critical._checked_poly(n, k)
            for digits in digit_values:
                t = critical._steps_for(Fraction(1, 10**digits))
                lo = critical._newton_cell(poly, n, k, t)
                signs = critical._sign_at(poly, lo, t), critical._sign_at(poly, lo + 1, t)
                assert signs == (1, -1), (n, k, digits)


def coarse_width(n, extra=0):
    """2^-(`critical._coarse_level(n)` + extra); at extra = 0 the ordering
    check's width."""
    return Fraction(1, 1 << (critical._coarse_level(n) + extra))


def half_margin(n, k, j, t):
    """2 B(k-1; n, j / 2^t) - 1 in floating point, from the shorter tail, for
    0 < j < 2^t and n <= 2048 where that tail's first term w_0 is a normal float.

    w_0 = c^n / 2^(tn) is one correctly rounded division of exact ints, and
    each recurrence step w_{i+1} = w_i (n-i) a / ((i+1) c) multiplies and
    divides by ints below 2^53, so after the sum of at most n positive terms
    the relative error is below 3n 2^-53 < 10^-12.  A margin beyond 10^-9
    therefore has the sign of the exact value.
    """
    a, c = j, (1 << t) - j
    if k - 1 > n - k:
        # B(k-1; n, x) = 1 - B(n-k; n, 1-x)
        return -half_margin(n, n - k + 1, c, t)
    w = c**n / (1 << (t * n))
    assert w >= sys.float_info.min, (n, k, j, t)
    total = w
    for i in range(k - 1):
        w = w * ((n - i) * a) / ((i + 1) * c)
        total += w
    return 2 * total - 1


def step_args(n, k, s):
    """`_halley_step`'s arguments after m: the scale, guard and derivative constant."""
    guard = n.bit_length() + 16
    return s, guard, (2 * n * comb(n - 1, k - 1)) << guard


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
        # the odd middle, and a root whose start steps at thousands of bits
        ["critical", "--n", "7", "--k", "4", "--digits", "1000"],
        ["critical", "--n", "7", "--k", "3", "--digits", "1000"],
        ["verify", "--n-max", "12", "--seed", "3"],
    ]

    def outputs():
        for argv in argvs:
            assert cli.main(argv) == 0
        return capsys.readouterr().out

    with_start = outputs()
    # no start proves a cell, so every root is bisected from [0, 1]
    monkeypatch.setattr(critical, "_proved_cell", lambda *args: None)
    assert outputs() == with_start


@pytest.mark.parametrize("offset", [-1, 1])
def test_guess_one_cell_off_is_corrected_by_the_probe(monkeypatch, sign_count, offset):
    width = Fraction(1, 10**35)
    steps = critical._steps_for(width)
    for n, k in [(2, 2), (10, 3), (40, 27)]:
        want = bisection_enclose(n, k, width)
        guess = int(want.lo * (1 << steps)) + offset
        monkeypatch.setattr(critical, "_newton_cell", lambda *args: guess)
        sign_count[0] = 0
        assert isolate_root(n, k, width) == want, (n, k)
        # the probe proves the neighbour: two signs below the root's cell,
        # three above it, and no bisection
        assert sign_count[0] == (2 if offset > 0 else 3), (n, k, sign_count[0])


def test_odd_middle_index_is_exact_half():
    for n in range(1, 42, 2):
        middle = (n + 1) // 2
        for width in ORACLE_WIDTHS + [critical.DEFAULT_WIDTH]:
            assert isolate_root(n, middle, width) == ExactRoot(HALF), (n, width)


def test_no_fallback_at_any_width():
    # a fault in the precision schedule can show at a single width only, so
    # every width from 10^0 to 10^-60
    assert_cells_proved(range(1, 41), range(61))


@pytest.mark.parametrize("n", [100, 200, 300])
def test_no_fallback_at_larger_n(n):
    assert_cells_proved([n], sorted({*range(0, 61, 10), 6, 35}))


def test_no_fallback_at_deep_digits():
    # steps at scales of thousands of bits, where `_power_top` cuts most of
    # each derivative power
    assert_cells_proved(range(1, 13), range(100, 1300, 150))


def test_horner_passes_per_root(horner_count):
    # 4 Halley steps reach the cell and 2 signs prove it; Newton took 6 + 2
    width = Fraction(1, 10**35)
    roots = 0
    for n in range(1, 41):
        for k in range(1, n + 1):
            horner_count[0] = 0
            if isinstance(isolate_root(n, k, width), Bracket):
                roots += 1
                assert horner_count[0] == 6, (n, k, horner_count[0])
    assert roots == 800


@pytest.mark.parametrize("s", STEP_SCALES, ids=["exact", "cut"])
@pytest.mark.parametrize("n", [2, 5, 40, 300])
def test_step_from_either_end_is_bounded(n, s):
    top = (1 << s) - 1
    for k in (1, n):
        poly = critical._checked_poly(n, k)
        # P' vanishes to order n - 1 at the flat end, where Newton's step
        # would be about 2^(s(n-2)) units; Halley's is about 2/(n-1)
        flat, steep = (1, top) if k == n else (top, 1)
        assert abs(critical._halley_step(poly, n, k, flat, *step_args(n, k, s)) - flat) <= 2
        # from the steep end the step moves toward the root and stays inside
        new = critical._halley_step(poly, n, k, steep, *step_args(n, k, s))
        assert 0 < new < top and (new - steep) * (top - 2 * steep) > 0, (k, new)


@pytest.mark.parametrize("s", STEP_SCALES, ids=["exact", "cut"])
def test_step_is_newtons_where_halleys_denominator_is_not_positive(monkeypatch, s):
    # at k = 1, P''/P' < 0; from m = 2^(s-1) a planted P(1/2) = 16 makes
    # 2my + d c negative, and P(1/2) = 10/64 makes d = 2^(s-2) and 2my + d c
    # exactly 0, where a division by it would fail
    n, k, m = 5, 1, 1 << (s - 1)
    _, guard, scale = step_args(n, k, s)
    y = (1 << s) - m
    for value, den_sign in [(1 << (s + guard + 4), -1), (10 << (s + guard - 6), 0)]:
        monkeypatch.setattr(critical, "_horner_floor", lambda *args, value=value: value)
        d = (value << s * (n - 1)) // (scale * y ** (n - 1))
        den = 2 * m * y + d * ((k - 1) * y - (n - k) * m)
        assert (den > 0) - (den < 0) == den_sign
        new = critical._halley_step(critical._checked_poly(n, k), n, k, m, s, guard, scale)
        # y is a power of two here, so `_power_top` cuts only zero bits
        assert new == m + d, value


def test_step_is_within_a_few_units_of_the_exact_step():
    # from points as far off as each step's input: one third of the bits right
    nks = [(2, 1), (5, 2), (7, 7), (40, 27), (300, 1), (300, 151), (1000, 600), (4000, 1)]
    for n, k in nks:
        poly = critical._checked_poly(n, k)
        for s in (64, 200, 700, 2000):
            root = critical._newton_cell(poly, n, k, s)
            for offset in (-(1 << (2 * s // 3)), 1 << (s // 2), 1 << (s // 3), 1):
                m = root + offset
                args = (poly, n, k, m, *step_args(n, k, s))
                step, exact = critical._halley_step(*args), exact_halley_step(*args)
                assert abs(step - exact) <= 3, (n, k, s, offset, step - exact)


@settings(max_examples=200, deadline=None)
@given(
    base=st.integers(0, 300).flatmap(lambda s: st.integers(0, (1 << s) - 1)),
    e=st.integers(0, 3000),
    bits=st.integers(8, 400),
)
def test_power_top_is_within_its_bound_below_the_power(base, e, bits):
    v, r = critical._power_top(base, e, bits)
    power = base**e
    # base^e (1 - e 2^(2-bits)) <= v 2^r, in integers: v 2^r is one, so the
    # floor of the bound's subtrahend gives the same test
    assert power - (power * e >> bits - 2) <= v << r <= power


def test_power_top_at_exponents_zero_and_one():
    for base in (0, 1, 5, (1 << 300) - 1):
        assert critical._power_top(base, 0, 8) == (1, 0)
    # e = 1 is the base, cut to its top `bits` bits
    assert critical._power_top(200, 1, 8) == (200, 0)
    assert critical._power_top(0b1011011101, 1, 8) == (0b10110111, 2)


@pytest.mark.parametrize(
    "width",
    [Fraction(3, 2), Fraction(1, 2), Fraction(3, 10**7)] + [Fraction(1, 10**d) for d in range(61)],
)
def test_steps_for_matches_the_fraction_formula(width):
    assert critical._steps_for(width) == fraction_steps_for(width)


def test_sign_evaluations_per_root_stay_low(sign_count):
    # about 117 signs per root for plain bisection at this width; the probe
    # next to the start takes two, a third where the cell is one above, and
    # the odd middle is bisection's first sign, so a slide back to bisection
    # fails here
    width = Fraction(1, 10**35)
    for n in range(1, 41):
        for k in range(1, n + 1):
            sign_count[0] = 0
            enclosure = isolate_root(n, k, width)
            assert sign_count[0] <= (1 if 2 * k == n + 1 else 3), (n, k, sign_count[0])
            if 2 * k == n + 1:
                assert enclosure == ExactRoot(HALF), n


@pytest.mark.parametrize("digits", [35, 125, 400])
def test_odd_middle_is_evaluated_exactly_once_and_takes_no_halley_step(
    monkeypatch, halley_count, digits
):
    # only `_sign_at`'s fallback evaluates P exactly, and only the odd
    # middle's 1/2 reaches it, as bisection's first midpoint: once per odd
    # middle, with no start and so no Halley step before it
    exact, halley_ks = [0], []
    scaled_value, halley_step = IntPolynomial.scaled_value, critical._halley_step

    def counting(self, num, den):
        exact[0] += 1
        return scaled_value(self, num, den)

    def recording(poly, n, k, *args):
        halley_ks.append(2 * k == n + 1)
        return halley_step(poly, n, k, *args)

    monkeypatch.setattr(IntPolynomial, "scaled_value", counting)
    monkeypatch.setattr(critical, "_halley_step", recording)
    width = Fraction(1, 10**digits)
    for n in range(1, 61):
        for k in range(1, n + 1):
            before = exact[0]
            isolate_root(n, k, width)
            assert exact[0] - before == (1 if 2 * k == n + 1 else 0), (n, k, exact[0] - before)
    assert exact[0] == 30
    assert halley_ks and not any(halley_ks)


# ---------------------------------------------------------------------------
# coarse levels: the cell from signs next to Kerman's start


def test_coarse_cells_match_bisection_oracle():
    # the ordering check's width, where every root but the odd middle starts
    # from Kerman's start
    for n in range(1, 201):
        width = coarse_width(n)
        for k, poly in enumerate(verify._critical_polys(n), 1):
            want = bisection_enclose(n, k, width, poly)
            assert isolate_root(n, k, width, poly=poly) == want, (n, k)


@pytest.mark.parametrize(
    "width_for",
    [lambda n: Fraction(1, 2), lambda n: Fraction(1, 7), lambda n: coarse_width(n, -1)],
    ids=["1/2", "1/7", "2^-(bitlen+3)"],
)
def test_coarse_cells_match_bisection_oracle_at_other_widths(width_for):
    # at 1/2 and 1/7 the start's cell touches 0, 1/2 or 1 for some roots, and
    # bisection goes on below it
    for n in range(1, 41):
        width = width_for(n)
        assert critical._steps_for(width) <= critical._coarse_level(n)
        for k in range(1, n + 1):
            assert isolate_root(n, k, width) == bisection_enclose(n, k, width), (n, k)


def kerman_within_one_cell(n, k):
    """Kerman's start on the ordering check's level lies within one cell of
    the root: P_{n,k} is positive one cell below the start's cell m and
    negative two cells above it, so the root's cell is m - 1, m or m + 1."""
    t = critical._coarse_level(n)
    m = critical._kerman_start(n, k, t)
    return half_margin(n, k, m - 1, t) > 1e-9 and half_margin(n, k, m + 2, t) < -1e-9


def test_kerman_start_within_one_cell_of_every_root():
    for n in range(1, 401):
        for k in range(1, n + 1):
            assert kerman_within_one_cell(n, k), (n, k)


def test_kerman_start_within_one_cell_at_the_extreme_indices():
    # n |p - start| is largest at k = 1 and k = n, tending to ln 2 - 2/3
    for n in range(1, 2049):
        for k in {1, min(2, n), max(n - 1, 1), n}:
            assert kerman_within_one_cell(n, k), (n, k)


def test_coarse_roots_take_at_most_three_signs_and_no_halley_step(sign_count, halley_count):
    # two signs prove the cell next to the start, a third where it is one
    # above; the odd middle is bisection's first sign; a fallback to
    # bisection would take bit_length(n) + 4 signs or more
    for n in range(1, 301):
        width = coarse_width(n)
        for k in range(1, n + 1):
            sign_count[0] = 0
            enclosure = isolate_root(n, k, width)
            assert sign_count[0] <= (1 if 2 * k == n + 1 else 3), (n, k, sign_count[0])
            if 2 * k == n + 1:
                assert enclosure == ExactRoot(HALF), n
    assert halley_count[0] == 0


@pytest.mark.parametrize("width_for", [lambda n: Fraction(1, 2), lambda n: Fraction(1, 7), coarse_width])
def test_zero_next_to_the_start_is_left_to_bisection(width_for):
    # P = 1 - 2x passes the endpoint check for every (n, k), and 1/2 is the
    # only dyadic zero such a polynomial can have (its rational roots are
    # 1/r, and P(1) = -1 rules out every r but 2).  At width 1/7, for
    # example, 1/2 is the grid point below the start's cell for (2, 2) and
    # that cell's upper end for (4, 2): no cell ending at a zero is proved
    poly = IntPolynomial((1, -2))
    for n in range(1, 41):
        for k in range(1, n + 1):
            assert isolate_root(n, k, width_for(n), poly=poly) == ExactRoot(HALF), (n, k)


@pytest.mark.parametrize("offset", [-2, 2])
def test_start_two_cells_off_is_rejected_by_the_signs(monkeypatch, sign_count, offset):
    # Kerman's start at the coarse width, `_newton_cell`'s guess at 10^-35
    starts = [("_kerman_start", coarse_width), ("_newton_cell", lambda n: Fraction(1, 10**35))]
    for name, width_for in starts:
        for n, k in [(2, 2), (10, 3), (40, 27), (300, 1), (300, 300)]:
            width = width_for(n)
            steps = critical._steps_for(width)
            want = bisection_enclose(n, k, width)
            start = int(want.lo * (1 << steps)) + offset
            monkeypatch.setattr(critical, name, lambda *args: start)
            sign_count[0] = 0
            assert isolate_root(n, k, width) == want, (name, n, k)
            # rejected after two or three signs, then the full bisection ran
            assert sign_count[0] >= steps + 2, (name, n, k)
