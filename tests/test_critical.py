import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomedian import critical, verify
from binomedian.critical import (
    DEFAULT_WIDTH,
    Bracket,
    ExactRational,
    ExactRoot,
    FalsificationError,
    IrrationalBySymmetry,
    IrrationalUpperHalf,
    certify,
    certify_range,
    critical_poly,
    isolate_root,
)
from binomedian.distribution import BinomialParams, cdf
from binomedian.polynomial import IntPolynomial
from helpers import (
    HALF,
    comb_cdf_polynomial,
    fraction_gap_bisect,
    fraction_horner,
    icbrt_fraction,
    isqrt_fraction,
    pascal_cdf_polynomial,
    poly_add,
    poly_mul,
    product_one_minus_x_power,
    rational_root_scan,
    sign_at,
    taylor_reflect,
    twice_less_one,
    walk,
    walk_matches,
)

UNIT = (Fraction(0), Fraction(1))


def random_p(rng, denom_max=60):
    den = rng.randint(2, denom_max)
    return Fraction(rng.randint(1, den - 1), den)


class TestCriticalPoly:
    @pytest.mark.parametrize(
        "n,k,coeffs",
        [
            (1, 1, (1, -2)),          # 2(1-p) - 1
            (2, 1, (1, -4, 2)),       # 2(1-p)^2 - 1
            (2, 2, (1, 0, -2)),       # 2(1-p^2) - 1
            (3, 2, (1, 0, -6, 4)),    # 2((1-p)^3 + 3p(1-p)^2) - 1
        ],
    )
    def test_known_expansions(self, n, k, coeffs):
        assert critical_poly(n, k).coeffs == coeffs

    def test_constant_coefficient_and_degree(self):
        for n in range(1, 26):
            for k in range(1, n + 1):
                poly = critical_poly(n, k)
                assert poly.constant == 1
                assert poly.degree == n

    def test_endpoint_values(self):
        for n in range(1, 21):
            for k in range(1, n + 1):
                poly = critical_poly(n, k)
                assert fraction_horner(poly, 0) == 1
                assert fraction_horner(poly, 1) == -1

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            critical_poly(0, 1)
        with pytest.raises(ValueError):
            critical_poly(3, 0)
        with pytest.raises(ValueError):
            critical_poly(3, 4)

    def test_matches_cdf_evaluation(self):
        rng = random.Random(41)
        for _ in range(60):
            n = rng.randint(1, 25)
            k = rng.randint(1, n)
            p = random_p(rng)
            via_poly = fraction_horner(critical_poly(n, k), p)
            via_cdf = 2 * cdf(k - 1, BinomialParams(n, p)) - 1
            assert via_poly == via_cdf

    def test_strictly_decreasing_on_unit_interval(self):
        rng = random.Random(42)
        for _ in range(60):
            n = rng.randint(1, 20)
            k = rng.randint(1, n)
            p1, p2 = sorted({random_p(rng, 100), random_p(rng, 100)})
            if p1 == p2:
                continue
            poly = critical_poly(n, k)
            assert fraction_horner(poly, p1) > fraction_horner(poly, p2)

    def test_closed_form_matches_pascal_expansion(self):
        for n in range(1, 61):
            for k in range(1, n + 1):
                want = twice_less_one(pascal_cdf_polynomial(n, k - 1))
                assert critical_poly(n, k) == want, (n, k)

    @pytest.mark.parametrize("n", [100, 300, 1000])
    def test_term_ratio_matches_binomial_products(self, n):
        # the oracle's two binomials per term take about 15 s for every k at n = 1000
        ks = range(1, n + 1) if n <= 300 else sorted({1, 2, n // 3 + 1, n // 2 + 1, n - 1, n})
        for k in ks:
            assert critical_poly(n, k) == twice_less_one(comb_cdf_polynomial(n, k - 1)), (n, k)

    def test_derivative_matches_products(self):
        for n in range(1, 41):
            for k in range(1, n + 1):
                scale = IntPolynomial([0] * (k - 1) + [-2 * n * math.comb(n - 1, k - 1)])
                want = poly_mul(scale, product_one_minus_x_power(n - k))
                got = critical._derivative(n, k)
                assert len(got) == n and IntPolynomial(got) == want, (n, k)

    def test_derivative_matches_comb(self):
        for n in range(1, 61):
            for k in range(1, n + 1):
                lead = -2 * n * math.comb(n - 1, k - 1)
                want = [0] * (k - 1) + [lead * (-1) ** t * math.comb(n - k, t) for t in range(n - k + 1)]
                assert critical._derivative(n, k) == want, (n, k)

    def test_unchecked_constructions_equal_checked_ones(self):
        # the library builds these without the constructor's per-coefficient type check
        for n in range(1, 41):
            for k in range(1, n + 1):
                poly = critical_poly(n, k)
                assert poly == IntPolynomial(poly.coeffs), (n, k)

    def test_leading_coefficient_closed_form(self):
        for n in range(1, 41):
            for k in range(1, n + 1):
                want = 2 * (-1) ** (n - k + 1) * math.comb(n - 1, k - 1)
                assert critical_poly(n, k).coeffs[-1] == want, (n, k)


def polys_for(n):
    return [critical_poly(n, k) for k in range(1, n + 1)]


def walk_derivative_sides(n, i):
    """P'_{n,i} and -i x^(i-1) (2 T_i / x^i) from the oracle walk's term, as coefficient lists."""
    ((_, _, term),) = walk(n, {i})
    derivative = [s * c for s, c in enumerate(critical_poly(n, i).coeffs)][1:]
    return derivative, [0] * (i - 1) + [-i * c for c in term]


class TestDerivativeIdentity:
    """P'_{n,i} = -2n C(n-1,i-1) x^(i-1) (1-x)^(n-i), the right side from the
    oracle walk's terms; the battery's `verify._check_identities` checks it
    against `critical._derivative`."""

    def test_two_trials(self):
        # P_{2,1} = 1 - 4x + 2x^2
        assert walk_derivative_sides(2, 1) == ([-4, 4], [-4, 4])

    def test_degree_zero_case(self):
        assert walk_derivative_sides(1, 1) == ([-2], [-2])

    def test_top_index_closed_form(self):
        # P_{4,4} = 2 (1 - p^4) - 1, derivative -8p^3
        assert walk_derivative_sides(4, 4) == ([0, 0, 0, -8], [0, 0, 0, -8])

    def test_exhaustive_small(self):
        for n in range(1, 16):
            assert verify._check_identities(n, polys_for(n))[1] == (n, None), n


class TestSymmetryIdentity:
    """P_{n,i}(x) = -P_{n,n-i+1}(1 - x), from the oracle walk's R_i; the
    battery's `verify._check_identities` checks both members of a pair
    against their derivative and constant term."""

    def test_pair(self):
        ((_, r, _),) = walk(2, {1})
        assert r == [1, -4, 2] == list(critical_poly(2, 1).coeffs)
        assert r == taylor_reflect(critical_poly(2, 2).coeffs)

    def test_self_partner_antisymmetry(self):
        ((_, r, _),) = walk(3, {2})
        assert r == list(critical_poly(3, 2).coeffs) == taylor_reflect(critical_poly(3, 2).coeffs)

    def test_single_trial(self):
        ((_, r, _),) = walk(1, {1})
        assert r == [1, -2] == list(critical_poly(1, 1).coeffs) == taylor_reflect(critical_poly(1, 1).coeffs)

    def test_exhaustive_small(self):
        for n in range(1, 16):
            assert verify._check_identities(n, polys_for(n))[0] == (n, None), n

    def test_mirror_consistent_pair_is_rejected(self, monkeypatch):
        # P_{5,2} + q and P_{5,4} - q with q = x - x^2 = q(1 - x) still reflect
        # into each other; each differs from its definition R_i
        real = critical.critical_poly
        shift = {(5, 4): -1}

        def planted(n, k):
            poly, d = real(n, k), shift.get((n, k))
            return poly if d is None else poly_add(poly, IntPolynomial((0, d, -d)))

        monkeypatch.setattr(critical, "critical_poly", planted)
        polys = [planted(5, k) for k in range(1, 6)]
        # a wrong partner alone fails the pair at its lower index
        assert verify._check_identities(5, polys)[0] == (5, "n=5 i=2 reflection identity failed")
        shift[5, 2] = 1
        polys = [planted(5, k) for k in range(1, 6)]
        assert taylor_reflect(polys[3].coeffs) == list(polys[1].coeffs)
        assert verify._check_identities(5, polys)[0] == (5, "n=5 i=2 reflection identity failed")
        with pytest.raises(FalsificationError, match=r"\(n=5, i=2\)"):
            certify(5, 2)
        with pytest.raises(FalsificationError, match=r"\(n=5, i=2\)"):
            certify_range(5)


def nk_pairs(n_max):
    return st.integers(1, n_max).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n)))


class TestWalk:
    """The oracle `helpers.walk`: R_i = 2 B(i-1; n, x) - 1 = -P_{n,n-i+1}(1 - x),
    and 2 T_i / x^i."""

    def test_matches_closed_form_and_taylor_reflection(self):
        for n in range(1, 61):
            for k, r, _ in walk(n, range(1, n + 1)):
                assert r == list(critical_poly(n, k).coeffs), (n, k)
                assert r == taylor_reflect(critical_poly(n, n - k + 1).coeffs), (n, k)

    @settings(deadline=None)
    @given(nk_pairs(200))
    def test_one_index_matches_both_oracles(self, nk):
        n, k = nk
        ((i, r, _),) = walk(n, {k})
        assert i == k
        assert r == list(critical_poly(n, k).coeffs)
        assert r == taylor_reflect(critical_poly(n, n - k + 1).coeffs)

    def test_terms_match_polynomial_products(self):
        for n in range(1, 31):
            for i, _, term in walk(n, range(1, n + 1)):
                want = [2 * math.comb(n, i) * c for c in product_one_minus_x_power(n - i).coeffs]
                assert term == want, (n, i)

    def test_walk_to_some_indices_matches_the_full_walk(self):
        for n in (1, 2, 7, 40):
            full = {i: (r, term) for i, r, term in walk(n, range(1, n + 1))}
            for wanted in ({n}, {1}, {1, n}, set(range(1, n + 1, 3))):
                got = [(i, (r, term)) for i, r, term in walk(n, wanted)]
                assert got == sorted(((i, full[i]) for i in wanted), reverse=True), (n, wanted)


def changed_coefficient(n_max):
    """(n, k, s, delta): P_{n,k} with delta added at x^s, the constant included.
    delta = None cancels the coefficient, which lowers the degree at s = n."""
    return nk_pairs(n_max).flatmap(
        lambda nk: st.tuples(
            *map(st.just, nk),
            st.integers(0, nk[0]),
            st.one_of(st.none(), st.integers(-3, 3), st.integers(-(2**80), 2**80)),
        )
    )


class TestDerivativeCheck:
    """`critical._derivative_matches` with constant 1, the check the
    certificates and the battery make, against the oracle walk's R_k."""

    def test_true_lists_pass(self):
        for n in range(1, 61):
            for k, poly in enumerate(polys_for(n), 1):
                assert poly.constant == 1 and critical._derivative_matches(poly, n, k), (n, k)

    @settings(deadline=None, max_examples=300)
    @given(changed_coefficient(60))
    def test_rejects_exactly_what_the_walk_rejects(self, case):
        n, k, s, delta = case
        true = critical_poly(n, k)
        coeffs = list(true.coeffs)
        coeffs[s] = 0 if delta is None else coeffs[s] + delta
        poly = IntPolynomial(coeffs)
        passed = poly.constant == 1 and critical._derivative_matches(poly, n, k)
        assert passed == walk_matches(poly, n, k) == (poly == true)

    def test_certify_computes_two_derivatives_below_the_middle_and_none_above(self, monkeypatch):
        calls = []
        derivative = critical._derivative

        def counting(n, k):
            calls.append((n, k))
            return derivative(n, k)

        monkeypatch.setattr(critical, "_derivative", counting)
        for n in (1, 2, 7, 10, 61):
            for k in range(1, n + 1):
                calls.clear()
                certify(n, k, Fraction(1, 7))
                want = [(n, k), (n, n - k + 1)] if 2 * k < n + 1 else []
                assert sorted(calls) == sorted(want), (n, k)
            calls.clear()
            certify_range(n, Fraction(1, 7))
            assert len(calls) == n - n % 2, n
            assert sorted(calls) == [(n, k) for k in range(1, n + 1) if 2 * k != n + 1], n


class TestIsolateRoot:
    def test_linear_hits_exact_root(self):
        assert isolate_root(1, 1) == ExactRoot(Fraction(1, 2))
        assert isolate_root(1, 1, Fraction(1, 2)) == ExactRoot(Fraction(1, 2))

    def test_odd_middle_hits_exact_half(self):
        assert isolate_root(5, 3) == ExactRoot(Fraction(1, 2))

    @pytest.mark.parametrize(
        "n,k,reference",
        [
            # 1/sqrt(2), 1 - 1/sqrt(2), 1 - 2^(-1/3), via integer-root oracles
            (2, 2, isqrt_fraction(2, 40) / 2),
            (2, 1, 1 - isqrt_fraction(2, 40) / 2),
            (3, 1, 1 - icbrt_fraction(4, 40) / 2),
        ],
    )
    def test_brackets_contain_closed_forms(self, n, k, reference):
        width = Fraction(1, 10**12)
        enclosure = isolate_root(n, k, width)
        assert isinstance(enclosure, Bracket)
        assert enclosure.lo < reference < enclosure.hi
        assert enclosure.hi - enclosure.lo <= width

    def test_bracket_invariants(self):
        rng = random.Random(43)
        for _ in range(30):
            n = rng.randint(1, 20)
            k = rng.randint(1, n)
            width = Fraction(1, 10 ** rng.randint(3, 25))
            enclosure = isolate_root(n, k, width)
            if isinstance(enclosure, ExactRoot):
                assert enclosure.root == HALF
                assert n % 2 == 1 and k == (n + 1) // 2
                continue
            poly = critical_poly(n, k)
            assert 0 < enclosure.lo < enclosure.hi < 1
            assert enclosure.hi - enclosure.lo <= width
            assert sign_at(poly, enclosure.lo) > 0 > sign_at(poly, enclosure.hi)

    @pytest.mark.parametrize(
        "width",
        [Fraction(1), Fraction(1, 7), Fraction(3, 10**12), Fraction(1, 10**35)],
        ids=["1", "1/7", "3e-12", "1e-35"],
    )
    def test_integer_bisection_matches_fraction_gap_oracle(self, width):
        for n in range(1, 31):
            for k in range(1, n + 1):
                got = isolate_root(n, k, width)
                assert got == fraction_gap_bisect(critical_poly(n, k), width), (n, k)

    def test_step_cap_is_exact(self, monkeypatch):
        # width 1/7 means steps = 3: _proved_cell's three signs, then the
        # cap's 4 * 3 + 256 bisection signs, and not one more
        signs = []

        def always_positive(poly, m, t):
            signs.append((m, t))
            return 1

        monkeypatch.setattr(critical, "_sign_at", always_positive)
        with pytest.raises(FalsificationError, match="step cap"):
            isolate_root(6, 2, Fraction(1, 7))
        assert len(signs) == 3 + 4 * 3 + 256 == 271

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            isolate_root(3, 0)
        with pytest.raises(ValueError):
            isolate_root(3, 2, Fraction(0))
        with pytest.raises(ValueError):
            isolate_root(3, 2, Fraction(-1, 10))


class TestRationalRootScan:
    def test_linear(self):
        assert rational_root_scan(IntPolynomial((1, -2)), UNIT) == [Fraction(1, 2)]

    def test_irrational_quadratic_has_no_hits(self):
        assert rational_root_scan(IntPolynomial((1, -4, 2)), UNIT) == []

    def test_cubic_with_half_root(self):
        assert rational_root_scan(IntPolynomial((1, 0, -6, 4)), UNIT) == [Fraction(1, 2)]

    def test_planted_roots(self):
        # (2p - 1)(p - 3) = 2p^2 - 7p + 3
        assert rational_root_scan(IntPolynomial((3, -7, 2)), UNIT) == [Fraction(1, 2)]
        # (3p - 2)(p + 1) = 3p^2 + p - 2 exercises a non-unit numerator
        assert rational_root_scan(IntPolynomial((-2, 1, 3)), UNIT) == [Fraction(2, 3)]

    def test_interval_filter_and_zero_root(self):
        # p(p - 1): roots at 0 and 1 need the wider interval to show up
        poly = IntPolynomial((0, -1, 1))
        assert rational_root_scan(poly, UNIT) == []
        wide = (Fraction(-1, 2), Fraction(3, 2))
        assert rational_root_scan(poly, wide) == [Fraction(0), Fraction(1)]

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            rational_root_scan(IntPolynomial(()), UNIT)


class TestMonotonicity:
    """The battery's ordering check, `verify._check_monotonicity`, over
    `isolate_root`'s enclosures."""

    def test_single_root_is_vacuous(self):
        assert verify._check_monotonicity(1, DEFAULT_WIDTH, polys_for(1)) == (1, None)

    def test_small_cases(self):
        for n in (2, 3, 6, 11):
            assert verify._check_monotonicity(n, Fraction(1, 10**12), polys_for(n)) == (1, None), n

    def test_moderate_width_still_separates(self):
        assert verify._check_monotonicity(2, Fraction(1, 100), polys_for(2)) == (1, None)

    def test_unit_width_hits_refinement_cap(self):
        # width 1 stops at the level-2 cells [1/4, 1/2] and [1/2, 3/4]
        assert verify._check_monotonicity(2, Fraction(1), polys_for(2)) == (
            1, "n=2 roots 1 and 2 of n=2 are not separated at width 1"
        )

    def test_cli_widest_width_separates_with_one_enclosure_per_root(self, monkeypatch):
        # the battery's whole root-isolation pattern: k = 1..n for each n >= 2,
        # nothing at n = 1; the benchmark tracer's call count rests on it
        calls = []
        isolate = verify.isolate_root

        def counting(n, k, width, *, poly):
            calls.append((n, k))
            return isolate(n, k, width, poly=poly)

        monkeypatch.setattr(verify, "isolate_root", counting)
        monkeypatch.setattr(critical, "isolate_root", counting)
        assert verify.verify_theorem(60, denom_max=1, width=Fraction(1, 10**6)).passed
        assert calls == [(n, k) for n in range(2, 61) for k in range(1, n + 1)]


class TestCertify:
    def test_odd_middle_is_exact_half(self):
        cert = certify(3, 2)
        assert cert.status == ExactRational(HALF)

    def test_upper_half_direct_evidence(self):
        cert = certify(2, 2)
        status = cert.status
        assert isinstance(status, IrrationalUpperHalf)
        assert status.constant_coeff == 1
        assert status.sign_at_half == 1
        assert HALF < status.enclosure.lo < status.enclosure.hi < 1
        assert set(status.to_json_dict()) == {
            "type", "enclosure", "constant_coeff", "sign_at_half"
        }

    def test_lower_half_wraps_partner(self):
        cert = certify(2, 1)
        status = cert.status
        assert isinstance(status, IrrationalBySymmetry)
        assert status.partner_k == 2
        assert status.partner.n == 2 and status.partner.k == 2
        assert isinstance(status.partner.status, IrrationalUpperHalf)

    def test_shapes_exhaustive_small(self):
        for n in range(1, 17):
            middle = (n + 1) // 2
            for k in range(1, n + 1):
                status = certify(n, k).status
                if n % 2 == 1 and k == middle:
                    assert status == ExactRational(HALF)
                elif k > middle:
                    assert isinstance(status, IrrationalUpperHalf)
                else:
                    assert isinstance(status, IrrationalBySymmetry)

    def test_scan_oracle_agrees_no_rational_root_but_the_middle_half(self):
        # the upper-half argument in exhaustive form: the only rational
        # critical probability for n <= 30 is 1/2 at the odd middle index
        for n in range(1, 31):
            middle = (n + 1) // 2
            for k in range(1, n + 1):
                want = [HALF] if n % 2 == 1 and k == middle else []
                assert rational_root_scan(critical_poly(n, k), UNIT) == want, (n, k)

    def test_range_matches_individual_certificates(self):
        for n in range(1, 21):
            assert certify_range(n) == [certify(n, k) for k in range(1, n + 1)]

    @pytest.mark.parametrize(
        "width",
        [Fraction(1), Fraction(1, 7), Fraction(1, 10**6), Fraction(1, 10**35)],
        ids=["1", "1/7", "1e-6", "1e-35"],
    )
    def test_status_enclosures_match_isolate_root(self, width):
        # the lower half is the partner's bracket reflected to [1 - hi, 1 - lo];
        # at widths 1 and 1/7 some upper-half brackets start at 1/2 itself
        for n in range(1, 31):
            for cert in certify_range(n, width):
                assert cert.status.enclosure == isolate_root(n, cert.k, width), (n, cert.k)

    def test_range_bisects_each_upper_index_once(self, monkeypatch):
        # certificates bisect nothing; reading every enclosure bisects each
        # upper index once, the lower half reflecting its partner's bracket
        calls = []
        bisect = critical._bisect

        def counting(poly, n, k, *args, **kwargs):
            calls.append(k)
            return bisect(poly, n, k, *args, **kwargs)

        monkeypatch.setattr(critical, "_bisect", counting)
        for n in (1, 2, 7, 10):
            calls.clear()
            certs = certify_range(n)
            assert calls == [], n
            for cert in certs:
                cert.status.enclosure
            assert sorted(calls) == list(range((n + 1) // 2 + 1, n + 1)), n

    def test_exact_root_above_the_middle_raises_on_first_read(self, monkeypatch):
        # a sign kernel that reports 0 everywhere stops bisection at 1/2
        monkeypatch.setattr(critical, "_sign_at", lambda poly, m, t: 0)
        with pytest.raises(
            FalsificationError,
            match=r"exact rational root 1/2 found for \(n=2, k=2\) above the middle index",
        ):
            certify(2, 2).to_json_dict()

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            certify(0, 1)
        with pytest.raises(ValueError):
            certify(3, 4)
        with pytest.raises(ValueError):
            certify(3, 1, Fraction(0))

    def test_json_round_trips_key_fields(self):
        data = certify(4, 1).to_json_dict(digits=20)
        assert data["n"] == 4 and data["k"] == 1
        assert data["status"]["type"] == "irrational_by_symmetry"
        inner = data["status"]["partner"]["status"]
        assert inner["type"] == "irrational_upper_half"
        assert inner["constant_coeff"] == "1"
        assert inner["sign_at_half"] == "1"
        assert inner["enclosure"]["type"] == "bracket"


def outcome(fn):
    """fn()'s value, or the text of the FalsificationError it raises."""
    try:
        return fn()
    except FalsificationError as exc:
        return f"FalsificationError: {exc}"


#: Wrong lists as (n, {k: P_{n,k} from the real critical_poly}); q = x - x^2
#: has q(1 - x) = q(x), so the mirror-consistent pair still reflects.
WRONG_LISTS = {
    "lost_endpoint_value_at_1": (3, {3: lambda real: IntPolynomial((1, 1))}),
    "p_2_1_in_place_of_p_2_2": (2, {2: lambda real: real(2, 1)}),
    "middle_root_moved_off_one_half": (
        3, {2: lambda real: poly_add(real(3, 2), IntPolynomial((0, 1, -1)))}
    ),
    "mirror_consistent_pair": (
        5,
        {
            2: lambda real: poly_add(real(5, 2), IntPolynomial((0, 1, -1))),
            4: lambda real: poly_add(real(5, 4), IntPolynomial((0, -1, 1))),
        },
    ),
}


class TestGivenPolynomials:
    """`isolate_root(..., poly=)` and `certify_range(..., polys=)`, the paths
    the battery takes with its one list per n, against the paths that build."""

    @pytest.mark.parametrize(
        "width",
        [Fraction(1, 7), Fraction(1, 10**6), DEFAULT_WIDTH, Fraction(1, 10**35)],
        ids=["1/7", "1e-6", "default", "1e-35"],
    )
    def test_same_results_as_built(self, width):
        for n in range(1, 41):
            polys = polys_for(n)
            for k in range(1, n + 1):
                assert isolate_root(n, k, width, poly=polys[k - 1]) == isolate_root(n, k, width)
            given = [cert.to_json_dict(30) for cert in certify_range(n, width, polys=polys)]
            assert given == [cert.to_json_dict(30) for cert in certify_range(n, width)], n

    def test_given_polynomials_are_not_built_again(self, monkeypatch):
        polys = polys_for(7)

        def forbidden(n, k):
            raise AssertionError("critical_poly called")

        monkeypatch.setattr(critical, "critical_poly", forbidden)
        assert [isolate_root(7, k, poly=polys[k - 1]) for k in range(1, 8)]
        assert [cert.to_json_dict() for cert in certify_range(7, polys=polys)]

    @pytest.mark.parametrize("fault", sorted(WRONG_LISTS))
    def test_wrong_list_fails_as_a_wrong_build(self, monkeypatch, fault):
        n, wrong_at = WRONG_LISTS[fault]

        def planted(m, j):
            return wrong_at[j](critical_poly) if m == n and j in wrong_at else critical_poly(m, j)

        width = Fraction(1, 10**6)
        wrong = [planted(n, k) for k in range(1, n + 1)]
        given = (
            [
                outcome(lambda: isolate_root(n, k, width, poly=wrong[k - 1]))
                for k in range(1, n + 1)
            ],
            outcome(lambda: certify_range(n, width, polys=wrong)),
        )
        monkeypatch.setattr(critical, "critical_poly", planted)
        built = (
            [outcome(lambda: isolate_root(n, k, width)) for k in range(1, n + 1)],
            outcome(lambda: certify_range(n, width)),
        )
        assert given == built
        assert given[1].startswith("FalsificationError: ")

    def test_rejects_bad_arguments(self):
        polys = polys_for(3)
        for wrong_length in ([], polys[:2], polys + polys[:1]):
            with pytest.raises(ValueError, match="polys must hold the 3 polynomials"):
                certify_range(3, polys=wrong_length)
        with pytest.raises(ValueError):
            certify_range(0, polys=[])
        with pytest.raises(ValueError):
            certify_range(3, Fraction(0), polys=polys)
        for n, k in ((0, 1), (3, 0), (3, 4)):
            with pytest.raises(ValueError):
                isolate_root(n, k, poly=polys[0])
        with pytest.raises(ValueError):
            isolate_root(3, 1, Fraction(0), poly=polys[0])
