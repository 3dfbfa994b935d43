import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomedian import critical
from binomedian.critical import (
    Bracket,
    ExactRational,
    ExactRoot,
    FalsificationError,
    IrrationalBySymmetry,
    IrrationalUpperHalf,
    SeparationError,
    cdf_polynomial,
    certify,
    certify_range,
    critical_poly,
    derivative_identity_check,
    isolate_root,
    monotonicity_check,
    symmetry_identity_check,
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
    product_one_minus_x_power,
    rational_root_scan,
    sign_at,
    taylor_reflect,
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

    def test_total_mass_polynomial_is_one(self):
        for n in range(0, 12):
            assert cdf_polynomial(n, n) == IntPolynomial((1,))

    def test_closed_form_matches_pascal_expansion(self):
        for n in range(0, 61):
            for j in range(n + 1):
                assert cdf_polynomial(n, j) == pascal_cdf_polynomial(n, j), (n, j)

    @pytest.mark.parametrize("n", [100, 300, 1000])
    def test_term_ratio_matches_binomial_products(self, n):
        for j in sorted({0, 1, n // 3, n // 2, n - 2, n - 1, n}):
            assert cdf_polynomial(n, j) == comb_cdf_polynomial(n, j), (n, j)

    def test_one_minus_x_power_matches_products(self):
        for m in range(0, 81):
            assert IntPolynomial(critical._one_minus_x_power(m)) == product_one_minus_x_power(m), m

    def test_one_minus_x_power_matches_comb(self):
        for m in range(61):
            want = [(-1) ** t * math.comb(m, t) for t in range(m + 1)]
            assert critical._one_minus_x_power(m) == want, m

    def test_unchecked_constructions_equal_checked_ones(self):
        # the library builds these without the constructor's per-coefficient type check
        for n in range(1, 41):
            polys = [cdf_polynomial(n, j) for j in range(n + 1)]
            polys += [critical_poly(n, k) for k in range(1, n + 1)]
            checks = [derivative_identity_check(n, j) for j in range(n)]
            checks += [symmetry_identity_check(n, i) for i in range(1, n + 1)]
            polys += [side for check in checks for side in (check.lhs, check.rhs)]
            for poly in polys:
                assert poly == IntPolynomial(poly.coeffs), n

    def test_leading_coefficient_closed_form(self):
        for n in range(1, 41):
            for k in range(1, n + 1):
                want = 2 * (-1) ** (n - k + 1) * math.comb(n - 1, k - 1)
                assert critical_poly(n, k).coeffs[-1] == want, (n, k)


class TestDerivativeIdentity:
    def test_two_trials(self):
        check = derivative_identity_check(2, 0)
        assert check.equal
        assert check.lhs == IntPolynomial((-2, 2))
        assert check.rhs == IntPolynomial((-2, 2))

    def test_degree_zero_case(self):
        check = derivative_identity_check(1, 0)
        assert check.equal
        assert check.lhs == IntPolynomial((-1,))

    def test_top_index_closed_form(self):
        # B(3,4,p) = 1 - p^4, derivative -4p^3
        check = derivative_identity_check(4, 3)
        assert check.equal
        assert check.lhs == IntPolynomial((0, 0, 0, -4))

    def test_exhaustive_small(self):
        for n in range(1, 16):
            for j in range(n):
                assert derivative_identity_check(n, j).equal

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            derivative_identity_check(2, 2)
        with pytest.raises(ValueError):
            derivative_identity_check(0, 0)


class TestSymmetryIdentity:
    def test_pair(self):
        check = symmetry_identity_check(2, 1)
        assert check.equal
        assert check.lhs == IntPolynomial((1, -4, 2))

    def test_self_partner_antisymmetry(self):
        assert symmetry_identity_check(3, 2).equal

    def test_single_trial(self):
        assert symmetry_identity_check(1, 1).equal

    def test_exhaustive_small(self):
        for n in range(1, 16):
            for i in range(1, n + 1):
                assert symmetry_identity_check(n, i).equal

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            symmetry_identity_check(3, 0)

    def test_rhs_is_the_reflected_partner(self):
        for n in range(1, 16):
            for i in range(1, n + 1):
                rhs = symmetry_identity_check(n, i).rhs.coeffs
                assert list(rhs) == taylor_reflect(critical_poly(n, n - i + 1).coeffs), (n, i)

    def test_mirror_consistent_pair_is_rejected(self, monkeypatch):
        # P_{5,2} + q and P_{5,4} - q with q = x - x^2 = q(1 - x) still reflect
        # into each other; each differs from its definition R_i
        real = critical.critical_poly
        shift = {(5, 4): -1}

        def planted(n, k):
            poly, d = real(n, k), shift.get((n, k))
            return poly if d is None else poly_add(poly, IntPolynomial((0, d, -d)))

        monkeypatch.setattr(critical, "critical_poly", planted)
        # a wrong partner alone fails the lower index, whose own sides agree
        check = symmetry_identity_check(5, 2)
        assert check.lhs == check.rhs and not check.equal
        shift[5, 2] = 1
        assert taylor_reflect(planted(5, 4).coeffs) == list(planted(5, 2).coeffs)
        for i in (2, 4):
            check = symmetry_identity_check(5, i)
            assert not check.equal
            assert check.rhs == real(5, i)
        assert symmetry_identity_check(5, 1).equal and symmetry_identity_check(5, 3).equal
        with pytest.raises(FalsificationError, match=r"\(n=5, i=2\)"):
            certify(5, 2)
        with pytest.raises(FalsificationError, match=r"\(n=5, i=2\)"):
            certify_range(5)


def nk_pairs(n_max):
    return st.integers(1, n_max).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n)))


class TestWalk:
    """`critical._walk`: R_i = 2 B(i-1; n, x) - 1 = -P_{n,n-i+1}(1 - x), and 2 T_i / x^i."""

    def test_matches_closed_form_and_taylor_reflection(self):
        for n in range(1, 61):
            for k, r, _ in critical._walk(n, range(1, n + 1)):
                assert r == list(critical_poly(n, k).coeffs), (n, k)
                assert r == taylor_reflect(critical_poly(n, n - k + 1).coeffs), (n, k)

    @settings(deadline=None)
    @given(nk_pairs(200))
    def test_one_index_matches_both_oracles(self, nk):
        n, k = nk
        ((i, r, _),) = critical._walk(n, {k})
        assert i == k
        assert r == list(critical_poly(n, k).coeffs)
        assert r == taylor_reflect(critical_poly(n, n - k + 1).coeffs)

    def test_terms_match_polynomial_products(self):
        for n in range(1, 31):
            for i, _, term in critical._walk(n, range(1, n + 1)):
                want = [2 * math.comb(n, i) * c for c in product_one_minus_x_power(n - i).coeffs]
                assert term == want, (n, i)

    def test_walk_to_some_indices_matches_the_full_walk(self):
        for n in (1, 2, 7, 40):
            full = {i: (r, term) for i, r, term in critical._walk(n, range(1, n + 1))}
            for wanted in ({n}, {1}, {1, n}, set(range(1, n + 1, 3))):
                got = [(i, (r, term)) for i, r, term in critical._walk(n, wanted)]
                assert got == sorted(((i, full[i]) for i in wanted), reverse=True), (n, wanted)


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
    def test_single_root_is_vacuous(self):
        assert monotonicity_check(1) is True

    def test_small_cases(self):
        for n in (2, 3, 6, 11):
            assert monotonicity_check(n, Fraction(1, 10**12)) is True

    def test_moderate_width_still_separates(self):
        assert monotonicity_check(2, Fraction(1, 100)) is True

    def test_unit_width_hits_refinement_cap(self):
        # width 1 stops at the level-2 cells [1/4, 1/2] and [1/2, 3/4]
        with pytest.raises(SeparationError, match="roots 1 and 2 of n=2 .* width 1$"):
            monotonicity_check(2, Fraction(1))

    def test_cli_widest_width_separates_with_one_enclosure_per_root(self, monkeypatch):
        calls = []
        isolate = critical.isolate_root

        def counting(n, k, width):
            calls.append(k)
            return isolate(n, k, width)

        monkeypatch.setattr(critical, "isolate_root", counting)
        for n in range(1, 61):
            calls.clear()
            assert monotonicity_check(n, Fraction(1, 10**6)) is True
            assert calls == (list(range(1, n + 1)) if n > 1 else []), n

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            monotonicity_check(3, Fraction(-1, 2))


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
