import random
from fractions import Fraction

import pytest

from binomedian import critical
from binomedian.critical import (
    Bracket,
    ExactRational,
    ExactRoot,
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
from helpers import HALF, icbrt_fraction, isqrt_fraction, rational_root_scan

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
                assert poly.evaluate(0) == 1
                assert poly.evaluate(1) == -1

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
            via_poly = critical_poly(n, k).evaluate(p)
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
            assert poly.evaluate(p1) > poly.evaluate(p2)

    def test_total_mass_polynomial_is_one(self):
        for n in range(0, 12):
            assert cdf_polynomial(n, n) == IntPolynomial((1,))


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
            assert poly.sign_at(enclosure.lo) > 0 > poly.sign_at(enclosure.hi)

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
            rational_root_scan(IntPolynomial.zero(), UNIT)


class TestMonotonicity:
    def test_single_root_is_vacuous(self):
        assert monotonicity_check(1) is True

    def test_small_cases(self):
        for n in (2, 3, 6, 11):
            assert monotonicity_check(n, Fraction(1, 10**12)) is True

    def test_moderate_width_still_separates(self):
        assert monotonicity_check(2, Fraction(1, 100)) is True

    def test_unit_width_hits_refinement_cap(self):
        with pytest.raises(SeparationError):
            monotonicity_check(2, Fraction(1))

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
        assert HALF < status.enclosure.lo < status.enclosure.hi < 1
        assert set(status.to_json_dict()) == {"type", "enclosure", "constant_coeff"}

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

    def test_range_bisects_each_upper_index_once(self, monkeypatch):
        calls = []
        enclose = critical._enclose

        def counting(n, k, *args, **kwargs):
            calls.append(k)
            return enclose(n, k, *args, **kwargs)

        monkeypatch.setattr(critical, "_enclose", counting)
        for n in (1, 2, 7, 10):
            calls.clear()
            certify_range(n)
            assert sorted(calls) == list(range((n + 1) // 2 + 1, n + 1))

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
        assert inner["enclosure"]["type"] == "bracket"
