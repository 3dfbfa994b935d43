import bisect
import random
from fractions import Fraction

import pytest

from binomedian import cli, critical, verify
from binomedian.critical import DEFAULT_WIDTH, ExactRoot, FalsificationError, isolate_root
from binomedian.distribution import BinomialParams, cdf
from binomedian.median import MedianInterval, UniqueMedian
from binomedian.polynomial import IntPolynomial
from binomedian.verify import CHECK_NAMES, verify_theorem
from helpers import (
    fraction_gap_bisect,
    fine_monotonicity,
    mc_median_check,
    poly_add,
    taylor_reflect,
    walk,
    walk_identities,
)


def failures(n_max):
    """{check name: counterexample} for the failing checks of a small battery."""
    report = verify_theorem(n_max, denom_max=10, width=Fraction(1, 10**6), seed=0)
    return {c.name: c.counterexample for c in report.checks if not c.passed}


def plant(monkeypatch, added):
    """Add added[(n, k)] to P_{n,k} at `critical.critical_poly`, the one name
    the battery's per-n list and the printing paths build from."""
    real = critical.critical_poly

    def planted(m, j):
        poly = real(m, j)
        return poly_add(poly, added[m, j]) if (m, j) in added else poly

    monkeypatch.setattr(critical, "critical_poly", planted)


def perturb(monkeypatch, n, k):
    """Replace P_{n,k} by P_{n,k} + x - x^2, which keeps P(0) = 1 and P(1) = -1."""
    plant(monkeypatch, {(n, k): IntPolynomial((0, 1, -1))})


def replace_poly(replace):
    """A plant that reads P_{n,k} as replace(real critical_poly, n, k) in
    `critical`, where the battery's list and the printing paths build it."""

    def install(monkeypatch):
        real = critical.critical_poly
        monkeypatch.setattr(critical, "critical_poly", lambda n, k: replace(real, n, k))

    return install


def plant_status(monkeypatch, n, k, status):
    """Replace the status of certificate (n, k) in what `verify` reads from
    `certify_range` by status(certs), certs the true certificates of n."""
    real = critical.certify_range

    def planted(m, width, *, polys):
        certs = real(m, width, polys=polys)
        if m == n:
            certs[k - 1] = critical.IrrationalityCertificate(n, k, status(certs))
        return certs

    monkeypatch.setattr(verify, "certify_range", planted)


#: The rules a certificate record can still break, each planted at the
#: smallest n where it applies: (n, k, status in place of (n, k)'s).  The
#: statuses are taken from true certificates: certify(1, 1) is the odd
#: middle's ExactRational and certify(2, 2) an upper-half one.
SHAPE_FAULTS = {
    "lower_partner_k_is_n_minus_k": (
        2, 1, lambda certs: critical.IrrationalBySymmetry(1, certs[1])
    ),
    "upper_half_status_at_the_odd_middle": (
        1, 1, lambda certs: critical.certify(2, 2).status
    ),
    "lower_partner_holds_an_exact_rational": (
        2,
        1,
        lambda certs: critical.IrrationalBySymmetry(
            2, critical.IrrationalityCertificate(2, 2, critical.certify(1, 1).status)
        ),
    ),
    "exact_rational_above_the_middle": (
        2, 2, lambda certs: critical.certify(1, 1).status
    ),
    "upper_half_status_below_the_middle": (
        2, 1, lambda certs: critical.certify(2, 2).status
    ),
}


#: The planted faults that break root isolation or the order of the roots.
ORDERING_FAULTS = {
    "swapped_6_4_and_6_5": replace_poly(
        lambda real, n, k: real(*{(6, 4): (6, 5), (6, 5): (6, 4)}.get((n, k), (n, k)))
    ),
    "p_2_1_in_place_of_p_2_2": replace_poly(
        lambda real, n, k: real(2, 1) if (n, k) == (2, 2) else real(n, k)
    ),
    "sign_kernel_never_settles": lambda monkeypatch: monkeypatch.setattr(
        critical, "_sign_at", lambda poly, m, t: 1
    ),
    "lost_endpoint_value_at_1": replace_poly(
        lambda real, n, k: IntPolynomial((1, 1)) if (n, k) == (3, 3) else real(n, k)
    ),
    "lost_endpoint_value_at_1_by_one_coefficient": replace_poly(
        lambda real, n, k: (
            poly_add(real(n, k), IntPolynomial((0, 1))) if (n, k) == (4, 2) else real(n, k)
        )
    ),
}

#: Every planted fault of this module that changes the polynomial lists,
#: the ordering ones and those of `TestPlantedFaults`.
LIST_FAULTS = {
    **{name: ORDERING_FAULTS[name] for name in ORDERING_FAULTS if name != "sign_kernel_never_settles"},
    "upper_member_of_a_pair": lambda monkeypatch: perturb(monkeypatch, 5, 4),
    "mirror_consistent_pair": lambda monkeypatch: plant(
        monkeypatch, {(5, 2): IntPolynomial((0, 1, -1)), (5, 4): IntPolynomial((0, -1, 1))}
    ),
    "middle_root_moved_off_one_half": lambda monkeypatch: perturb(monkeypatch, 3, 2),
    "p_2_2_plus_x_minus_x_squared": lambda monkeypatch: perturb(monkeypatch, 2, 2),
    "p_2_2_of_lower_degree": replace_poly(
        lambda real, n, k: IntPolynomial((1, -2)) if (n, k) == (2, 2) else real(n, k)
    ),
    # the derivative stays right: only the constant term tells it
    "constant_of_p_4_1_off_by_one": lambda monkeypatch: plant(
        monkeypatch, {(4, 1): IntPolynomial((1,))}
    ),
}

ORDERING_WIDTHS = (Fraction(1, 7), Fraction(1, 10**6), DEFAULT_WIDTH, Fraction(1, 10**35))


class TestVerifyTheorem:
    def test_small_battery_passes(self):
        report = verify_theorem(3, denom_max=50, width=Fraction(1, 10**20), seed=1)
        assert report.passed
        assert [c.name for c in report.checks] == list(CHECK_NAMES)
        assert all(c.counterexample is None for c in report.checks)

    def test_single_trial_with_unit_denominator(self):
        # denom_max=1 leaves nothing to draw: the random sweeps run empty
        # and the only certificate is the exact root 1/2
        report = verify_theorem(1, denom_max=1, width=Fraction(1, 10**6), seed=0)
        assert report.passed
        by_name = {c.name: c for c in report.checks}
        assert by_name["certificates"].instances == 1
        assert by_name["median_sweep"].instances == 1
        assert by_name["evaluation_consistency"].instances == 0

    def test_instance_counts(self):
        report = verify_theorem(4, denom_max=30, width=Fraction(1, 10**10), seed=3)
        by_name = {c.name: c for c in report.checks}
        assert by_name["certificates"].instances == 1 + 2 + 3 + 4
        assert by_name["monotonicity"].instances == 4
        assert by_name["symmetry_identity"].instances == 10
        assert by_name["derivative_identity"].instances == 10
        assert by_name["median_sweep"].instances == 4 * 26
        assert by_name["evaluation_consistency"].instances == 4 * 10

    def test_report_is_deterministic(self):
        kwargs = dict(denom_max=40, width=Fraction(1, 10**15), seed=9)
        first = verify_theorem(5, **kwargs)
        second = verify_theorem(5, **kwargs)
        assert first.to_json() == second.to_json()

    def test_thread_count_does_not_change_report(self):
        sequential = verify_theorem(4, denom_max=20, width=Fraction(1, 10**10), seed=2)
        parallel = verify_theorem(
            4, denom_max=20, width=Fraction(1, 10**10), seed=2, threads=2
        )
        assert sequential.to_json() == parallel.to_json()

    def test_wall_time_stays_out_of_serialization(self):
        report = verify_theorem(2, denom_max=10, width=Fraction(1, 10**6), seed=0)
        assert report.wall_time > 0
        assert "wall_time" not in report.to_json()

    def test_isolation_failure_is_reported_not_raised(self, monkeypatch):
        # P(1) = +2 breaks the endpoint facts isolate_root checks for (3, 3)
        real = critical.critical_poly

        def broken(n, k):
            return IntPolynomial((1, 1)) if (n, k) == (3, 3) else real(n, k)

        monkeypatch.setattr(critical, "critical_poly", broken)
        report = verify_theorem(3, denom_max=10, width=Fraction(1, 10**6), seed=0)
        by_name = {c.name: c for c in report.checks}
        assert not report.passed
        assert by_name["monotonicity"].counterexample.startswith("n=3 ")
        assert by_name["certificates"].counterexample.startswith("n=3 ")

    def test_certificates_pass_at_coarse_width(self):
        # at width 1/7 some upper-half brackets start at 1/2 itself; the sign
        # at 1/2, not the bracket, puts those roots above 1/2
        for n in range(1, 13):
            polys = verify._critical_polys(n)
            assert verify._check_certificates(n, Fraction(1, 7), polys) == (n, None), n

    def test_certificates_check_reads_no_enclosure(self, monkeypatch):
        # the check rests on exact facts: a sign kernel that never settles
        # would hit the step cap on the first bisection
        monkeypatch.setattr(critical, "_sign_at", lambda poly, m, t: 1)
        for n in range(1, 13):
            polys = verify._critical_polys(n)
            assert verify._check_certificates(n, Fraction(1, 10**35), polys) == (n, None), n

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            verify_theorem(0)
        with pytest.raises(ValueError):
            verify_theorem(3, denom_max=0)
        with pytest.raises(ValueError):
            verify_theorem(3, width=Fraction(0))
        with pytest.raises(ValueError):
            verify_theorem(3, seed=-1)
        with pytest.raises(ValueError):
            verify_theorem(3, threads=0)


class TestPlantedFaults:
    """Each planted fault fails the checks it breaks, at the smallest n."""

    def test_sign_kernel_that_never_settles_hits_the_step_cap(self, monkeypatch):
        # always +1 slides the cell to 1 forever, in the oracle and the library
        with pytest.raises(FalsificationError):
            fraction_gap_bisect(IntPolynomial((1,)), Fraction(1, 7))
        monkeypatch.setattr(critical, "_sign_at", lambda poly, m, t: 1)
        with pytest.raises(FalsificationError, match="step cap"):
            critical.isolate_root(6, 2, Fraction(1, 7))
        # n = 1 has only the exact root 1/2, which bisection never reaches;
        # certificates bisect nothing, so only the monotonicity check fails
        assert failures(3) == {
            "monotonicity": "n=2 bisection exceeded its step cap before "
            "reaching the target bracket",
        }
        # every path that prints an enclosure still bisects, and still fails
        with pytest.raises(FalsificationError, match="step cap"):
            critical.certify(2, 2).to_json_dict()
        with pytest.raises(FalsificationError, match="step cap"):
            cli._table_rows_for_n((2, Fraction(1, 10**6), 6))

    def test_lower_polynomial_above_the_middle_fails_the_sign_at_half(self, monkeypatch):
        # P_{2,1}(1/2) = -1/2: its root 1 - 1/sqrt(2) lies below 1/2
        real = critical.critical_poly

        def planted(n, k):
            return real(2, 1) if (n, k) == (2, 2) else real(n, k)

        monkeypatch.setattr(critical, "critical_poly", planted)
        bad = failures(3)
        assert bad["certificates"] == (
            "n=2 certificate construction failed: "
            "P(1/2) is not positive for (n=2, k=2) above the middle index"
        )
        assert bad["monotonicity"] == (
            "n=2 roots 1 and 2 of n=2 are not separated at width 1/1000000"
        )

    def test_swapped_neighbours_fail_the_ordering(self, monkeypatch):
        real = critical.critical_poly
        swap = {(6, 4): (6, 5), (6, 5): (6, 4)}
        monkeypatch.setattr(
            critical, "critical_poly", lambda n, k: real(*swap.get((n, k), (n, k)))
        )
        _, message = verify._check_monotonicity(6, DEFAULT_WIDTH, verify._critical_polys(6))
        assert message.startswith("n=6 roots 4 and 5 of n=6 ")
        bad = failures(7)
        assert bad["monotonicity"].startswith("n=6 roots 4 and 5 of n=6 ")
        assert bad["certificates"].startswith("n=6 ")

    @pytest.mark.parametrize("fault", SHAPE_FAULTS)
    def test_certificate_shape_fault(self, monkeypatch, fault):
        n, k, status = SHAPE_FAULTS[fault]
        shown = type(status(critical.certify_range(n))).__name__
        plant_status(monkeypatch, n, k, status)
        assert failures(3) == {"certificates": f"n={n} k={k} unexpected certificate {shown}"}

    def test_upper_member_of_a_pair_fails_at_the_lower_index(self, monkeypatch):
        # the symmetry check compares the pair {2, 4} of n = 5 once, at i = 2
        perturb(monkeypatch, 5, 4)
        assert failures(6) == {
            "certificates": "n=5 certificate construction failed: "
            "reflection identity failed for (n=5, i=2)",
            "symmetry_identity": "n=5 i=2 reflection identity failed",
            "derivative_identity": "n=5 j=3 derivative identity failed",
            "median_sweep": "n=5 p=7/10 median 4 contradicted by P_{5,4}(7/10) > 0",
            "evaluation_consistency": "n=5 k=4 p=1/2 polynomial value 7/8 != CDF value 5/8",
        }

    def test_mirror_consistent_pair_fails_at_the_lower_index(self, monkeypatch):
        # q = x - x^2 has q(1 - x) = q(x), so P_{5,2} + q and P_{5,4} - q still
        # satisfy the reflection identity; only comparing both with their
        # definition, by derivative and constant term, tells them from the true pair
        plant(monkeypatch, {(5, 2): IntPolynomial((0, 1, -1)), (5, 4): IntPolynomial((0, -1, 1))})
        lower, upper = critical.critical_poly(5, 2), critical.critical_poly(5, 4)
        assert taylor_reflect(upper.coeffs) == list(lower.coeffs)
        assert failures(6) == {
            "certificates": "n=5 certificate construction failed: "
            "reflection identity failed for (n=5, i=2)",
            "symmetry_identity": "n=5 i=2 reflection identity failed",
            "derivative_identity": "n=5 j=1 derivative identity failed",
            "median_sweep": "n=5 p=2/3 median 3 contradicted by P_{5,4}(2/3) < 0",
            "evaluation_consistency": "n=5 k=4 p=1/2 polynomial value 3/8 != CDF value 5/8",
        }

    def test_middle_root_moved_off_one_half(self, monkeypatch):
        perturb(monkeypatch, 3, 2)
        assert failures(5) == {
            "certificates": "n=3 certificate construction failed: "
            "polynomial for odd n=3, middle k=2 does not vanish at 1/2",
            "symmetry_identity": "n=3 i=2 reflection identity failed",
            "derivative_identity": "n=3 j=1 derivative identity failed",
            "evaluation_consistency": "n=3 k=2 p=1/2 polynomial value 1/4 != CDF value 0/1",
        }

    def test_one_coefficient_off_by_one(self, monkeypatch):
        # x^1 of P_{4,2} vanishes by the closed form; +1 there moves P(1) to 0
        real = critical.critical_poly

        def planted(n, k):
            poly = real(n, k)
            return poly_add(poly, IntPolynomial((0, 1))) if (n, k) == (4, 2) else poly

        monkeypatch.setattr(critical, "critical_poly", planted)
        assert failures(5) == {
            "certificates": "n=4 certificate construction failed: "
            "reflection identity failed for (n=4, i=2)",
            "monotonicity": "n=4 polynomial for (n=4, k=2) lost its endpoint values +1/-1",
            "symmetry_identity": "n=4 i=2 reflection identity failed",
            "derivative_identity": "n=4 j=1 derivative identity failed",
            "median_sweep": "n=4 p=1/2 median 2 contradicted by P_{4,2}(1/2) > 0",
            "evaluation_consistency": "n=4 k=2 p=1/3 polynomial value 14/27 != CDF value 5/27",
        }

    def test_evaluation_consistency_sees_a_planted_polynomial(self, monkeypatch):
        # the per-n list every check reads; the first n = 2 draw at seed 0 is
        # k = 2, p = 2/5
        real = critical.critical_poly

        def plant_at_2_2(replace):
            def planted(n, k):
                return replace(n, k) if (n, k) == (2, 2) else real(n, k)

            monkeypatch.setattr(critical, "critical_poly", planted)

        plant_at_2_2(lambda n, k: poly_add(real(n, k), IntPolynomial((0, 1, -1))))
        assert failures(3) == {
            "certificates": "n=2 certificate construction failed: "
            "reflection identity failed for (n=2, i=1)",
            "symmetry_identity": "n=2 i=1 reflection identity failed",
            "derivative_identity": "n=2 j=1 derivative identity failed",
            "median_sweep": "n=2 p=3/4 median 2 contradicted by P_{2,2}(3/4) > 0",
            "evaluation_consistency": "n=2 k=2 p=2/5 polynomial value 23/25 != CDF value 17/25",
        }
        # a polynomial of lower degree than n: 1 - 2x at 2/5
        plant_at_2_2(lambda n, k: IntPolynomial((1, -2)))
        assert failures(3) == {
            "certificates": "n=2 certificate construction failed: "
            "P(1/2) is not positive for (n=2, k=2) above the middle index",
            "symmetry_identity": "n=2 i=1 reflection identity failed",
            "derivative_identity": "n=2 j=1 derivative identity failed",
            "median_sweep": "n=2 p=1/2 median 1 contradicted by P_{2,2}(1/2) = 0",
            "evaluation_consistency": "n=2 k=2 p=2/5 polynomial value 1/5 != CDF value 17/25",
        }

    @pytest.mark.parametrize(
        "shift, above_half_only, message",
        [
            (1, False, "n=1 p=7/10 median 2 is not one of the integers 0 to 1"),
            (-1, False, "n=1 p=7/10 median 0 contradicted by P_{1,1}(7/10) < 0"),
            # the reflection median(n, p) = n - median(n, 1 - p) off by one
            (-1, True, "n=1 p=7/10 median 0 contradicted by P_{1,1}(7/10) < 0"),
        ],
    )
    def test_median_off_by_one(self, monkeypatch, capsys, shift, above_half_only, message):
        # every result stays a unique median, so only its value can tell
        real = verify.median_binomial

        def shifted(n, p):
            result = real(n, p)
            if isinstance(result, UniqueMedian) and (p > Fraction(1, 2) or not above_half_only):
                return UniqueMedian(result.m + shift)
            return result

        monkeypatch.setattr(verify, "median_binomial", shifted)
        assert failures(3) == {"median_sweep": message}
        assert cli.main(["verify", "--n-max", "3", "--denom-max", "10", "--digits", "6"]) == 1
        assert message in capsys.readouterr().out


class TestCoarseOrdering:
    """`_check_monotonicity` orders coarse enclosures first and isolates at
    the requested width only when they fail; `helpers.fine_monotonicity`
    is the check at the requested width alone."""

    @pytest.mark.parametrize("width", ORDERING_WIDTHS)
    def test_same_verdict_as_the_fine_check(self, width):
        for n in range(1, 41):
            polys = verify._critical_polys(n)
            assert verify._check_monotonicity(n, width, polys) == fine_monotonicity(n, width), n

    @pytest.mark.parametrize("fault", sorted(ORDERING_FAULTS))
    def test_same_verdict_under_planted_faults(self, monkeypatch, fault):
        ORDERING_FAULTS[fault](monkeypatch)
        verdicts = []
        for width in ORDERING_WIDTHS:
            for n in range(1, 8):
                verdict = verify._check_monotonicity(n, width, verify._critical_polys(n))
                assert verdict == fine_monotonicity(n, width), (n, width)
                verdicts.append(verdict[1])
        assert any(verdicts), "the fault planted nothing the check sees"

    def test_enclosures_nest(self):
        # the lemma the coarse pass rests on: a finer width's enclosure lies
        # inside the one at the coarse width
        for n in range(1, 41):
            for width in ORDERING_WIDTHS:
                coarse = max(width, Fraction(1, 1 << critical._coarse_level(n)))
                for k in range(1, n + 1):
                    fine, outer = isolate_root(n, k, width), isolate_root(n, k, coarse)
                    if isinstance(outer, ExactRoot):
                        assert fine == outer, (n, k, width)
                    else:
                        assert outer.lo <= fine.lo < fine.hi <= outer.hi, (n, k, width)

    def test_isolate_root_calls(self, monkeypatch):
        widths = []
        real = verify.isolate_root

        def counted(n, k, width, *, poly):
            widths.append(width)
            return real(n, k, width, poly=poly)

        monkeypatch.setattr(verify, "isolate_root", counted)

        def cost(n, width):
            widths.clear()
            passed = verify._check_monotonicity(n, width, verify._critical_polys(n))[1] is None
            return passed, len(widths)

        # a passing n costs one pass, also when the requested width is coarser
        # than the coarse one; there a failing n has no finer width to try
        for n in (2, 3, 10, 40):
            assert cost(n, DEFAULT_WIDTH) == (True, n), n
        for n in (2, 3):
            assert cost(n, Fraction(1, 7)) == (True, n), n
        assert cost(12, Fraction(1, 7)) == (False, 12)
        # a planted overlap costs both passes, the second at the requested width
        ORDERING_FAULTS["swapped_6_4_and_6_5"](monkeypatch)
        assert cost(6, DEFAULT_WIDTH) == (False, 12)
        assert widths[6:] == [DEFAULT_WIDTH] * 6


class TestIdentityWork:
    def test_each_polynomial_built_once_per_check_pass(self, monkeypatch):
        # per n, one list P_{n,1..n} serves every check: certificates and root
        # isolation take it as given, and the identity checks build no polynomial
        calls = []
        real = critical.critical_poly

        def counted(n, k):
            calls.append((n, k))
            return real(n, k)

        monkeypatch.setattr(critical, "critical_poly", counted)
        assert verify_theorem(28, denom_max=200, seed=7).passed
        assert len(calls) == 406 == sum(range(1, 29))
        assert len(set(calls)) == len(calls)

    def test_derivatives_built_per_n(self, monkeypatch):
        # `certify_range` builds one for each member of every pair, n - (n mod 2),
        # and `_check_identities` one per polynomial, n: neither trusts the other
        counts = []
        real = critical._derivative

        def counted(n, k):
            counts[-1] += 1
            return real(n, k)

        monkeypatch.setattr(critical, "_derivative", counted)
        for n in range(1, 13):
            counts.append(0)
            verify._checks_for_n((n, 200, DEFAULT_WIDTH, 7))
        assert counts == [2 * n - n % 2 for n in range(1, 13)]

    def test_battery_has_no_name_of_its_own_for_critical_poly(self):
        # a plant at `critical.critical_poly` reaches the battery's list only
        # while `verify` builds it through that name
        assert not hasattr(verify, "critical_poly")


class TestOneIdentityVerdict:
    def test_a_fault_in_the_verdict_reaches_every_check_that_reads_it(self, monkeypatch):
        # `critical._identity_faults` reports the member i = 4 of n = 5, whose
        # polynomials are all right: the certificates and both identity checks fail
        real = critical._identity_faults

        def planted(n, members):
            pairs, derivatives = real(n, members)
            return (pairs + [2], derivatives + [3]) if n == 5 else (pairs, derivatives)

        monkeypatch.setattr(critical, "_identity_faults", planted)
        assert failures(6) == {
            "certificates": (
                "n=5 certificate construction failed: reflection identity failed for (n=5, i=2)"
            ),
            "symmetry_identity": "n=5 i=2 reflection identity failed",
            "derivative_identity": "n=5 j=3 derivative identity failed",
        }
        assert failures(4) == {}
        with pytest.raises(FalsificationError, match=r"\(n=5, i=2\)"):
            critical.certify(5, 1)


def certify_outcome(n, polys):
    """None when certify_range(n, polys=polys) passes, else its FalsificationError text."""
    try:
        critical.certify_range(n, Fraction(1, 10**6), polys=polys)
    except FalsificationError as exc:
        return str(exc)
    return None


class TestDerivativeCheckAgainstTheWalk:
    """The identity verdicts from derivatives and constant terms, in
    `verify._check_identities` and `certify_range`, against the oracle walk
    the library used before: `helpers.walk_identities`, and `certify_range`
    with each member compared with the walk's R_i."""

    @pytest.mark.parametrize("fault", [None, *sorted(LIST_FAULTS)])
    def test_same_verdicts_for_every_n_up_to_40(self, monkeypatch, fault):
        if fault is not None:
            LIST_FAULTS[fault](monkeypatch)
        failed = False
        for n in range(1, 41):
            polys = verify._critical_polys(n)
            got = (verify._check_identities(n, polys), certify_outcome(n, polys))
            rows = {i: r for i, r, _ in walk(n, range(1, n + 1))}
            with monkeypatch.context() as patch:
                patch.setattr(
                    critical, "_derivative_matches", lambda poly, n, k: list(poly.coeffs) == rows[k]
                )
                want = (walk_identities(n, polys), certify_outcome(n, polys))
            assert got == want, n
            failed = failed or got != (((n, None), (n, None)), None)
        assert failed == (fault is not None)


class TestMcMedianCheck:
    def test_degenerate_point_mass(self):
        result = mc_median_check(5, 0, samples=100, seed=17)
        assert result.empirical_median == 0
        assert result.exact == UniqueMedian(Fraction(0))
        assert result.agrees

    def test_unique_median_large_sample(self):
        result = mc_median_check(10, Fraction(3, 10), samples=10**6, seed=42)
        assert result.exact == UniqueMedian(Fraction(3))
        assert result.empirical_median == 3
        assert result.agrees

    def test_interval_median_large_sample(self):
        result = mc_median_check(3, Fraction(1, 2), samples=10**6, seed=42)
        assert result.exact == MedianInterval(Fraction(1), Fraction(2))
        assert 1 <= result.empirical_median <= 2
        assert result.agrees

    def test_repeat_runs_are_identical(self):
        first = mc_median_check(7, Fraction(2, 5), samples=5000, seed=11)
        second = mc_median_check(7, Fraction(2, 5), samples=5000, seed=11)
        assert first == second

    def test_deterministic_per_seed_and_agrees_on_acceptance_cases(self):
        cases = [(10, Fraction(3, 10)), (3, Fraction(1, 2))]
        for n, p in cases:
            for seed in range(5):
                first = mc_median_check(n, p, samples=10**5, seed=seed)
                assert first == mc_median_check(n, p, samples=10**5, seed=seed)
                assert first.agrees, (n, p, seed)

    def test_tallied_median_matches_sorted_variates(self):
        # oracle: thresholds from n+1 cdf calls, every variate kept and sorted
        for n, p, samples, seed in [
            (7, Fraction(2, 5), 5000, 11),
            (3, Fraction(1, 2), 4, 2),
            (12, Fraction(1, 13), 999, 5),
            (20, Fraction(19, 20), 1000, 8),
        ]:
            thresholds = [float(cdf(k, BinomialParams(n, p))) for k in range(n + 1)]
            rng = random.Random(seed)
            variates = sorted(
                bisect.bisect_left(thresholds, rng.random()) for _ in range(samples)
            )
            result = mc_median_check(n, p, samples=samples, seed=seed)
            assert result.empirical_median == variates[(samples - 1) // 2]

    def test_single_sample(self):
        result = mc_median_check(4, Fraction(1), samples=1, seed=0)
        assert result.empirical_median == 4
        assert result.agrees

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            mc_median_check(3, Fraction(1, 2), samples=0, seed=1)
        with pytest.raises(ValueError):
            mc_median_check(3, Fraction(1, 2), samples=10, seed=-1)

    def test_json_shape(self):
        data = mc_median_check(3, Fraction(1, 2), samples=10, seed=5).to_json_dict()
        assert data["p"] == "1/2"
        assert data["exact"]["type"] == "interval"
        assert isinstance(data["agrees"], bool)
