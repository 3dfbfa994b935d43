import bisect
import dataclasses
import random
import types
from fractions import Fraction

import pytest

from binomedian import cli, critical, verify
from binomedian.critical import DEFAULT_WIDTH, FalsificationError
from binomedian.distribution import BinomialParams, cdf
from binomedian.median import MedianInterval, UniqueMedian
from binomedian.polynomial import IntPolynomial
from binomedian.verify import CHECK_NAMES, verify_theorem
from helpers import fraction_gap_bisect, mc_median_check, poly_add, taylor_reflect


def failures(n_max):
    """{check name: counterexample} for the failing checks of a small battery."""
    report = verify_theorem(n_max, denom_max=10, width=Fraction(1, 10**6), seed=0)
    return {c.name: c.counterexample for c in report.checks if not c.passed}


def plant(monkeypatch, added):
    """Add added[(n, k)] to P_{n,k} in every namespace the battery reads
    `critical_poly` from: `critical` for certificates and root isolation,
    `verify` for the per-n list the identity and consistency checks read."""
    real = critical.critical_poly

    def planted(m, j):
        poly = real(m, j)
        return poly_add(poly, added[m, j]) if (m, j) in added else poly

    for module in (critical, verify):
        monkeypatch.setattr(module, "critical_poly", planted)


def perturb(monkeypatch, n, k):
    """Replace P_{n,k} by P_{n,k} + x - x^2, which keeps P(0) = 1 and P(1) = -1."""
    plant(monkeypatch, {(n, k): IntPolynomial((0, 1, -1))})


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
            assert verify._check_certificates(n, Fraction(1, 7)) == (n, None), n

    def test_certificates_check_reads_no_enclosure(self, monkeypatch):
        # the check rests on exact facts: a sign kernel that never settles
        # would hit the step cap on the first bisection
        monkeypatch.setattr(critical, "_sign_at", lambda poly, m, t: 1)
        for n in range(1, 13):
            assert verify._check_certificates(n, Fraction(1, 10**35)) == (n, None), n

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
        _, message = verify._check_monotonicity(6, DEFAULT_WIDTH)
        assert message.startswith("n=6 roots 4 and 5 of n=6 ")
        bad = failures(7)
        assert bad["monotonicity"].startswith("n=6 roots 4 and 5 of n=6 ")
        assert bad["certificates"].startswith("n=6 ")

    def test_sign_at_half_against_the_binomial_sum(self, monkeypatch):
        # for (4, 3): 2 (C(4,0) + C(4,1) + C(4,2)) - 2^4 = 6 > 0, but the
        # certificate claims a negative sign
        real = critical.certify_range

        def planted(n, width):
            certs = real(n, width)
            if n == 4:
                status = dataclasses.replace(certs[2].status, sign_at_half=-1)
                certs[2] = dataclasses.replace(certs[2], status=status)
            return certs

        monkeypatch.setattr(verify, "certify_range", planted)
        assert failures(5) == {
            "certificates": "n=4 k=3 unexpected certificate IrrationalUpperHalf"
        }
        # and the other way round: the checker's own binomial sum is what
        # flags a true certificate once that sum reads 0
        monkeypatch.setattr(verify, "certify_range", real)
        monkeypatch.setattr(verify, "math", types.SimpleNamespace(comb=lambda n, i: 0))
        assert failures(3) == {
            "certificates": "n=2 k=2 unexpected certificate IrrationalUpperHalf"
        }

    def test_upper_member_of_a_pair_fails_at_the_lower_index(self, monkeypatch):
        # the symmetry check compares the pair {2, 4} of n = 5 once, at i = 2
        perturb(monkeypatch, 5, 4)
        assert failures(6) == {
            "certificates": "n=5 certificate construction failed: "
            "reflection identity failed for (n=5, i=2)",
            "symmetry_identity": "n=5 i=2 reflection identity failed",
            "derivative_identity": "n=5 j=3 derivative identity failed",
            "evaluation_consistency": "n=5 k=4 p=1/2 polynomial value 7/8 != CDF value 5/8",
        }

    def test_mirror_consistent_pair_fails_at_the_lower_index(self, monkeypatch):
        # q = x - x^2 has q(1 - x) = q(x), so P_{5,2} + q and P_{5,4} - q still
        # satisfy the reflection identity; only comparing both with their
        # definition, R_2 and R_4 of the walk, tells them from the true pair
        plant(monkeypatch, {(5, 2): IntPolynomial((0, 1, -1)), (5, 4): IntPolynomial((0, -1, 1))})
        lower, upper = critical.critical_poly(5, 2), critical.critical_poly(5, 4)
        assert taylor_reflect(upper.coeffs) == list(lower.coeffs)
        assert failures(6) == {
            "certificates": "n=5 certificate construction failed: "
            "reflection identity failed for (n=5, i=2)",
            "symmetry_identity": "n=5 i=2 reflection identity failed",
            "derivative_identity": "n=5 j=1 derivative identity failed",
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
        monkeypatch.setattr(verify, "critical_poly", planted)
        assert failures(5) == {
            "certificates": "n=4 certificate construction failed: "
            "reflection identity failed for (n=4, i=2)",
            "monotonicity": "n=4 polynomial for (n=4, k=2) lost its endpoint values +1/-1",
            "symmetry_identity": "n=4 i=2 reflection identity failed",
            "derivative_identity": "n=4 j=1 derivative identity failed",
            "evaluation_consistency": "n=4 k=2 p=1/3 polynomial value 14/27 != CDF value 5/27",
        }

    def test_evaluation_consistency_sees_a_planted_polynomial(self, monkeypatch):
        # `verify` imports `critical_poly` by name, so the plant goes into its
        # namespace only: the per-n list the identity and consistency checks
        # share; the first n = 2 draw at seed 0 is k = 2, p = 2/5
        real = critical.critical_poly

        def plant_in_verify(replace):
            monkeypatch.setattr(
                verify, "critical_poly", lambda n, k: replace(n, k) if (n, k) == (2, 2) else real(n, k)
            )

        plant_in_verify(lambda n, k: poly_add(real(n, k), IntPolynomial((0, 1, -1))))
        assert failures(3) == {
            "symmetry_identity": "n=2 i=1 reflection identity failed",
            "derivative_identity": "n=2 j=1 derivative identity failed",
            "evaluation_consistency": "n=2 k=2 p=2/5 polynomial value 23/25 != CDF value 17/25",
        }
        # a polynomial of lower degree than n: 1 - 2x at 2/5
        plant_in_verify(lambda n, k: IntPolynomial((1, -2)))
        assert failures(3) == {
            "symmetry_identity": "n=2 i=1 reflection identity failed",
            "derivative_identity": "n=2 j=1 derivative identity failed",
            "evaluation_consistency": "n=2 k=2 p=2/5 polynomial value 1/5 != CDF value 17/25",
        }


class TestIdentityWork:
    def test_each_polynomial_built_once_per_check_pass(self, monkeypatch):
        # per n: certificates and root isolation build P_{n,1..n} once each,
        # and the identity and consistency checks share one more list; the
        # walk builds no polynomial
        calls = []
        real = critical._cdf_coeffs

        def counted(n, j):
            calls.append((n, j))
            return real(n, j)

        monkeypatch.setattr(critical, "_cdf_coeffs", counted)
        assert verify_theorem(28, denom_max=200, seed=7).passed
        assert len(calls) <= 1218


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
