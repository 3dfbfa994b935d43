"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line once its assertions hold, so running
`pytest -s tests/test_acceptance.py` (or `-v`) gives one line per
criterion.  The heavyweight battery run is executed through the real CLI
in a subprocess and shared between criteria 1 and 9.
"""

import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import comb

import pytest

import binomedian
from binomedian.critical import ExactRational, certify, critical_poly, isolate_root
from binomedian.median import MedianInterval, UniqueMedian, median_binomial
from binomedian.verify import _check_identities
from helpers import (
    HALF,
    binomial_masses,
    icbrt_fraction,
    isqrt_fraction,
    mc_median_check,
    median_by_enumeration,
    tail_at_least,
    tail_at_most,
    weak_medians,
)

VERIFY_ARGV = [
    sys.executable,
    "-m",
    "binomedian",
    "verify",
    "--n-max",
    "40",
    "--denom-max",
    "200",
    "--seed",
    "7",
]

TIME_BUDGET_SECONDS = 120.0


def passed(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def run_battery():
    # the child imports the package this process imported, installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(binomedian.__file__)))
    start = time.perf_counter()
    proc = subprocess.run(
        VERIFY_ARGV, capture_output=True, env={**os.environ, "PYTHONPATH": src}
    )
    return proc, time.perf_counter() - start


@pytest.fixture(scope="module")
def battery():
    return run_battery()


def test_criterion_1_theorem_battery(battery):
    proc, elapsed = battery
    assert proc.returncode == 0, proc.stderr.decode()
    assert elapsed < TIME_BUDGET_SECONDS
    report = json.loads(proc.stdout)
    assert report["passed"] is True
    names = [c["name"] for c in report["checks"]]
    assert names == [
        "certificates",
        "monotonicity",
        "symmetry_identity",
        "derivative_identity",
        "median_sweep",
        "evaluation_consistency",
    ]
    assert all(c["passed"] and c["counterexample"] is None for c in report["checks"])
    passed("1", f"verify --n-max 40 exit 0 in {elapsed:.1f}s, all checks pass")


def test_criterion_2_exact_exception_case():
    for n in range(1, 100, 2):
        middle = (n + 1) // 2
        assert certify(n, middle).status == ExactRational()
        assert median_binomial(n, HALF) == MedianInterval(
            Fraction(n - 1, 2), Fraction(n + 1, 2)
        )
    for n in range(0, 99, 2):
        assert median_binomial(n, HALF) == UniqueMedian(Fraction(n, 2))
    passed("2", "odd n <= 99 certify 1/2 + interval median, even n <= 98 unique")


def test_criterion_3_closed_form_roots():
    tolerance = Fraction(1, 10**25)
    references = {
        (2, 2): isqrt_fraction(2, 60) / 2,        # 1/sqrt(2)
        (2, 1): 1 - isqrt_fraction(2, 60) / 2,    # 1 - 1/sqrt(2)
        (3, 1): 1 - icbrt_fraction(4, 60) / 2,    # 1 - 2^(-1/3)
    }
    for (n, k), reference in references.items():
        enclosure = isolate_root(n, k)
        assert abs(enclosure.lo - reference) <= tolerance
        assert abs(enclosure.hi - reference) <= tolerance
    passed("3", "three closed-form roots matched to 1e-25 by integer-root oracles")


def test_criterion_4_constant_coefficient_law():
    for n in range(1, 51):
        for k in range(1, n + 1):
            assert critical_poly(n, k).constant == 1
    passed("4", "constant coefficient 1 for all 1 <= k <= n <= 50")


def test_criterion_5_polynomial_identities():
    for n in range(1, 31):
        polys = [critical_poly(n, k) for k in range(1, n + 1)]
        assert _check_identities(n, polys) == ((n, None), (n, None)), n
    passed("5", "derivative and reflection identities exhaustive to n = 30")


def test_criterion_6_median_uniqueness_sweep():
    rng = random.Random(0xB10_0060)
    instances = 0
    while instances < 10_000:
        n = rng.randint(1, 60)
        den = rng.randint(2, 1000)
        p = Fraction(rng.randint(1, den - 1), den)
        if p == HALF and n % 2 == 1:
            continue  # the known exception is excluded by the criterion
        result = median_binomial(n, p)
        assert isinstance(result, UniqueMedian), (
            f"counterexample to uniqueness: n={n}, p={p}, got {result}"
        )
        instances += 1
    passed("6", "10000 randomized instances all classify Unique")


def test_criterion_7_lemma_suite():
    rng = random.Random(0xB10_0070)
    for draw in range(1000):
        if draw % 4 == 3:
            # the odd n at 1/2, so that the interval branch runs
            n, p = 2 * rng.randint(0, 29) + 1, HALF
        else:
            n = rng.randint(0, 60)
            den = rng.randint(1, 1000)
            p = Fraction(rng.randint(0, den), den)
        dist = binomial_masses(n, p)
        result = median_binomial(n, p)
        if isinstance(result, UniqueMedian):
            m1 = m2 = result.m
            assert median_by_enumeration(dist) == ("unique", result.m)
            assert result.m in dist.support
            assert tail_at_most(dist, m1) > HALF and tail_at_least(dist, m2) > HALF
        else:
            m1, m2 = result.m1, result.m2
            assert median_by_enumeration(dist) == ("interval", m1, m2)
            assert m1 in dist.support and m2 in dist.support and m1 < m2
            assert tail_at_most(dist, m1) == HALF
            assert tail_at_least(dist, m2) == HALF
        # no support point outside [m1, m2] is a median, and every one inside is
        assert [x for x, _, _ in weak_medians(dist)] == [
            x for x in dist.support if m1 <= x <= m2
        ]
    passed("7", "median lemmas on 1000 random binomials, every fourth at p = 1/2, n odd")


def hoeffding_bound(n: int, p: Fraction, median_lo: int, median_hi: int, samples: int) -> float:
    """Upper bound on the chance the empirical median escapes [lo, hi].

    Escaping requires the empirical CDF at lo-1 to reach 1/2 or the one at
    hi to fall to 1/2, each a mean deviation of at least the exact margin,
    so two one-sided Hoeffding terms cover it.
    """
    def exact_cdf(k: int) -> Fraction:
        return sum(
            (comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(k + 1)),
            Fraction(0),
        )

    margins = []
    if median_lo >= 1:
        margins.append(HALF - exact_cdf(median_lo - 1))
    if median_hi <= n - 1:
        margins.append(exact_cdf(median_hi) - HALF)
    assert all(m > 0 for m in margins)
    return sum(math.exp(-2 * samples * float(m) ** 2) for m in margins)


def run_mc_pair():
    return (
        mc_median_check(10, Fraction(3, 10), 10**6, seed=42),
        mc_median_check(3, Fraction(1, 2), 10**6, seed=42),
    )


def test_criterion_8_monte_carlo_cross_check():
    unique_case, interval_case = run_mc_pair()
    assert unique_case.exact == UniqueMedian(Fraction(3))
    assert unique_case.agrees
    assert interval_case.exact == MedianInterval(Fraction(1), Fraction(2))
    assert interval_case.agrees
    bound_unique = hoeffding_bound(10, Fraction(3, 10), 3, 3, 10**6)
    bound_interval = hoeffding_bound(3, Fraction(1, 2), 1, 2, 10**6)
    assert bound_unique < 1e-9
    assert bound_interval < 1e-9
    passed(
        "8",
        f"both MC checks agree; false-failure bounds "
        f"{bound_unique:.3g} and {bound_interval:.3g}",
    )


def test_criterion_9_determinism(battery):
    first_proc, _ = battery
    second_proc, _ = run_battery()
    assert second_proc.returncode == 0
    assert first_proc.stdout == second_proc.stdout
    first_mc = [check.to_json_dict() for check in run_mc_pair()]
    second_mc = [check.to_json_dict() for check in run_mc_pair()]
    assert json.dumps(first_mc) == json.dumps(second_mc)
    passed("9", "battery and MC reruns serialize byte-identically")
