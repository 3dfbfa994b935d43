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
from binomedian.critical import (
    ExactRational,
    certify,
    critical_poly,
    derivative_identity_check,
    isolate_root,
    symmetry_identity_check,
)
from binomedian.median import (
    MedianClass,
    MedianInterval,
    UniqueMedian,
    check_median,
    median_binomial,
    median_finite,
)
from helpers import (
    HALF,
    icbrt_fraction,
    isqrt_fraction,
    mc_median_check,
    median_by_enumeration,
    random_finite_dist,
    tail_at_least,
    tail_at_most,
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
        assert certify(n, middle).status == ExactRational(HALF)
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
        for j in range(n):
            assert derivative_identity_check(n, j).equal
        for i in range(1, n + 1):
            assert symmetry_identity_check(n, i).equal
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
    for _ in range(1000):
        dist = random_finite_dist(rng, max_support=12)
        result = median_finite(dist)
        oracle = median_by_enumeration(dist)
        classes = {x: check_median(dist, x) for x in dist.support}
        uniques = [x for x, c in classes.items() if c == MedianClass.UNIQUE_MEDIAN]
        assert len(uniques) <= 1
        if isinstance(result, UniqueMedian):
            assert oracle == ("unique", result.m)
            assert result.m in dist.support
            assert uniques == [result.m]
        else:
            m1, m2 = result.m1, result.m2
            assert oracle == ("interval", m1, m2)
            assert m1 in dist.support and m2 in dist.support and m1 < m2
            assert tail_at_most(dist, m1) == HALF
            assert tail_at_least(dist, m2) == HALF
            interior = [m1, m2, m1 + (m2 - m1) / 3, m1 + (m2 - m1) * Fraction(7, 9)]
            for m in interior:
                assert check_median(dist, m) == MedianClass.WEAK_MEDIAN
            for x in dist.support:
                if not m1 <= x <= m2:
                    assert classes[x] == MedianClass.NOT_A_MEDIAN
        # weak classification agrees with the half-tail condition everywhere
        probes = list(dist.support) + [
            dist.support[0] - 1,
            dist.support[-1] + 1,
            dist.support[0] + Fraction(1, 13),
        ]
        for m in probes:
            le, ge = tail_at_most(dist, m), tail_at_least(dist, m)
            is_median = le >= HALF and ge >= HALF
            is_weak = is_median and (le == HALF or ge == HALF)
            got = check_median(dist, m)
            assert (got == MedianClass.WEAK_MEDIAN) == is_weak
            assert (got != MedianClass.NOT_A_MEDIAN) == is_median
    passed("7", "lemma battery on 1000 random finite distributions")


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
