"""Theorem battery over ranges of n, plus a seeded Monte Carlo cross-check.

`verify_theorem` re-derives, for every n up to a bound, everything the
median-uniqueness result rests on: certificate shapes for all k, strict
ordering of the critical probabilities, the reflection and derivative
identities, a randomized median sweep over rational p, and agreement
between the two independent ways of evaluating 2*B(k-1,n,p) - 1.
Failures are collected into the report, never raised.

The Monte Carlo check is the only place in the package where floating
point is allowed, and only to draw samples; every verdict comparison is
made against exact results.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .critical import (
    DEFAULT_WIDTH,
    ExactRational,
    FalsificationError,
    IrrationalBySymmetry,
    IrrationalUpperHalf,
    SeparationError,
    certify_range,
    critical_poly,
    derivative_identity_check,
    monotonicity_check,
    symmetry_identity_check,
)
from .distribution import BinomialParams, cdf
from .median import MedianInterval, MedianResult, UniqueMedian, median_binomial
from .rational import format_rational

__all__ = [
    "CheckResult",
    "VerificationReport",
    "verify_theorem",
    "McMedianCheck",
    "mc_median_check",
]

_HALF = Fraction(1, 2)

CHECK_NAMES = (
    "certificates",
    "monotonicity",
    "symmetry_identity",
    "derivative_identity",
    "median_sweep",
    "evaluation_consistency",
)

#: Randomized instances per n in the median sweep and the evaluation
#: consistency check.  Fixed constants so reports are reproducible.
MEDIAN_SWEEP_DRAWS = 25
CONSISTENCY_DRAWS = 10


@dataclass(frozen=True)
class CheckResult:
    name: str
    instances: int
    passed: bool
    counterexample: str | None

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "instances": self.instances,
            "passed": self.passed,
            "counterexample": self.counterexample,
        }


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one battery run.

    `wall_time` is runtime metadata and deliberately stays out of the
    serialized form: two runs with the same (n_range, width, denom_max,
    seed) must serialize byte-identically.
    """

    n_range: tuple[int, int]
    denom_max: int
    width: Fraction
    seed: int
    checks: tuple[CheckResult, ...]
    wall_time: float

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "n_range": list(self.n_range),
            "denom_max": self.denom_max,
            "width": format_rational(self.width),
            "seed": self.seed,
            "passed": self.passed,
            "checks": [check.to_json_dict() for check in self.checks],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))


def _rng_for(seed: int, check: str, n: int) -> random.Random:
    """Independent deterministic stream per (check, n), split from the
    master seed so execution order and parallelism cannot perturb draws."""
    digest = hashlib.sha256(f"{seed}:{check}:{n}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _draw_p(rng: random.Random, denom_max: int) -> Fraction:
    """Random rational in (0, 1): denominator uniform on [1, denom_max]
    (resampled past the empty b=1 case), numerator uniform below it."""
    while True:
        den = rng.randint(1, denom_max)
        if den >= 2:
            break
    num = rng.randint(1, den - 1)
    return Fraction(num, den)


def _check_certificates(n: int, width: Fraction) -> tuple[int, str | None]:
    middle = (n + 1) // 2
    try:
        certs = certify_range(n, width)
    except (FalsificationError, SeparationError) as exc:
        return n, f"n={n} certificate construction failed: {exc}"
    first_bad = None
    for cert in certs:
        k, status = cert.k, cert.status
        if n % 2 == 1 and k == middle:
            ok = isinstance(status, ExactRational) and status.root == _HALF
        elif k > middle:
            ok = (
                isinstance(status, IrrationalUpperHalf)
                and status.constant_coeff == 1
                and _HALF < status.enclosure.lo < status.enclosure.hi < 1
            )
        else:
            ok = (
                isinstance(status, IrrationalBySymmetry)
                and status.partner_k == n - k + 1
                and isinstance(status.partner.status, IrrationalUpperHalf)
            )
        if not ok and first_bad is None:
            first_bad = f"n={n} k={k} unexpected certificate {type(status).__name__}"
    return n, first_bad


def _check_monotonicity(n: int, width: Fraction) -> tuple[int, str | None]:
    try:
        ordered = monotonicity_check(n, width)
    except SeparationError as exc:
        return 1, f"n={n} {exc}"
    return 1, None if ordered else f"n={n} critical probabilities not ascending"


def _check_symmetry(n: int) -> tuple[int, str | None]:
    first_bad = None
    for i in range(1, n + 1):
        if not symmetry_identity_check(n, i) and first_bad is None:
            first_bad = f"n={n} i={i} reflection identity failed"
    return n, first_bad


def _check_derivative(n: int) -> tuple[int, str | None]:
    first_bad = None
    for j in range(n):
        if not derivative_identity_check(n, j) and first_bad is None:
            first_bad = f"n={n} j={j} derivative identity failed"
    return n, first_bad


def _expected_median(n: int, p: Fraction, result: MedianResult) -> str | None:
    if p == _HALF and n % 2 == 1:
        want = MedianInterval(Fraction(n - 1, 2), Fraction(n + 1, 2))
        if result != want:
            return (
                f"n={n} p={format_rational(p)} expected interval "
                f"[{want.m1},{want.m2}], got {result}"
            )
        return None
    if not isinstance(result, UniqueMedian):
        return (
            f"n={n} p={format_rational(p)} has a non-unique median "
            f"[{result.m1},{result.m2}]"
        )
    return None


def _check_median_sweep(
    n: int, denom_max: int, seed: int
) -> tuple[int, str | None]:
    first_bad = None
    # the known exception is pinned explicitly rather than left to chance
    bad = _expected_median(n, _HALF, median_binomial(n, _HALF))
    if bad is not None:
        first_bad = bad
    instances = 1
    if denom_max >= 2:
        rng = _rng_for(seed, "median_sweep", n)
        for _ in range(MEDIAN_SWEEP_DRAWS):
            p = _draw_p(rng, denom_max)
            bad = _expected_median(n, p, median_binomial(n, p))
            if bad is not None and first_bad is None:
                first_bad = bad
            instances += 1
    return instances, first_bad


def _check_evaluation_consistency(
    n: int, denom_max: int, seed: int
) -> tuple[int, str | None]:
    if denom_max < 2:
        return 0, None
    rng = _rng_for(seed, "evaluation_consistency", n)
    first_bad = None
    for _ in range(CONSISTENCY_DRAWS):
        k = rng.randint(1, n)
        p = _draw_p(rng, denom_max)
        via_poly = critical_poly(n, k).evaluate(p)
        via_cdf = 2 * cdf(k - 1, BinomialParams(n, p)) - 1
        if via_poly != via_cdf and first_bad is None:
            first_bad = (
                f"n={n} k={k} p={format_rational(p)} polynomial value "
                f"{format_rational(via_poly)} != CDF value {format_rational(via_cdf)}"
            )
    return CONSISTENCY_DRAWS, first_bad


def ordered_map(fn: Callable, tasks: list, threads: int) -> list:
    """[fn(task) for task in tasks], run in `threads` worker processes when
    threads > 1; a worker that dies raises BrokenProcessPool."""
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, tasks))
    return [fn(task) for task in tasks]


def _checks_for_n(task: tuple[int, int, Fraction, int]) -> list[tuple[int, str | None]]:
    n, denom_max, width, seed = task
    return [
        _check_certificates(n, width),
        _check_monotonicity(n, width),
        _check_symmetry(n),
        _check_derivative(n),
        _check_median_sweep(n, denom_max, seed),
        _check_evaluation_consistency(n, denom_max, seed),
    ]


def verify_theorem(
    n_max: int,
    denom_max: int = 200,
    width: Fraction = DEFAULT_WIDTH,
    seed: int = 0,
    threads: int = 1,
) -> VerificationReport:
    """Run the full battery for every n up to n_max and report per check.

    The report is a pure function of (n_max, denom_max, width, seed):
    randomized parts draw from per-(check, n) streams split off the master
    seed, and results are merged in ascending n regardless of `threads`,
    so the first counterexample reported is always the smallest-n one.
    """
    width = Fraction(width)
    if n_max < 1:
        raise ValueError("n_max must be positive")
    if denom_max < 1:
        raise ValueError("denom_max must be positive")
    if width <= 0:
        raise ValueError("width must be positive")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 unsigned bits")
    if threads < 1:
        raise ValueError("threads must be positive")
    start = time.perf_counter()
    tasks = [(n, denom_max, width, seed) for n in range(1, n_max + 1)]
    rows = ordered_map(_checks_for_n, tasks, threads)
    checks = []
    for idx, name in enumerate(CHECK_NAMES):
        instances = sum(row[idx][0] for row in rows)
        counterexample = next(
            (row[idx][1] for row in rows if row[idx][1] is not None), None
        )
        checks.append(CheckResult(name, instances, counterexample is None, counterexample))
    return VerificationReport(
        n_range=(1, n_max),
        denom_max=denom_max,
        width=width,
        seed=seed,
        checks=tuple(checks),
        wall_time=time.perf_counter() - start,
    )


@dataclass(frozen=True)
class McMedianCheck:
    """Agreement verdict between an empirical and the exact median."""

    n: int
    p: Fraction
    samples: int
    seed: int
    exact: MedianResult
    empirical_median: int
    agrees: bool

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "p": format_rational(self.p),
            "samples": self.samples,
            "seed": self.seed,
            "exact": self.exact.to_json_dict(),
            "empirical_median": self.empirical_median,
            "agrees": self.agrees,
        }


def mc_median_check(
    n: int, p: Fraction | int, samples: int, seed: int
) -> McMedianCheck:
    """Draw binomial variates by inverting the exact CDF and compare the
    empirical median with the exact classification.

    The exact CDF is converted to double precision once; uniforms come
    from a seeded PCG64 stream, so runs are reproducible bit-for-bit.
    The empirical median uses the lower-midpoint convention for even
    sample counts.  A UniqueMedian must be hit exactly; a MedianInterval
    accepts any empirical median inside it.

    False-failure odds: with margin d = min |CDF boundary - 1/2| over the
    boundaries adjacent to the exact median, Hoeffding gives failure
    probability at most 2*exp(-2*samples*d^2).  At samples = 10^6 any
    margin above 0.0034 keeps that below 1e-9; the acceptance
    configuration (n=10, p=3/10) has margin ~0.117.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 unsigned bits")
    params = BinomialParams(n, p)
    exact = median_binomial(params.n, params.p)
    thresholds = np.array([float(cdf(k, params)) for k in range(params.n + 1)])
    uniforms = np.random.default_rng(seed).random(samples)
    variates = np.searchsorted(thresholds, uniforms, side="left")
    empirical = int(np.sort(variates)[(samples - 1) // 2])
    if isinstance(exact, UniqueMedian):
        agrees = empirical == exact.m
    else:
        agrees = exact.m1 <= empirical <= exact.m2
    return McMedianCheck(
        n=params.n,
        p=params.p,
        samples=samples,
        seed=seed,
        exact=exact,
        empirical_median=empirical,
        agrees=agrees,
    )
