"""Theorem battery over ranges of n.

`verify_theorem` re-derives, for every n up to a bound, everything the
median-uniqueness result rests on: certificate shapes for all k, strict
ordering of the critical probabilities, the reflection and derivative
identities, a randomized median sweep over rational p, and agreement
between the two independent ways of evaluating 2*B(k-1,n,p) - 1.
Failures are collected into the report, never raised.  Every check is
exact: the randomized ones draw rational instances from seeded integer
streams, and only the report's `wall_time` is a float.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .critical import (
    DEFAULT_WIDTH,
    ExactRational,
    ExactRoot,
    FalsificationError,
    IrrationalBySymmetry,
    IrrationalUpperHalf,
    _walk,
    certify_range,
    critical_poly,
    isolate_root,
)
from .distribution import binomial_weights
from .median import MedianInterval, MedianResult, UniqueMedian, median_binomial
from .polynomial import IntPolynomial
from .rational import format_rational

__all__ = [
    "CheckResult",
    "VerificationReport",
    "WorkerError",
    "verify_theorem",
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
    import hashlib  # loads OpenSSL: only the randomized checks pay for it

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
    except FalsificationError as exc:
        return n, f"n={n} certificate construction failed: {exc}"
    # below[k] = sum_{i<k} C(n,i), so 2^n P_k(1/2) = 2 below[k] - 2^n; from
    # binomial coefficients alone, sharing no code with `critical_poly`
    below = list(itertools.accumulate((math.comb(n, i) for i in range(n)), initial=0))
    first_bad = None
    for cert in certs:
        k, status = cert.k, cert.status
        if n % 2 == 1 and k == middle:
            ok = isinstance(status, ExactRational) and status.root == _HALF
        elif k > middle:
            ok = (
                isinstance(status, IrrationalUpperHalf)
                and status.constant_coeff == 1
                and status.sign_at_half == 1
                and 2 * below[k] > 1 << n
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
    """p(n, 1) < ... < p(n, n): one `isolate_root` enclosure per root at
    `width`, and every adjacent pair disjoint and ascending.  n = 1 has
    nothing to compare.

    At 10^-6, the widest width the CLI asks for, every n <= 60 separates,
    and a narrower width only shrinks each enclosure to a sub-cell of
    bisection's coarser one.
    """
    if n == 1:
        return 1, None
    try:
        intervals = [
            (e.root, e.root) if isinstance(e, ExactRoot) else (e.lo, e.hi)
            for e in (isolate_root(n, k, width) for k in range(1, n + 1))
        ]
    except FalsificationError as exc:
        return 1, f"n={n} {exc}"
    for k in range(1, n):
        if intervals[k - 1][1] >= intervals[k][0]:
            return 1, f"n={n} roots {k} and {k + 1} of n={n} are not separated at width {width}"
    return 1, None


def _check_identities(
    n: int, polys: list[IntPolynomial]
) -> tuple[tuple[int, str | None], tuple[int, str | None]]:
    """The reflection and derivative identities for P_{n,i} = polys[i-1], i = 1..n,
    compared with one `critical._walk` as it runs.

    P_{n,i} = R_i for every i proves the reflection identity for every pair
    {i, n-i+1}; a mismatch at either member is reported at the pair's lower
    index.  Each step's term gives P'_{n,i} (reported as j = i-1).  Each
    check counts n instances.
    """
    bad_pairs, bad_js = [], []
    for i, r, term in _walk(n, range(1, n + 1)):
        coeffs = polys[i - 1].coeffs
        if list(coeffs) != r:
            bad_pairs.append(min(i, n - i + 1))
        # P'_{n,i} = -2 i T_i / x = -i x^(i-1) term, for term = 2 T_i / x^i
        lhs = [s * c for s, c in enumerate(coeffs)][1:]
        if lhs != [0] * (i - 1) + [-i * c for c in term]:
            bad_js.append(i - 1)
    reflection = f"n={n} i={min(bad_pairs)} reflection identity failed" if bad_pairs else None
    derivative = f"n={n} j={min(bad_js)} derivative identity failed" if bad_js else None
    return (n, reflection), (n, derivative)


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
    n: int, denom_max: int, seed: int, polys: list[IntPolynomial]
) -> tuple[int, str | None]:
    """b^n P(a/b) = 2 sum_{i<k} w_i - b^n at random k and p = a/b, in integers,
    with P_{n,k} = polys[k-1].

    The two sides share no code: Horner on the integer coefficients of
    `critical_poly` against the weights of `binomial_weights`.  `scaled_value`
    carries b^degree, so both sides are lifted to b^max(n, degree) and the
    comparison stays exact at any degree; a Fraction is built only to render
    a counterexample.
    """
    if denom_max < 2:
        return 0, None
    rng = _rng_for(seed, "evaluation_consistency", n)
    first_bad = None
    for _ in range(CONSISTENCY_DRAWS):
        k = rng.randint(1, n)
        p = _draw_p(rng, denom_max)
        a, b = p.numerator, p.denominator
        poly = polys[k - 1]
        top = max(n, poly.degree)
        via_poly = poly.scaled_value(a, b) * b ** (top - poly.degree)
        below = sum(itertools.islice(binomial_weights(n, a, b - a), k))
        via_cdf = (2 * below - b**n) * b ** (top - n)
        if via_poly != via_cdf and first_bad is None:
            first_bad = (
                f"n={n} k={k} p={format_rational(p)} polynomial value "
                f"{format_rational(Fraction(via_poly, b**top))} != CDF value "
                f"{format_rational(Fraction(via_cdf, b**top))}"
            )
    return CONSISTENCY_DRAWS, first_bad


class WorkerError(RuntimeError):
    """A worker process of `ordered_map` died before returning its results."""


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def ordered_map(fn: Callable, tasks: list, threads: int) -> list:
    """[fn(task) for task in tasks], run in min(threads, len(tasks),
    _available_cpus()) worker processes when that exceeds 1.

    A worker that dies raises WorkerError, chained from the pool's
    BrokenProcessPool.  The process pool is imported only here, so a caller
    that never runs more than one worker never loads `multiprocessing`.
    Workers run under the caller's int/str digit limit: a worker started by
    `spawn` or `forkserver` would otherwise start from the interpreter default.
    """
    workers = min(threads, len(tasks), _available_cpus())
    if workers > 1:
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        digits = (
            {}
            if limit is None
            else {"initializer": sys.set_int_max_str_digits, "initargs": (limit,)}
        )
        try:
            with ProcessPoolExecutor(max_workers=workers, **digits) as pool:
                return list(pool.map(fn, tasks))
        except BrokenProcessPool as exc:
            raise WorkerError(str(exc)) from exc
    return [fn(task) for task in tasks]


def _checks_for_n(task: tuple[int, int, Fraction, int]) -> list[tuple[int, str | None]]:
    n, denom_max, width, seed = task
    polys = [critical_poly(n, k) for k in range(1, n + 1)]
    return [
        _check_certificates(n, width),
        _check_monotonicity(n, width),
        *_check_identities(n, polys),
        _check_median_sweep(n, denom_max, seed),
        _check_evaluation_consistency(n, denom_max, seed, polys),
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
    A worker process that dies under `threads` > 1 raises WorkerError.
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
