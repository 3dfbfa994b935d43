"""Seeded request lists for the four benchmark workloads.

Each workload is a list of CLI argv lists; the same (workload, seed) pair
always gives the same list.  The program only ever sees these argv lists.

* battery: one `verify` request, the acceptance battery's six checks for
  n <= 28.  The only workload that runs certificates, the identity checks
  and monotonicity.
* table: one `table` request, polynomial construction plus 820
  bisections at ~116-bit dyadics, with no certificates and no Fraction CDF.
* queries: cheap `median` / `cdf` / `pmf` requests whose cost is the
  Fraction scans in `distribution` and `median`; no polynomial code runs.
* deep: `critical` at small n and hundreds to ~1000 digits, so few
  polynomials but thousands of bisection steps on multi-thousand-bit
  operands, and rendering of huge rationals.

queries and deep send one request per cell of a fixed grid over their
parameters, and the seed only jitters each request inside its cell.
Different seeds then give different requests with nearly the same cost
profile, so latency percentiles compare across seeds; independent random
draws would move p90 by tens of percent.

battery and table are sized at about 2 s, where the acceptance battery
(n <= 40) and a table to n = 60 take 6-12 s, so that a run repeats them
about ten times: run.py takes a request's latency from its repeats, and
two repeats are too few on a host whose clock speed varies.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("battery", "table", "queries", "deep")

BATTERY_N_MAX = 28
BATTERY_DENOM_MAX = 200
TABLE_N_MAX = 40
TABLE_DIGITS = 30

QUERY_N_LEVELS = 10
QUERY_N_RANGE = (300, 1800)
# Rendered pmf/cdf rationals have up to n*log10(b) digits.  At n <= 1800
# and b <= 200 that stays below CPython's 4300-digit int-to-str limit,
# past which the CLI currently fails (exit 2) instead of answering.
QUERY_DENOM_MAX = 200
_QUERY_DENOMS = [
    b for b in range(QUERY_DENOM_MAX // 2 + 1, QUERY_DENOM_MAX + 1)
    if all(b % d for d in range(2, math.isqrt(b) + 1))
]

DEEP_DIGIT_LEVELS = 17
DEEP_N_RANGE = (2, 7)
DEEP_DIGITS_RANGE = (120, 1000)


def _queries(rng: random.Random) -> list[list[str]]:
    """One request per cell of (n level) x (command) x (p quarter).

    Within a cell the seed moves n by up to 4%, p and k/n by up to 0.05
    around the quarter's centre, and picks the denominator b among the
    primes in (b_max/2, b_max], so a/b never reduces to a cheaper fraction.
    The cost of each cell therefore stays put, which keeps p90 steady
    across seeds.
    """
    lo, hi = QUERY_N_RANGE

    def jitter(centre: float, spread: float) -> float:
        return centre + spread * (2 * rng.random() - 1)

    out = []
    for level in range(QUERY_N_LEVELS):
        centre_n = lo * (hi / lo) ** ((level + 0.5) / QUERY_N_LEVELS)
        for command in ("median", "cdf", "pmf"):
            for quarter in range(4):
                n = round(centre_n * jitter(1.0, 0.04))
                b = rng.choice(_QUERY_DENOMS)
                a = round(jitter((quarter + 0.5) / 4, 0.05) * b)
                argv = [command, "--n", str(n)]
                if command != "median":
                    argv += ["--k", str(round(jitter((quarter + 0.5) / 4, 0.05) * n))]
                out.append(argv + ["--p", f"{a}/{b}"])
    rng.shuffle(out)
    return out


def _deep(rng: random.Random) -> list[list[str]]:
    """One request per cell of (n) x (digits level), the same scheme as
    `_queries`: within a cell the seed moves D by up to 4% and picks k."""
    lo, hi = DEEP_DIGITS_RANGE
    out = []
    for n in range(DEEP_N_RANGE[0], DEEP_N_RANGE[1] + 1):
        for level in range(DEEP_DIGIT_LEVELS):
            centre = lo * (hi / lo) ** ((level + 0.5) / DEEP_DIGIT_LEVELS)
            digits = round(centre * (1.0 + 0.04 * (2 * rng.random() - 1)))
            k = rng.randint(1, n)
            out.append(["critical", "--n", str(n), "--k", str(k), "--digits", str(digits)])
    rng.shuffle(out)
    return out


def requests(workload: str, seed: int) -> list[list[str]]:
    """The argv list a workload sends for this seed, in send order."""
    if workload == "battery":
        return [
            [
                "verify",
                "--n-max", str(BATTERY_N_MAX),
                "--denom-max", str(BATTERY_DENOM_MAX),
                "--seed", str(seed % 2**64),
                "--threads", "1",
            ]
        ]
    if workload == "table":
        return [
            [
                "table",
                "--n-max", str(TABLE_N_MAX),
                "--digits", str(TABLE_DIGITS),
                "--threads", "1",
            ]
        ]
    rng = random.Random(f"{workload}:{seed}")
    if workload == "queries":
        return _queries(rng)
    if workload == "deep":
        return _deep(rng)
    raise ValueError(f"unknown workload {workload!r}")


def digest(argvs: list[list[str]]) -> str:
    """sha256 of the canonical JSON form of an argv list."""
    return hashlib.sha256(json.dumps(argvs, separators=(",", ":")).encode()).hexdigest()
