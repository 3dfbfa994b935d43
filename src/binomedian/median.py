"""Median classification for finite discrete distributions.

A point m is a (weak) median when P(X <= m) >= 1/2 and P(X >= m) >= 1/2,
and the unique (strong) median when both inequalities are strict.  When no
strong median exists the medians form a closed interval whose endpoints
both lie in the support and carry exact half tails; `median_finite` reports
that interval by its endpoints.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .distribution import BinomialParams, pmf_sequence
from .rational import as_exact, format_rational

__all__ = [
    "DistributionError",
    "FiniteDiscreteDist",
    "UniqueMedian",
    "MedianInterval",
    "MedianResult",
    "MedianClass",
    "median_finite",
    "median_binomial",
    "check_median",
]

_HALF = Fraction(1, 2)


class DistributionError(ValueError):
    """A finite discrete distribution violated its construction invariants."""


@dataclass(frozen=True)
class FiniteDiscreteDist:
    """Strictly increasing rational support with positive masses summing to 1."""

    support: tuple[Fraction, ...]
    probs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        support = tuple(as_exact(x) for x in self.support)
        probs = tuple(as_exact(w) for w in self.probs)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)
        if len(support) != len(probs) or not support:
            raise DistributionError("support and probs must be nonempty and equal-length")
        if any(w <= 0 for w in probs):
            raise DistributionError("all masses must be strictly positive")
        if sum(probs) != 1:
            raise DistributionError("masses must sum to exactly 1")
        if any(a >= b for a, b in zip(support, support[1:])):
            raise DistributionError("support must be strictly increasing")

    @classmethod
    def from_binomial(cls, params: BinomialParams) -> "FiniteDiscreteDist":
        """The binomial mass function with zero-mass points dropped."""
        pairs = [
            (Fraction(k), mass)
            for k, mass in enumerate(pmf_sequence(params))
            if mass > 0
        ]
        return cls(tuple(x for x, _ in pairs), tuple(w for _, w in pairs))


@dataclass(frozen=True)
class UniqueMedian:
    m: Fraction

    def to_json_dict(self) -> dict:
        return {"type": "unique", "m": format_rational(self.m)}


@dataclass(frozen=True)
class MedianInterval:
    m1: Fraction
    m2: Fraction

    def to_json_dict(self) -> dict:
        return {
            "type": "interval",
            "m1": format_rational(self.m1),
            "m2": format_rational(self.m2),
        }


MedianResult = Union[UniqueMedian, MedianInterval]


class MedianClass(enum.Enum):
    NOT_A_MEDIAN = "not-a-median"
    WEAK_MEDIAN = "weak-median"
    UNIQUE_MEDIAN = "unique-median"


def _half_crossing(masses: Iterable[Fraction]) -> tuple[int, bool]:
    """Index of the first cumulative mass >= 1/2, and whether it is exactly 1/2."""
    cumulative = Fraction(0)
    for i, mass in enumerate(masses):
        cumulative += mass
        if cumulative >= _HALF:
            return i, cumulative == _HALF
    raise AssertionError("unreachable: masses sum to 1")


def median_finite(dist: FiniteDiscreteDist) -> MedianResult:
    """Classify the median of a finite discrete distribution.

    Scans the support in ascending order for the least point with
    cumulative mass >= 1/2.  Cumulative mass exactly 1/2 at that point
    means the medians form the interval up to the next support point;
    otherwise the point is the unique median.
    """
    i, tie = _half_crossing(dist.probs)
    if tie:
        # the remaining mass is exactly 1/2, so a next point exists
        return MedianInterval(dist.support[i], dist.support[i + 1])
    return UniqueMedian(dist.support[i])


def median_binomial(n: int, p: Fraction | int) -> MedianResult:
    """Median of B(n, p), scanning the exact CDF upward from k = 0."""
    params = BinomialParams(n, p)
    if params.p == 0:
        return UniqueMedian(Fraction(0))
    if params.p == 1:
        return UniqueMedian(Fraction(n))
    k, tie = _half_crossing(pmf_sequence(params))
    if tie:
        return MedianInterval(Fraction(k), Fraction(k + 1))
    return UniqueMedian(Fraction(k))


def check_median(dist: FiniteDiscreteDist, m: Fraction | int) -> MedianClass:
    """Classify an arbitrary rational point against the median definitions.

    The point need not belong to the support; both tail masses are computed
    exactly and compared against 1/2.
    """
    m = as_exact(m)
    at_most = sum((w for x, w in zip(dist.support, dist.probs) if x <= m), Fraction(0))
    at_least = sum((w for x, w in zip(dist.support, dist.probs) if x >= m), Fraction(0))
    if at_most > _HALF and at_least > _HALF:
        return MedianClass.UNIQUE_MEDIAN
    if at_most >= _HALF and at_least >= _HALF:
        return MedianClass.WEAK_MEDIAN
    return MedianClass.NOT_A_MEDIAN
