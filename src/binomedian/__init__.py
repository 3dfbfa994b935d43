"""Exact medians of binomial distributions at rational p.

Everything runs in exact rational and integer arithmetic, with no floating
point anywhere: pmf/CDF evaluation, median classification, certified
enclosures of the critical probabilities where the median degenerates to
an interval, and per-instance certificates that each such probability is
irrational (or exactly 1/2 at the odd middle index).
"""

from .critical import (
    DEFAULT_WIDTH,
    Bracket,
    ExactRational,
    ExactRoot,
    FalsificationError,
    IrrationalBySymmetry,
    IrrationalityCertificate,
    IrrationalUpperHalf,
    RootEnclosure,
    certify,
    certify_range,
    critical_poly,
    isolate_root,
)
from .distribution import BinomialParams, ParameterError, cdf, pmf, pmf_sequence, survival
from .median import (
    DistributionError,
    FiniteDiscreteDist,
    MedianClass,
    MedianInterval,
    MedianResult,
    UniqueMedian,
    check_median,
    median_binomial,
    median_finite,
)
from .polynomial import IntPolynomial
from .rational import (
    RationalParseError,
    ZeroDenominatorError,
    as_exact,
    binomial_coeff,
    decimal_string,
    format_rational,
    make_rational,
    parse_rational,
    shared_prefix_decimal,
)
from .verify import CheckResult, VerificationReport, WorkerError, verify_theorem

__version__ = "0.1.0"
