"""The library's twelve records behave as frozen dataclasses did: equality
only within one class, the dataclass hash and repr, no assignment, and
pickling, copying and keyword construction that round-trip."""

import copy
import pickle
from fractions import Fraction

import pytest

from binomedian.critical import (
    Bracket,
    ExactRational,
    ExactRoot,
    IrrationalBySymmetry,
    IrrationalityCertificate,
    IrrationalUpperHalf,
    critical_poly,
)
from binomedian.distribution import BinomialParams
from binomedian.median import MedianInterval, UniqueMedian
from binomedian.polynomial import IntPolynomial
from binomedian.verify import CheckResult, VerificationReport
from helpers import HALF

WIDTH = Fraction(1, 10**6)
UPPER = IrrationalUpperHalf(5, 4, critical_poly(5, 4), WIDTH)
UPPER_REPR = "IrrationalUpperHalf(n=5, k=4, width=Fraction(1, 1000000))"
CHECK = CheckResult("median_sweep", 3, "n=2 p=1/3 median 0 contradicted")
CHECK_REPR = (
    "CheckResult(name='median_sweep', instances=3, "
    "counterexample='n=2 p=1/3 median 0 contradicted')"
)

#: (class, fields in constructor order, repr)
RECORDS = [
    (ExactRoot, {"root": HALF}, "ExactRoot(root=Fraction(1, 2))"),
    (Bracket, {"lo": Fraction(1, 3), "hi": HALF}, "Bracket(lo=Fraction(1, 3), hi=Fraction(1, 2))"),
    (ExactRational, {}, "ExactRational()"),
    (
        IrrationalUpperHalf,
        {"n": 5, "k": 4, "poly": critical_poly(5, 4), "width": WIDTH},
        UPPER_REPR,
    ),
    (
        IrrationalBySymmetry,
        {"partner_k": 4, "partner": IrrationalityCertificate(5, 4, UPPER)},
        f"IrrationalBySymmetry(partner_k=4, partner=IrrationalityCertificate(n=5, k=4, status={UPPER_REPR}))",
    ),
    (
        IrrationalityCertificate,
        {"n": 5, "k": 3, "status": ExactRational()},
        "IrrationalityCertificate(n=5, k=3, status=ExactRational())",
    ),
    (BinomialParams, {"n": 5, "p": Fraction(2, 7)}, "BinomialParams(n=5, p=Fraction(2, 7))"),
    (UniqueMedian, {"m": Fraction(2)}, "UniqueMedian(m=Fraction(2, 1))"),
    (
        MedianInterval,
        {"m1": Fraction(1), "m2": Fraction(2)},
        "MedianInterval(m1=Fraction(1, 1), m2=Fraction(2, 1))",
    ),
    (IntPolynomial, {"coeffs": (1, -2)}, "IntPolynomial(coeffs=(1, -2))"),
    (
        CheckResult,
        {"name": "median_sweep", "instances": 3,
         "counterexample": "n=2 p=1/3 median 0 contradicted"},
        CHECK_REPR,
    ),
    (
        VerificationReport,
        {"n_range": (1, 3), "denom_max": 20, "width": WIDTH, "seed": 4,
         "checks": (CHECK,), "wall_time": 0.25},
        "VerificationReport(n_range=(1, 3), denom_max=20, width=Fraction(1, 1000000), "
        f"seed=4, checks=({CHECK_REPR},), wall_time=0.25)",
    ),
]


@pytest.mark.parametrize("cls, fields, shown", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_behaves_as_a_frozen_dataclass(cls, fields, shown):
    record = cls(**fields)
    values = tuple(fields.values())
    assert record == cls(*values) and not record != cls(*values)
    assert [getattr(record, name) for name in fields] == list(values)
    # type-strict: no other record, nor the bare field tuple, compares equal
    others = [other(**other_fields) for other, other_fields, _ in RECORDS if other is not cls]
    assert all(record != other for other in others)
    assert record != values
    assert hash(record) == hash(values)
    assert repr(record) == shown
    for name in (*fields, "unknown"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(twin) is cls and twin == record and repr(twin) == shown



def test_facts_that_hold_at_every_index_are_class_attributes():
    # the odd middle's root, and the upper half's constant and sign at 1/2,
    # are the same for every (n, k), so no instance stores them
    assert ExactRational().root == HALF and type(ExactRational.root) is Fraction
    for status in (UPPER, IrrationalUpperHalf):
        assert status.constant_coeff == 1 and status.sign_at_half == 1
    assert UPPER.to_json_dict()["constant_coeff"] == "1"
    assert UPPER.to_json_dict()["sign_at_half"] == "1"
    assert ExactRational().to_json_dict() == {"type": "exact_rational", "root": "1/2"}
    assert ExactRational().enclosure == ExactRoot(HALF)


@pytest.mark.parametrize("counterexample", [None, "", "n=2 p=1/3 median 0 contradicted"])
def test_check_result_passes_exactly_without_a_counterexample(counterexample):
    check = CheckResult("median_sweep", 3, counterexample)
    assert check.passed is (counterexample is None)
    assert check.to_json_dict()["passed"] is check.passed
    with pytest.raises(AttributeError):
        check.passed = True
