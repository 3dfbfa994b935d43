"""Exact medians of binomial distributions at rational p.

Everything runs in exact rational and integer arithmetic, with no floating
point anywhere: pmf/CDF evaluation, median classification, certified
enclosures of the critical probabilities where the median degenerates to
an interval, and per-instance certificates that each such probability is
irrational (or exactly 1/2 at the odd middle index).

The package namespace is lazy (PEP 562): `import binomedian` loads no
submodule, and each name below is read from the submodule that owns it
when it is used, so a launch loads only what its command runs.

`WorkerError` is the one name the package defines itself.  `verify` raises
it and `cli` catches it, and every launch loads the package, so `cli` can
name it without loading `verify`.
"""

import importlib

__version__ = "0.1.0"


class WorkerError(RuntimeError):
    """A worker process of `verify.ordered_map` died before returning its results."""


_EXPORTS = {
    "critical": (
        "DEFAULT_WIDTH",
        "Bracket",
        "ExactRational",
        "ExactRoot",
        "FalsificationError",
        "IrrationalBySymmetry",
        "IrrationalityCertificate",
        "IrrationalUpperHalf",
        "RootEnclosure",
        "certify",
        "certify_range",
        "critical_poly",
        "isolate_root",
    ),
    "distribution": ("BinomialParams", "ParameterError", "cdf", "pmf", "pmf_sequence", "survival"),
    "median": ("MedianInterval", "MedianResult", "UniqueMedian", "median_binomial"),
    "polynomial": ("IntPolynomial",),
    "rational": (
        "RationalParseError",
        "ZeroDenominatorError",
        "as_exact",
        "decimal_string",
        "format_rational",
        "parse_rational",
        "shared_prefix_decimal",
    ),
    "verify": ("CheckResult", "VerificationReport", "verify_theorem"),
}

__all__ = ["WorkerError", *(name for names in _EXPORTS.values() for name in names)]


def _lazy_namespace(namespace: dict, exports: dict, submodules: tuple = ()):
    """PEP 562 `__getattr__` and `__dir__` for the module whose globals are
    `namespace`.

    `exports` maps a submodule of this package to the names read from it;
    `submodules` names submodules that resolve to themselves.  A name is
    looked up in its owner at every access and never stored in `namespace`,
    so a rebinding in the owner (a monkeypatch, or a tracer's wrapper and
    its removal) shows through at once.
    """
    owners = {name: owner for owner, names in exports.items() for name in names}

    def __getattr__(name: str):
        if name in submodules:
            return importlib.import_module(f"{__name__}.{name}")
        if name in owners:
            return getattr(importlib.import_module(f"{__name__}.{owners[name]}"), name)
        raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted({*namespace, *owners, *submodules})

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_namespace(globals(), _EXPORTS, tuple(_EXPORTS))
