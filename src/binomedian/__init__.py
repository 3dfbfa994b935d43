"""Exact medians of binomial distributions at rational p.

Everything runs in exact rational and integer arithmetic, with no floating
point anywhere: pmf/CDF evaluation, median classification, certified
enclosures of the critical probabilities where the median degenerates to
an interval, and per-instance certificates that each such probability is
irrational (or exactly 1/2 at the odd middle index).

The package namespace is lazy (PEP 562): `import binomedian` loads no
submodule, and each name below is read from the submodule that owns it
when it is used, so a launch loads only what its command runs.

The worker pool is defined here, beside its failure type: `ordered_map`
runs the per-n tasks of `table` and `verify`, and raises `WorkerError` when a
worker dies, which `cli` catches.  Every launch loads the package, so `table`
runs its pool, and `cli` names the error, without loading the battery
(`verify`).  Of the names in `__all__`, `WorkerError` is the one the package
defines itself.
"""

import importlib
import os
import sys

__version__ = "0.1.0"


class WorkerError(RuntimeError):
    """A worker process of `ordered_map` died before returning its results."""


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def ordered_map(fn, tasks: list, threads: int) -> list:
    """[fn(task) for task in tasks], run in min(threads, len(tasks),
    _available_cpus()) worker processes when that exceeds 1.

    `threads` below 1 raises ValueError before any task runs; this is the
    one place it is checked.  A worker that dies raises WorkerError, chained
    from the pool's BrokenProcessPool.  The process pool is imported only
    here, so a caller that never runs more than one worker never loads
    `multiprocessing`.  Workers run under the caller's int/str digit limit:
    a worker started by `spawn` or `forkserver` would otherwise start from
    the interpreter default.
    """
    if threads < 1:
        raise ValueError("threads must be positive")
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
    "distribution": ("BinomialParams", "ParameterError", "cdf", "pmf"),
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
