"""In-memory span tracer installed around binomedian's public functions.

The library is not edited.  `Tracer.install()` wraps every public function
of the layer modules and the public methods of `IntPolynomial`, and rebinds
each wrapped name in every `binomedian` module namespace that holds it,
because `cli` and `verify` import functions such as `isolate_root` or
`certify_range` by name.  Each call records one span (name, start, end,
parent) in flat arrays; `layer_metrics()` derives per-layer metrics from
them and `dump()` writes them out once the run is over.

Generator functions (`pmf_sequence`) are left unwrapped: a span around one
would close before the consumer iterates, so their work stays in the
caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter_ns

LAYERS = ("rational", "polynomial", "distribution", "median", "critical", "verify", "cli")

_CERTIFY_RANGE = "critical.certify_range"
_ISOLATE_ROOT = "critical.isolate_root"
_SCALED_VALUE = "polynomial.scaled_value"

#: Span names and the fields reported for each, as `<name>.<field>`.
REPORTED = (
    (_CERTIFY_RANGE, ("calls", "self_s")),
    (_ISOLATE_ROOT, ("calls", "self_s")),
    (_SCALED_VALUE, ("calls", "self_s")),
    ("critical.critical_poly", ("calls", "self_s")),
    ("critical.cdf_polynomial", ("calls", "self_s")),
    ("critical.monotonicity_check", ("self_s",)),
    ("critical.symmetry_identity_check", ("calls", "self_s")),
    ("critical.derivative_identity_check", ("calls", "self_s")),
    ("polynomial.compose_one_minus_x", ("calls", "self_s")),
    ("median.median_binomial", ("calls", "self_s")),
    ("distribution.cdf", ("calls", "self_s")),
    ("distribution.pmf", ("calls", "self_s")),
    ("polynomial.evaluate", ("calls", "self_s")),
    ("rational.decimal_string", ("self_s",)),
    ("rational.format_rational", ("self_s",)),
    ("cli.main", ("calls", "self_s")),
    ("verify.verify_theorem", ("self_s",)),
)

#: Every metric `layer_metrics()` returns, in report order.
METRIC_NAMES = tuple(f"{name}.{what}" for name, fields in REPORTED for what in fields) + (
    f"{_CERTIFY_RANGE}.sign_evals",
    f"{_CERTIFY_RANGE}.candidates",
    f"{_ISOLATE_ROOT}.sign_evals_per_call",
    f"{_SCALED_VALUE}.max_result_bits",
)


def _public_functions(module) -> dict[str, object]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    out = {}
    for name in names:
        fn = getattr(module, name)
        if (
            inspect.isfunction(fn)
            and fn.__module__ == module.__name__
            and not inspect.isgeneratorfunction(fn)
        ):
            out[name] = fn
    return out


class Tracer:
    """Records one span per wrapped call; single-threaded use only."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack: list[int] = []
        self.max_result_bits = 0
        self.candidates = 0
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, observe=None):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        stack, ids, starts, ends, parents = (
            self._stack, self.name_id, self.start, self.end, self.parent,
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _observe_scaled_value(self, value: int) -> None:
        bits = abs(value).bit_length()
        if bits > self.max_result_bits:
            self.max_result_bits = bits

    def _observe_certify_range(self, certificates) -> None:
        for cert in certificates:
            self.candidates += len(getattr(cert.status, "excluded_candidates", ()))

    def install(self) -> None:
        """Wrap the layer functions and rebind them wherever they are bound."""
        observers = {
            _SCALED_VALUE: self._observe_scaled_value,
            _CERTIFY_RANGE: self._observe_certify_range,
        }
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"binomedian.{layer}")
            for name, fn in _public_functions(module).items():
                span = f"{layer}.{name}"
                wrappers[id(fn)] = self._wrap(span, fn, observers.get(span))
        polynomial = sys.modules["binomedian.polynomial"]
        cls = polynomial.IntPolynomial
        for name, fn in list(vars(cls).items()):
            if not name.startswith("_") and inspect.isfunction(fn):
                span = f"polynomial.{name}"
                self._restore.append((cls, name, fn))
                setattr(cls, name, self._wrap(span, fn, observers.get(span)))
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "binomedian" or modname.startswith("binomedian.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original binding back."""
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls, self time and counters derived from the spans."""
        count = len(self.start)
        durations = [e - s for s, e in zip(self.start, self.end)]
        child_ns = [0] * count
        # bit 1: inside certify_range, bit 2: inside isolate_root
        under = [0] * count
        marks = {self._ids.get(_CERTIFY_RANGE): 1, self._ids.get(_ISOLATE_ROOT): 2}
        names, parents = self.name_id, self.parent
        for i in range(count):
            p = parents[i]
            if p >= 0:
                child_ns[p] += durations[i]
                under[i] = under[p] | marks.get(names[p], 0)
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i in range(count):
            calls[names[i]] += 1
            self_ns[names[i]] += durations[i] - child_ns[i]
        sv = self._ids.get(_SCALED_VALUE)
        sign_evals = [0, 0, 0, 0]
        for i in range(count):
            if names[i] == sv:
                sign_evals[under[i]] += 1

        def stat(name: str, what: str) -> float:
            nid = self._ids.get(name)
            if nid is None:
                return 0
            return calls[nid] if what == "calls" else self_ns[nid] / 1e9

        out: dict[str, float] = {}
        for name, fields in REPORTED:
            for what in fields:
                out[f"{name}.{what}"] = stat(name, what)
        isolate_calls = stat(_ISOLATE_ROOT, "calls")
        out[f"{_CERTIFY_RANGE}.sign_evals"] = sign_evals[1] + sign_evals[3]
        out[f"{_CERTIFY_RANGE}.candidates"] = self.candidates
        out[f"{_ISOLATE_ROOT}.sign_evals_per_call"] = (
            (sign_evals[2] + sign_evals[3]) / isolate_calls if isolate_calls else 0
        )
        out[f"{_SCALED_VALUE}.max_result_bits"] = self.max_result_bits
        return out

    def dump(self, path: Path) -> None:
        """Write the spans: one JSON header line, then four int64 arrays."""
        header = {
            "names": self.names,
            "count": len(self.start),
            "arrays": ["name_id", "start_ns", "end_ns", "parent"],
            "dtype": f"int64 {sys.byteorder}-endian",
            "clock": "time.perf_counter_ns",
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.name_id, self.start, self.end, self.parent):
                column.tofile(fh)
