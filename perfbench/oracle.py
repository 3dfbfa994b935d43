"""Independent checks of the CLI's outputs, run untimed after each request.

Nothing here imports binomedian.  Every verdict rests on one integer kernel:
the sign of 2*sum_{i<=j} C(n,i) a^i (d-a)^(n-i) - d^n, which is the sign of
2*P(X <= j) - 1 for X ~ B(n, a/d).  The critical polynomial of (n, k) is
2*B(k-1; n, x) - 1, so a bracket [lo, hi] is proved by a positive sign at lo
and a negative sign at hi, and an exact root by a zero.  Each check returns
None when the output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

VERIFY_CHECKS = (
    "certificates",
    "monotonicity",
    "symmetry_identity",
    "derivative_identity",
    "median_sweep",
    "evaluation_consistency",
)

#: The CLI's --digits default.
DEFAULT_DIGITS = 30


def lower_tail_weight(n: int, j: int, a: int, d: int) -> int:
    """sum_{i<=j} C(n,i) a^i (d-a)^(n-i): d^n * P(X <= j) for X ~ B(n, a/d)."""
    j = min(j, n)
    if j < 0:
        return 0
    c = d - a
    acc, a_pow, binom = 0, 1, 1
    for i in range(j + 1):
        acc = acc * c + binom * a_pow
        a_pow *= a
        binom = binom * (n - i) // (i + 1)
    return acc * c ** (n - j)


def half_sign(n: int, j: int, x: Fraction) -> int:
    """Sign of 2*P(X <= j) - 1 for X ~ B(n, x), with 0 <= x <= 1."""
    a, d = x.numerator, x.denominator
    v = 2 * lower_tail_weight(n, j, a, d) - d**n
    return (v > 0) - (v < 0)


def _rational(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or 1))


def _decimal_places(text: str) -> int:
    return len(text.partition(".")[2])


def _rounded_ok(text: str, x: Fraction, digits: int) -> str | None:
    """text is x rounded to at most `digits` places."""
    places = _decimal_places(text)
    if places > digits or abs(Fraction(text) - x) * 2 * 10**places > 1:
        return f"decimal {text} is not {x} to {digits} places"
    return None


def _prefix_ok(text: str, lo: Fraction, hi: Fraction, digits: int) -> str | None:
    """text holds exactly the digits on which lo and hi agree, up to `digits`."""
    places = _decimal_places(text)
    scaled = Fraction(text) * 10**places
    if places > digits or scaled.denominator != 1:
        return f"decimal {text} has more than {digits} places"

    def cut(x: Fraction, d: int) -> int:
        return math.floor(x * 10**d)

    if cut(lo, places) != scaled or cut(hi, places) != scaled:
        return f"decimal {text} is not a shared prefix of the bracket"
    if places < digits and cut(lo, places + 1) == cut(hi, places + 1):
        return f"decimal {text} stops before the endpoints disagree"
    return None


def check_enclosure(n: int, k: int, doc: dict, digits: int) -> str | None:
    """A `critical` document: a proved bracket of width <= 10^-(digits+5),
    or an exact root of the critical polynomial of (n, k)."""
    where = f"n={n} k={k}"
    if doc.get("type") == "exact":
        root = _rational(doc["root"])
        if not 0 < root < 1 or half_sign(n, k - 1, root) != 0:
            return f"{where}: {doc['root']} is not a root"
        return None
    if doc.get("type") != "bracket":
        return f"{where}: unknown enclosure type {doc.get('type')!r}"
    lo, hi = _rational(doc["lo"]), _rational(doc["hi"])
    if not 0 < lo < hi < 1:
        return f"{where}: bracket [{doc['lo']}, {doc['hi']}] not ascending inside (0, 1)"
    if hi - lo > Fraction(1, 10 ** (digits + 5)):
        return f"{where}: bracket wider than 1e-{digits + 5}"
    if half_sign(n, k - 1, lo) <= 0 or half_sign(n, k - 1, hi) >= 0:
        return f"{where}: bracket [{doc['lo']}, {doc['hi']}] has no sign change"
    return _prefix_ok(doc["decimal"], lo, hi, digits)


def check_median(n: int, p: Fraction, doc: dict) -> str | None:
    """Unique m: P(X <= m-1) < 1/2 < P(X <= m).  Interval [m, m+1]:
    P(X <= m) = 1/2 exactly."""
    where = f"median n={n} p={p}"
    if doc.get("type") == "unique":
        m = _rational(doc["m"])
        if m.denominator != 1:
            return f"{where}: non-integer median {doc['m']}"
        m = int(m)
        if not (half_sign(n, m - 1, p) < 0 < half_sign(n, m, p)):
            return f"{where}: {m} is not the unique median"
        return None
    if doc.get("type") == "interval":
        m1, m2 = _rational(doc["m1"]), _rational(doc["m2"])
        if m1.denominator != 1 or m2 != m1 + 1 or half_sign(n, int(m1), p) != 0:
            return f"{where}: [{doc['m1']}, {doc['m2']}] is not the median interval"
        return None
    return f"{where}: unknown median type {doc.get('type')!r}"


def check_point(command: str, n: int, k: int, p: Fraction, doc: dict) -> str | None:
    """A `cdf` or `pmf` document against a direct math.comb sum."""
    a, d = p.numerator, p.denominator
    if command == "pmf":
        want = (
            Fraction(math.comb(n, k) * a**k * (d - a) ** (n - k), d**n)
            if 0 <= k <= n
            else Fraction(0)
        )
    else:
        want = Fraction(lower_tail_weight(n, k, a, d), d**n)
    got = _rational(doc["rational"])
    if got != want:
        return f"{command} n={n} k={k} p={p}: got {doc['rational']}"
    return _rounded_ok(doc["decimal"], want, 30)


def check_table(text: str, n_max: int, digits: int) -> str | None:
    """A `table` CSV: every (n, k) once in order, each row proved, and the
    enclosures ascending in k for each n."""
    rows = list(csv.DictReader(io.StringIO(text)))
    expected = [(n, k) for n in range(1, n_max + 1) for k in range(1, n + 1)]
    if [(int(r["n"]), int(r["k"])) for r in rows] != expected:
        return "table rows are not every (n, k) in order"
    previous = None
    for row in rows:
        n, k = int(row["n"]), int(row["k"])
        if row["kind"] == "exact":
            doc = {"type": "exact", "root": row["value"]}
            interval = (_rational(row["value"]),) * 2
            bad = _rounded_ok(row["decimal"], interval[0], digits)
        else:
            doc = {"type": "bracket", "lo": row["lo"], "hi": row["hi"], "decimal": row["decimal"]}
            interval = (_rational(row["lo"]), _rational(row["hi"]))
            bad = None
        bad = check_enclosure(n, k, doc, digits) or bad
        if bad is not None:
            return bad
        if k > 1 and not previous[1] < interval[0]:
            return f"n={n}: enclosures of k={k - 1} and k={k} are not ascending"
        previous = interval
    return None


def check_verify(text: str, n_max: int, denom_max: int, seed: int) -> str | None:
    """A `verify` report: passed, with all six checks present and passing."""
    doc = json.loads(text)
    names = [check["name"] for check in doc.get("checks", [])]
    if sorted(names) != sorted(VERIFY_CHECKS):
        return f"verify checks {names} are not the six expected"
    if doc.get("n_range") != [1, n_max] or doc.get("denom_max") != denom_max or doc.get("seed") != seed:
        return "verify report echoes the wrong configuration"
    failing = [check["name"] for check in doc["checks"] if check.get("passed") is not True]
    if failing or doc.get("passed") is not True:
        return f"verify did not pass: {failing}"
    return None


def _option(argv: list[str], name: str, default: int | None = None) -> int:
    if name not in argv and default is not None:
        return default
    return int(argv[argv.index(name) + 1])


def check(argv: list[str], exit_code: int, stdout: str) -> str | None:
    """Check one request's exit code and stdout; None when both are right."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    command = argv[0]
    try:
        if command == "verify":
            return check_verify(
                stdout, _option(argv, "--n-max"), _option(argv, "--denom-max"), _option(argv, "--seed")
            )
        if command == "table":
            return check_table(stdout, _option(argv, "--n-max"), _option(argv, "--digits", DEFAULT_DIGITS))
        doc = json.loads(stdout)
        n = _option(argv, "--n")
        if command == "critical":
            return check_enclosure(n, _option(argv, "--k"), doc, _option(argv, "--digits", DEFAULT_DIGITS))
        p = _rational(argv[argv.index("--p") + 1])
        if command == "median":
            return check_median(n, p, doc)
        if command in ("cdf", "pmf"):
            return check_point(command, n, _option(argv, "--k"), p, doc)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    return f"no oracle for command {command!r}"
