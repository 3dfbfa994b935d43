"""Command-line surface: exact binomial medians, critical probabilities,
irrationality certificates, and the verification battery.

Every subcommand writes a single JSON document (or CSV body) to stdout;
diagnostics go to stderr only.  Identical invocations produce byte-identical
output.  Exit codes: 0 success, 1 verification failure, 2 usage error or a
dead worker process (`binomedian.WorkerError`).  `table`
prints each certificate's enclosure, bisected when printed; a lower
row reflects its partner's, so only the upper half is.

A launch imports only what its command runs.  `median`, `cdf` and `pmf`
load `distribution`, `median` and `rational`; the handlers of `critical` and
`certify` import `critical` (with `polynomial`), and those of `table` and
`verify` import `verify` as well, when they run.  `--threads` > 1 loads the
process pool inside `ordered_map`, `verify` loads `hashlib` for its seeded
streams, and `table` loads `csv`.  Besides the package, every launch loads
`argparse`, `json` and `fractions` with their own imports, and nothing else:
the records are plain frozen classes, so neither `dataclasses` (with
`inspect`, `ast`, `dis` and `tokenize`) nor `typing` is loaded.  Fresh
launches run to exit in these medians of 40 alternating launches by
tools/launch_times.py (2-core Intel Xeon, CPython 3.11.7), without bytecode
caches and with them: `median` 72 and 53 ms, `cdf` 77 and 54, `pmf` 64 and
58, `critical` 75 and 60, `certify` 65 and 61, `table --n-max 20` 78 and
73, `verify --n-max 28` 93 and 105.  The host's speed drifts by about 15%
between such runs, which is more than the caches save on `verify`.

Each input is checked once, before any work, by the library function that
uses it; its ValueError prints as one `error:` line with exit 2.  Only
`--digits`, `--threads` and `table`'s `--n-max` are checked here: no library
function sees them before its work.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import WorkerError, _lazy_namespace
from .distribution import BinomialParams, cdf, pmf
from .median import median_binomial
from .rational import decimal_string, format_rational, parse_rational

# `critical` loads when a command that runs it does; `cli.isolate_root` has one
# reader, perfbench/test_perfbench.py::TestTracer::test_uninstall_restores_bindings
__getattr__, __dir__ = _lazy_namespace(globals(), {"critical": ("isolate_root",)})

DEFAULT_DIGITS = 30


class CliError(Exception):
    """Usage-level failure; its message becomes the one-line diagnostic."""


def _emit(document: object) -> None:
    sys.stdout.write(json.dumps(document, separators=(",", ":")) + "\n")


def _width_for(digits: int) -> Fraction:
    return Fraction(1, 10 ** (digits + 5))


def _check_digits(digits: int) -> int:
    if digits < 1:
        raise CliError("digits must be >= 1")
    return digits


def _thread_count(text: str) -> int:
    if text == "auto":
        return sys.maxsize  # `ordered_map` caps it at the CPUs available to the process
    try:
        value = int(text)
    except ValueError:
        raise CliError(f"invalid thread count {text!r}") from None
    if value < 1:
        raise CliError("threads must be >= 1")
    return value


def cmd_median(args: argparse.Namespace) -> int:
    result = median_binomial(args.n, parse_rational(args.p))
    _emit(result.to_json_dict())
    return 0


def _point_value(args: argparse.Namespace, fn) -> int:
    params = BinomialParams(args.n, parse_rational(args.p))
    value = fn(args.k, params)
    _emit(
        {
            "rational": format_rational(value),
            "decimal": decimal_string(value, DEFAULT_DIGITS),
        }
    )
    return 0


def cmd_pmf(args: argparse.Namespace) -> int:
    return _point_value(args, pmf)


def cmd_cdf(args: argparse.Namespace) -> int:
    return _point_value(args, cdf)


def cmd_critical(args: argparse.Namespace) -> int:
    from .critical import isolate_root

    digits = _check_digits(args.digits)
    enclosure = isolate_root(args.n, args.k, _width_for(digits))
    _emit(enclosure.to_json_dict(digits))
    return 0


def cmd_certify(args: argparse.Namespace) -> int:
    from .critical import certify

    certificate = certify(args.n, args.k)
    _emit(certificate.to_json_dict(DEFAULT_DIGITS))
    return 0


_TABLE_COLUMNS = ("n", "k", "kind", "value", "lo", "hi", "decimal")


def _table_rows_for_n(task: tuple[int, Fraction, int]) -> list[dict]:
    from .critical import ExactRoot, certify_range

    n, width, digits = task
    rows = []
    for cert in certify_range(n, width):
        enclosure = cert.status.enclosure
        doc = enclosure.to_json_dict(digits)
        if isinstance(enclosure, ExactRoot):
            doc["decimal"] = decimal_string(enclosure.root, digits)
        rows.append(
            {
                "n": n,
                "k": cert.k,
                "kind": doc["type"],
                "value": doc.get("root"),
                "lo": doc.get("lo"),
                "hi": doc.get("hi"),
                "decimal": doc["decimal"],
            }
        )
    return rows


def cmd_table(args: argparse.Namespace) -> int:
    from .verify import ordered_map

    if args.n_max < 1:
        raise CliError("n-max must be >= 1")
    digits = _check_digits(args.digits)
    threads = _thread_count(args.threads)
    width = _width_for(digits)
    tasks = [(n, width, digits) for n in range(1, args.n_max + 1)]
    groups = ordered_map(_table_rows_for_n, tasks, threads)
    rows = [row for group in groups for row in group]
    if args.format == "json":
        _emit(rows)
    else:
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(_TABLE_COLUMNS)
        for row in rows:
            writer.writerow(["" if row[c] is None else row[c] for c in _TABLE_COLUMNS])
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import verify_theorem

    digits = _check_digits(args.digits)
    threads = _thread_count(args.threads)
    report = verify_theorem(
        args.n_max,
        denom_max=args.denom_max,
        width=_width_for(digits),
        seed=args.seed,
        threads=threads,
    )
    sys.stdout.write(report.to_json() + "\n")
    print(
        f"verify: n <= {args.n_max}, {'pass' if report.passed else 'FAIL'} "
        f"in {report.wall_time:.2f}s",
        file=sys.stderr,
    )
    return 0 if report.passed else 1


_THREADS_HELP = (
    'worker processes, or "auto"; at most one per task and one per CPU '
    "available to the process"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binomedian",
        description="Exact binomial medians, certified critical probabilities, "
        "and per-instance irrationality certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "median",
        help="classify the median of B(n, p)",
        description="Cost: O(min(np, n(1-p))) steps of the binomial weight "
        "recurrence, on integers of about n*log2(b) bits at p = a/b.",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", required=True, help='rational "A/B" or integer "A"')
    p.set_defaults(handler=cmd_median)

    for name, text, cost in (
        ("pmf", "P(X = k)", "one binomial coefficient and three powers"),
        ("cdf", "P(X <= k)", "O(min(k, n-k)) steps of the binomial weight recurrence"),
    ):
        p = sub.add_parser(
            name,
            help=f"exact {text} for B(n, p)",
            description=f"Cost: {cost}, on integers of about n*log2(b) bits at p = a/b.",
        )
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--p", required=True, help='rational "A/B" or integer "A"')
        p.set_defaults(handler=cmd_pmf if name == "pmf" else cmd_cdf)

    p = sub.add_parser(
        "critical",
        help="certified enclosure of one critical probability",
        description="Cost, measured: grows about like n^1.5 in n (1000 to 8000, "
        "mostly fixed-point Horner passes) and D^1.4 in the digit count D "
        "(800 to 6400).",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--digits", type=int, default=DEFAULT_DIGITS)
    p.set_defaults(handler=cmd_critical)

    p = sub.add_parser(
        "table",
        help="all critical probabilities up to n-max",
        description="Cost, measured: grows about like n-max^3.1 "
        "(n-max 50 to 200); only the upper half of each n is bisected.",
    )
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--digits", type=int, default=DEFAULT_DIGITS)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--threads", default="1", help=_THREADS_HELP)
    p.set_defaults(handler=cmd_table)

    p = sub.add_parser(
        "certify",
        help="irrationality certificate for one (n, k)",
        description="Cost, measured: grows about like n^1.8 (n = 1000 to 16000, "
        "in-process on a 2-core Intel Xeon, Python 3.11.7). Below the middle "
        "index the reflection check reads the derivative of the polynomial and "
        "its partner, O(n) steps each, so k matters little: at n = 2000, "
        "k = 100 takes 15 ms and k = 800 22 ms.",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=cmd_certify)

    p = sub.add_parser(
        "verify",
        help="run the full theorem battery up to n-max",
        description="Cost, measured: grows about like n-max^2.8 "
        "(n-max 80 to 320, in-process on a 2-core Intel Xeon, Python 3.11.7). "
        "The monotonicity check's root isolation at a coarse width, two signs "
        "next to Kerman's start per root, takes about a third; the "
        "certificates about a quarter; building each n's polynomials, once "
        "for all checks, about a sixth; the identity checks, one derivative "
        "per polynomial, about a seventh; and the median sweep about a tenth.",
    )
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--denom-max", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--digits", type=int, default=DEFAULT_DIGITS)
    p.add_argument("--threads", default="1", help=_THREADS_HELP)
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # exact results can run to many thousands of digits: print them in full
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.handler(args)
    except (CliError, ValueError, WorkerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
