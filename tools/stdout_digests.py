"""One sha256 of (argv, exit code, stdout) per CLI request, then a total.

    python3 tools/stdout_digests.py > digests.txt

Run from the root of a checkout: `binomedian` is imported from ./src and
the `queries` and `deep` request lists from ./perfbench/workloads.py, so the same
script run in two checkouts prints two files whose `diff` names every argv
whose stdout or exit code changed.  Each request runs in-process through
`binomedian.cli.main`; stderr is discarded, since it carries timings.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys

sys.path[:0] = ["src", "perfbench"]

from binomedian import cli  # noqa: E402
from workloads import requests  # noqa: E402

FIXED = [
    ["verify", "--n-max", "40", "--denom-max", "200", "--seed", "7", "--threads", "1"],
    ["verify", "--n-max", "40", "--denom-max", "200", "--seed", "7", "--threads", "2"],
    ["table", "--n-max", "25", "--format", "json", "--digits", "8"],
    ["table", "--n-max", "12", "--threads", "auto"],
    ["table", "--n-max", "8", "--threads", "2", "--format", "json"],
    ["critical", "--n", "100", "--k", "60", "--digits", "400"],
    # the Halley start at large n, at its extreme indices, and at thousands of digits
    *[["critical", "--n", str(n), "--k", str(3 * n // 5)] for n in (1000, 4000, 16000)],
    *[["critical", "--n", "4000", "--k", str(k)] for k in (1, 2, 3999, 4000)],
    *[
        ["critical", "--n", n, "--k", k, "--digits", "3200"]
        for n, k in [("2", "1"), ("4", "1"), ("7", "3"), ("100", "60")]
    ],
    ["table", "--n-max", "60", "--digits", "60", "--format", "json"],
    ["certify", "--n", "16000", "--k", "800"],
    ["certify", "--n", "70", "--k", "50"],
    ["certify", "--n", "70", "--k", "10"],
    # the odd middle at scale, the pair check at the lowest index, one-digit battery
    ["certify", "--n", "4001", "--k", "2001"],
    ["certify", "--n", "4000", "--k", "1"],
    ["verify", "--n-max", "30", "--digits", "1"],
    # each certificate status through `certify`, and the battery with no sweep draws
    ["certify", "--n", "9", "--k", "5"],
    ["certify", "--n", "9", "--k", "7"],
    ["verify", "--n-max", "6", "--denom-max", "1"],
    # out-of-range inputs: exit 2 with empty stdout
    ["median", "--n", "4", "--p", "5/3"],
    ["median", "--n", "-1", "--p", "1/2"],
    ["pmf", "--n", "-1", "--k", "0", "--p", "1/2"],
    ["cdf", "--n", "-1", "--k", "0", "--p", "1/2"],
    ["critical", "--n", "2", "--k", "3"],
    ["certify", "--n", "2", "--k", "3"],
    ["critical", "--n", "0", "--k", "1"],
    ["certify", "--n", "0", "--k", "1"],
    ["verify", "--n-max", "0"],
    ["verify", "--n-max", "3", "--denom-max", "0"],
    ["table", "--n-max", "3", "--threads", "0"],
    ["verify", "--n-max", "3", "--threads", "0"],
]
SEEDS = (7, 8)


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def main() -> None:
    argvs = FIXED + [
        argv
        for workload in ("queries", "deep")
        for seed in SEEDS
        for argv in requests(workload, seed)
    ]
    total = hashlib.sha256()
    for argv in argvs:
        code, out = run(argv)
        digest = hashlib.sha256(json.dumps([argv, code, out]).encode()).hexdigest()
        total.update(digest.encode())
        print(digest, " ".join(argv))
    print(total.hexdigest(), f"total over {len(argvs)} argvs")


if __name__ == "__main__":
    main()
