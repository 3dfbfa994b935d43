"""The README's examples run as written.

The `python` block under "## Library" is executed, and every
`$ binomedian ...` example under "## CLI" whose printed line shows the
whole output (no `...`) is run through `cli.main` and compared with that
line byte for byte.  A README that names a removed function or shows a
stale output fails here.
"""

import re
import shlex
from pathlib import Path

import pytest

from binomedian import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced_block(heading: str, language: str) -> str:
    """The first ```language block after the line `heading`."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def cli_examples() -> list[tuple[list[str], str]]:
    """(argv, printed line) for each complete `$ binomedian` example."""
    lines = fenced_block("## CLI", "sh").splitlines()
    examples = []
    for command, printed in zip(lines, lines[1:] + [""]):
        if not command.startswith("$ binomedian "):
            continue
        if not printed or printed.startswith("$") or "..." in printed:
            continue
        examples.append((shlex.split(command[2:], comments=True)[1:], printed))
    return examples


EXAMPLES = cli_examples()


def test_library_block_runs():
    exec(compile(fenced_block("## Library", "python"), "README.md", "exec"), {})


def test_cli_examples_are_found():
    assert [argv[0] for argv, _ in EXAMPLES] == ["median", "median", "pmf"]


@pytest.mark.parametrize("argv,printed", EXAMPLES, ids=[" ".join(argv) for argv, _ in EXAMPLES])
def test_cli_example_prints_its_line(capsys, argv, printed):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == printed + "\n"
