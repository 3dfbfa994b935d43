"""Each decision that `critical`, `verify` and `cli` share has one home.

The modules of `src/binomedian` are parsed with `ast`.  The identity verdict
is `critical._identity_faults`, the one reader of `_derivative_matches`, so
the certificates and the battery cannot judge a polynomial apart; the
coefficients of P_{n,k} have one builder, `critical_poly`; and `cli` names
`binomedian.WorkerError` by import instead of looking for it in
`sys.modules`.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "binomedian"


def uses_of(source: str, name: str) -> list[str | None]:
    """The enclosing function of every read of `name` in `source`, as a plain
    name or as an attribute, so an alias counts as much as a call."""
    found = []

    def visit(node: ast.AST, function: str | None) -> None:
        if isinstance(node, ast.FunctionDef):
            function = node.name
        if (isinstance(node, ast.Name) and node.id == name) or (
            isinstance(node, ast.Attribute) and node.attr == name
        ):
            found.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def definitions(source: str) -> set[str]:
    """Every function, class and assigned name in `source`."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def sys_modules_reads(source: str) -> list[int]:
    """The line of every `sys.modules` in `source`, and of every `from sys import modules`."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "modules"
            and isinstance(node.value, ast.Name)
            and node.value.id == "sys"
        )
        or (
            isinstance(node, ast.ImportFrom)
            and node.module == "sys"
            and "modules" in {alias.name for alias in node.names}
        )
    ]


def source(module: str) -> str:
    return (SRC / f"{module}.py").read_text()


def test_verify_never_reads_the_derivative_check():
    assert uses_of(source("verify"), "_derivative_matches") == []


def test_only_the_identity_verdict_reads_the_derivative_check():
    assert uses_of(source("critical"), "_derivative_matches") == ["_identity_faults"]


def test_verify_reads_the_identity_verdict():
    assert uses_of(source("verify"), "_identity_faults") == ["_check_identities"]


def test_no_second_coefficient_builder():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 8
    assert [path.stem for path in modules if "_cdf_coeffs" in definitions(path.read_text())] == []


def test_cli_reads_no_sys_modules():
    assert sys_modules_reads(source("cli")) == []


@pytest.mark.parametrize(
    "planted",
    ["ok = critical._derivative_matches(poly, n, i)", "check = critical._derivative_matches"],
)
def test_planted_derivative_check_read_is_found(planted):
    text = source("verify") + "\n\ndef planted(poly, n, i):\n    " + planted + "\n"
    assert uses_of(text, "_derivative_matches") == ["planted"]


def test_planted_coefficient_builder_is_found():
    text = source("critical") + "\n\ndef _cdf_coeffs(n, j):\n    return []\n"
    assert "_cdf_coeffs" in definitions(text)


@pytest.mark.parametrize(
    "planted",
    ["verify = sys.modules.get('binomedian.verify')", "from sys import modules"],
)
def test_planted_sys_modules_read_is_found(planted):
    text = source("cli") + "\n\ndef planted():\n    " + planted + "\n"
    assert len(sys_modules_reads(text)) == 1
