"""The library computes nothing in floating point (README, first section).

Every module of `src/binomedian` is parsed with `ast` and searched for the
ways a float can enter: float literals, `float(...)` calls, `math`
functions other than the exact integer ones, and `.random()` /
`.uniform()` draws.  The one float the library makes is the battery's
wall time, so `time.*` is allowed only inside `verify.verify_theorem`.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "binomedian"
EXACT_MATH = {"comb", "isqrt", "gcd"}
FLOAT_DRAWS = {"random", "uniform"}
WALL_CLOCK = ("verify", "verify_theorem")


def float_uses(source: str, module: str) -> list[str]:
    """One "module:line what" entry per float entry point in `source`."""
    found = []

    def visit(node: ast.AST, function: str | None) -> None:
        if isinstance(node, ast.FunctionDef):
            function = node.name
        where = f"{module}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"{where} literal {node.value!r}")
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "float":
                found.append(f"{where} float()")
            elif isinstance(func, ast.Attribute) and func.attr in FLOAT_DRAWS:
                found.append(f"{where} .{func.attr}()")
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            owner, attr = node.value.id, node.attr
            if owner == "math" and attr not in EXACT_MATH:
                found.append(f"{where} math.{attr}")
            elif owner == "time" and (module, function) != WALL_CLOCK:
                found.append(f"{where} time.{attr}")
        elif isinstance(node, ast.ImportFrom) and node.module in ("math", "time"):
            names = {alias.name for alias in node.names}
            if node.module == "time" or names - EXACT_MATH:
                found.append(f"{where} from {node.module} import {', '.join(sorted(names))}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_library_has_no_float_entry_point():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 8
    found = [
        use for path in modules for use in float_uses(path.read_text(), path.stem)
    ]
    assert found == []


@pytest.mark.parametrize(
    "planted",
    [
        "x = 0.5",
        "x = 1e-9",
        "x = float(y)",
        "x = math.sqrt(y)",
        "x = math.log2(y)",
        "from math import sqrt",
        "x = rng.random()",
        "x = rng.uniform(0, 1)",
        "x = time.perf_counter()",
    ],
)
def test_planted_float_is_found(planted):
    source = (SRC / "median.py").read_text() + "\n\ndef planted(y, rng):\n    " + planted + "\n"
    assert float_uses(source, "median") != []


def test_wall_clock_is_allowed_only_in_verify_theorem():
    source = "def verify_theorem():\n    start = time.perf_counter()\n"
    assert float_uses(source, "verify") == []
    assert float_uses(source, "critical") != []
    assert float_uses(source.replace("verify_theorem", "_check"), "verify") != []
