"""Every function and class in the library has a caller outside the unit tests.

The callers that count are the library itself, the scripts, the acceptance
criteria and the benchmark tracer's targets.  A name that only unit tests
use is code that no command runs: delete it, or move it into the tests that
need it as an oracle.  Names are collected from the AST, so a mention in a
docstring or comment does not count as a use.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "uqchar").glob("*.py"))
CALLERS = [*LIBRARY, *sorted((ROOT / "scripts").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py"]
TRACER = ROOT / "perfbench" / "tracer.py"
DOTTED = re.compile(r"^[A-Za-z_]\w*(\.[A-Za-z_]\w*)+$")


def _tree(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def used_names() -> set[str]:
    """Names, attributes and imports in the callers, plus every part of the
    tracer's dotted target strings such as "symfunc.CharTable.value"."""
    names: set[str] = set()
    for path in CALLERS:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.split(".")[-1])
    for node in ast.walk(_tree(TRACER)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and DOTTED.match(node.value):
            names.update(node.value.split("."))
    return names


def test_every_library_name_has_a_caller_outside_the_unit_tests():
    used = used_names()
    unreached = [
        f"{path.stem}.{node.name}"
        for path in LIBRARY for node in ast.walk(_tree(path))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in used
        and not (node.name.startswith("__") and node.name.endswith("__"))]
    assert unreached == []
