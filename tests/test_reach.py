"""Every function and class in the library has a caller outside the unit tests.

The callers that count are the library itself, the scripts, the acceptance
criteria and the benchmark tracer's targets.  A name that only unit tests
use is code that no command runs: delete it, or move it into the tests that
need it as an oracle.  Names are collected from the AST, so a mention in a
docstring or comment does not count as a use.  A method or property counts
as reached only through an attribute access (x.name) or a tracer target
naming it with its class ("CharTable.value"), so a function of the same name
elsewhere does not keep it alive.
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
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _tree(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def used_names() -> tuple[set[str], set[str]]:
    """(names, attributes) that the callers and the tracer use.

    names: every name, attribute and import in the callers, plus every part
    of the tracer's dotted target strings such as "symfunc.CharTable.value".
    attributes: the attribute accesses in the callers, plus every adjacent
    pair of parts of those strings ("symfunc.CharTable", "CharTable.value").
    """
    names: set[str] = set()
    attributes: set[str] = set()
    for path in CALLERS:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.split(".")[-1])
    for node in ast.walk(_tree(TRACER)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and DOTTED.match(node.value):
            parts = node.value.split(".")
            names.update(parts)
            attributes.update(f"{a}.{b}" for a, b in zip(parts, parts[1:]))
    return names, attributes


def unreached(path: Path, names: set[str], attributes: set[str]) -> list[str]:
    """The definitions in one library module that nothing reaches."""
    tree = _tree(path)
    methods = {id(node): f"{cls.name}.{node.name}"
               for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for node in cls.body if isinstance(node, DEFS)}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, DEFS) or (
                node.name.startswith("__") and node.name.endswith("__")):
            continue
        qualified = methods.get(id(node))
        if qualified is None:
            reached = node.name in names
        else:
            reached = node.name in attributes or qualified in attributes
        if not reached:
            out.append(f"{path.stem}.{qualified or node.name}")
    return out


def test_every_library_name_has_a_caller_outside_the_unit_tests():
    names, attributes = used_names()
    assert [name for path in LIBRARY
            for name in unreached(path, names, attributes)] == []


def test_a_method_is_not_reached_through_a_function_of_its_name(tmp_path):
    # a function is_real called by name leaves the method is_real unreached;
    # an attribute access or a tracer target "Class.method" reaches a method
    module = tmp_path / "values.py"
    module.write_text("def is_real():\n    pass\n\n\n"
                      "class Value:\n"
                      "    def is_real(self):\n        pass\n\n"
                      "    def conjugate(self):\n        pass\n\n"
                      "    def to_json(self):\n        pass\n")
    names = {"is_real", "Value", "conjugate", "to_json"}
    attributes = {"conjugate", "Value.to_json"}
    assert unreached(module, names, attributes) == ["values.Value.is_real"]
