"""Every public function and class in the package has a caller outside the tests.

A name counts as used when code, not a string or docstring, refers to it:
in another package module, in its own module outside its definition, in a
demo or in the benchmark harness. The harness's tracer also looks up each
``(module, attribute)`` pair of ``LAYER_FUNCTIONS`` with ``getattr``, so
those pairs count as uses too.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "expseries").glob("*.py"))
OUTSIDE = sorted([*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")])


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def referenced_names(nodes) -> set[str]:
    """Names that appear as a variable or an attribute anywhere under ``nodes``."""
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
    return names


def traced_layers() -> set[tuple[str, str]]:
    """The ``(module, attribute)`` pairs the tracer fetches with ``getattr``."""
    for node in parse(ROOT / "perfbench" / "tracer.py").body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "LAYER_FUNCTIONS"
            for target in node.targets
        ):
            return {(row.elts[0].value, row.elts[1].value) for row in node.value.elts}
    raise AssertionError("perfbench/tracer.py defines no LAYER_FUNCTIONS")


def public_definitions() -> list[tuple[str, str, ast.AST, ast.Module]]:
    found = []
    for path in PACKAGE:
        tree = parse(path)
        for node in tree.body:
            is_definition = isinstance(node, (ast.FunctionDef, ast.ClassDef))
            if is_definition and not node.name.startswith("_"):
                found.append((path.stem, node.name, node, tree))
    return found


DEFINITIONS = public_definitions()
OUTSIDE_REFERENCES = referenced_names(parse(path) for path in OUTSIDE)
TRACED = traced_layers()


def test_scan_sees_the_package():
    names = {name for _, name, _, _ in DEFINITIONS}
    assert {"DirichletSeries", "evaluate", "expand", "blocked_set", "main"} <= names


@pytest.mark.parametrize(
    "module, name, definition, tree",
    DEFINITIONS,
    ids=[f"{module}.{name}" for module, name, _, _ in DEFINITIONS],
)
def test_public_name_has_a_caller(module, name, definition, tree):
    own_module = [node for node in tree.body if node is not definition]
    other_modules = [parse(path) for path in PACKAGE if path.stem != module]
    used = (
        name in referenced_names(own_module)
        or name in referenced_names(other_modules)
        or name in OUTSIDE_REFERENCES
        or (module, name) in TRACED
    )
    assert used, f"expseries.{module}.{name} is called only by tests; delete it"
