"""Every function and class in the package has a caller outside the tests.

A name counts as used when code, not a string or docstring, refers to it:
in another package module, in its own module outside its definition, in a
demo or in the benchmark harness. The harness's tracer also looks up each
``(module, attribute)`` pair of ``LAYER_FUNCTIONS`` with ``getattr``, so
those pairs count as uses too. A private name (one leading underscore) needs
a caller in the package itself.
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


def definitions(private: bool) -> list[tuple[str, str, ast.AST, ast.Module]]:
    """Module-level functions and classes, public or private; dunders are neither."""
    found = []
    for path in PACKAGE:
        tree = parse(path)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("__"):
                continue
            if node.name.startswith("_") == private:
                found.append((path.stem, node.name, node, tree))
    return found


def package_references(module: str, definition: ast.AST, tree: ast.Module) -> set[str]:
    """Names referred to in the package outside ``definition`` itself."""
    own_module = [node for node in tree.body if node is not definition]
    other_modules = [parse(path) for path in PACKAGE if path.stem != module]
    return referenced_names(own_module) | referenced_names(other_modules)


DEFINITIONS = definitions(private=False)
PRIVATE_DEFINITIONS = definitions(private=True)
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
    used = (
        name in package_references(module, definition, tree)
        or name in OUTSIDE_REFERENCES
        or (module, name) in TRACED
    )
    assert used, f"expseries.{module}.{name} is called only by tests; delete it"


def test_scan_sees_the_private_helpers():
    names = {name for _, name, _, _ in PRIVATE_DEFINITIONS}
    assert {"_tail_error", "_require_finite", "_overflow_names", "_reduced_sine"} <= names
    assert not any(name.startswith("__") for name in names)


@pytest.mark.parametrize(
    "module, name, definition, tree",
    PRIVATE_DEFINITIONS,
    ids=[f"{module}.{name}" for module, name, _, _ in PRIVATE_DEFINITIONS],
)
def test_private_name_has_a_caller_in_the_package(module, name, definition, tree):
    assert name in package_references(module, definition, tree), (
        f"expseries.{module}.{name} has no caller in the package; delete it"
    )
