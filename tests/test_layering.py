"""One production path: nothing under ``src/repro`` reaches into the tests.

The reference implementations the engine is checked against — the
per-tuple d-tree, exact lineage counting, the Fig. 5 semantics, the row
pipeline and possible-worlds enumeration — live in ``tests/oracles/``.  The
engine may never import them back, or a second path would creep into
``src/`` behind a reference's name.
"""

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent
FORBIDDEN = ("oracles", "tests")


def imported_modules(tree):
    """Every module an ``import`` or ``from ... import`` statement names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module


def test_no_module_imports_the_oracles_or_the_tests():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 50  # the whole package, not an empty glob
    offenders = [
        f"{path.relative_to(PACKAGE.parent)}: {name}"
        for path in modules
        for name in imported_modules(ast.parse(path.read_text(), filename=str(path)))
        if name.split(".")[0] in FORBIDDEN
    ]
    assert offenders == []


def test_the_check_sees_a_forbidden_import():
    tree = ast.parse("import json\nfrom oracles.rows import RowEngine\nimport tests.helpers\n")
    assert list(imported_modules(tree)) == ["json", "oracles.rows", "tests.helpers"]
