"""Every module-level function or class of the package is used or exported."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "midas"
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _referenced(tree):
    """Names read, imported or named in a string annotation anywhere in ``tree``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            names |= _referenced(ast.parse(annotation.value, mode="eval"))
    return names


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno


def test_scan_covers_the_package():
    assert len(SOURCES) >= 9


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unreferenced_definitions(path):
    # __init__.py is part of the scan, so a name it re-exports counts as referenced.
    used = set().union(*(_referenced(_parse(p)) for p in PACKAGE.glob("*.py")))
    unused = [f"{path.name}:{line} {name}" for name, line in _definitions(_parse(path))
              if name not in used]
    assert not unused, f"defined but neither used in the package nor exported: {unused}"
