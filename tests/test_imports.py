"""Every import in the package is used, re-exported in ``__all__``, or marked ``# noqa: F401``."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "pocbounds").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by imports that are neither referenced nor in ``__all__``, unless marked."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {
        element.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for element in node.value.elts
    }
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.partition(".")[0]
            if name not in used:
                unused.append(f"line {node.lineno}: {name}")
    return unused


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_no_dead_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_a_dead_import():
    source = "from typing import NamedTuple, Sequence\nfrom x import y  # noqa: F401\n\nclass T(NamedTuple):\n    a: int\n"
    assert unused_imports(source) == ["line 1: Sequence"]
    assert unused_imports("import os.path\nos.sep\n__all__ = ['json']\nimport json\n") == []
