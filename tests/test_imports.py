"""Every import in the package, in ``scripts/`` and in ``tests/`` is used.

Used means referenced, re-exported in ``__all__``, or marked ``# noqa: F401``.

The benchmark's tracer looks names up in the package, so they are checked here too.
"""

import ast
import dataclasses
import importlib.util
from pathlib import Path

import pytest

from pocbounds.cli import build_parser
from pocbounds.inference import BootstrapResult

REPO = Path(__file__).resolve().parents[1]
SOURCES = sorted((REPO / "src" / "pocbounds").glob("*.py"))
# Package modules keep their bare file names as test ids; the rest are named by their directory.
SCRIPTS_AND_TESTS = sorted((REPO / "scripts").glob("*.py")) + sorted((REPO / "tests").glob("*.py"))


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


@pytest.mark.parametrize(
    "path",
    SOURCES + SCRIPTS_AND_TESTS,
    ids=[path.name for path in SOURCES] + [f"{path.parent.name}/{path.name}" for path in SCRIPTS_AND_TESTS],
)
def test_no_dead_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def imported_modules(source: str) -> set[str]:
    """Every module an import statement names, at any depth of the file."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.add(node.module)
    return modules


def test_package_imports_no_scipy():
    # SciPy is a test dependency only: no file under src/ imports it, at any depth.
    assert imported_modules("import scipy.sparse\ndef f():\n    from scipy.optimize import milp\n") == {
        "scipy.sparse", "scipy.optimize",
    }
    found = {
        str(path.relative_to(REPO)): sorted(
            m for m in imported_modules(path.read_text(encoding="utf-8")) if m.partition(".")[0] == "scipy"
        )
        for path in (REPO / "src").rglob("*.py")
    }
    assert {name: modules for name, modules in found.items() if modules} == {}


def test_checker_flags_a_dead_import():
    source = "from typing import NamedTuple, Sequence\nfrom x import y  # noqa: F401\n\nclass T(NamedTuple):\n    a: int\n"
    assert unused_imports(source) == ["line 1: Sequence"]
    assert unused_imports("import os.path\nos.sep\n__all__ = ['json']\nimport json\n") == []


def load_benchmark_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", REPO / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_names_exist():
    # Tier-1 does not run the benchmark, whose tracer fails to install when a
    # name it patches is gone; its module imports the standard library only.
    tracer = load_benchmark_module("tracer")
    names = [(owner, attr) for owner, attr, _ in tracer.SPANNED + tracer.COUNTED]
    assert [f"{owner}.{attr}" for owner, attr in names if not hasattr(tracer._resolve(owner), attr)] == []
    # Its replicate counters read these fields off every bootstrap result.
    assert {"replications", "failed_replicates"} <= {f.name for f in dataclasses.fields(BootstrapResult)}


def test_benchmark_cli_flags_parse(tmp_path):
    # A flag the benchmark's command-line workloads pass that the parser no
    # longer knows would fail every one of their runs.
    workloads = load_benchmark_module("workloads")
    expected = {"path": str(tmp_path / "bulk.csv"), "rows": 0}
    for workload in (
        workloads.FixtureCli(REPO, tmp_path, seed=0, reps=2),
        workloads.BulkPooled(tmp_path, seed=0, expected=expected, reps=2),
    ):
        build_parser().parse_args(workload.argv)
