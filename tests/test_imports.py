"""Every import in the package, in ``scripts/`` and in ``tests/`` is used.

Used means referenced, re-exported in ``__all__``, or marked ``# noqa: F401``.

The benchmark's tracer looks names up in the package, so they are checked here too, and so
is that no module but ``bounds.py``, in the package or in the tests, tells the assumption sets
apart by member.
"""

import ast
import dataclasses
import importlib.util
from pathlib import Path

import pytest

from pocbounds import AssumptionSet
from pocbounds.cli import build_parser
from pocbounds.inference import BootstrapResult

REPO = Path(__file__).resolve().parents[1]
SOURCES = sorted((REPO / "src" / "pocbounds").glob("*.py"))
# Package modules keep their bare file names as test ids; the rest are named by their directory.
SCRIPTS_AND_TESTS = sorted((REPO / "scripts").glob("*.py")) + sorted((REPO / "tests").glob("*.py"))


def marked(node: ast.stmt, lines: list[str]) -> bool:
    """Whether a line of the statement carries ``# noqa: F401``."""
    return any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno])


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
        if marked(node, lines):
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


def assumption_member_comparisons(source: str, exempt: tuple[str, ...] = ()) -> list[str]:
    """Comparisons that test which ``AssumptionSet`` member a value is, instead of reading its flags.

    These are ``is``, ``is not``, ``==`` and ``!=`` against a member, ``in`` and
    ``not in`` a literal holding one, and a ``case`` on one, outside the classes
    named in ``exempt``.
    """

    def members(node):
        elements = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
        return any(
            isinstance(e, ast.Attribute) and e.attr in AssumptionSet.__members__
            and ast.unparse(e.value).rpartition(".")[2] == "AssumptionSet"
            for e in elements
        )

    tree = ast.parse(source)
    skipped = {
        line
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name in exempt
        for line in range(node.lineno, node.end_lineno + 1)
    }
    found = []
    for node in ast.walk(tree):
        if getattr(node, "lineno", None) in skipped:
            continue
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            hits = any(
                isinstance(op, (ast.Is, ast.IsNot, ast.Eq, ast.NotEq)) and (members(left) or members(right))
                or isinstance(op, (ast.In, ast.NotIn)) and members(right)
                for left, op, right in zip(operands, node.ops, operands[1:])
            )
        else:
            hits = isinstance(node, ast.MatchValue) and members(node.value)
        if hits:
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def test_checker_flags_an_assumption_member_comparison():
    source = (
        "if a is AssumptionSet.A1_3 or b != bounds.AssumptionSet.A1_5 or c in (x, AssumptionSet.A1_4):\n"
        "    pass\n"
        "match a:\n"
        "    case AssumptionSet.A1_4:\n"
        "        pass\n"
    )
    assert assumption_member_comparisons(source) == [
        "line 1: a is AssumptionSet.A1_3",
        "line 1: b != bounds.AssumptionSet.A1_5",
        "line 1: c in (x, AssumptionSet.A1_4)",
        "line 4: AssumptionSet.A1_4",
    ]
    # Passing a member as a value, reading a flag and testing membership in a variable are fine.
    ok = "f(AssumptionSet.A1_3)\nif a.a4 and not a.a5 and a in requested:\n    x = a == b\n"
    assert assumption_member_comparisons(ok) == []
    # An exempt class is skipped whole; the code around it is not.
    pins = "class Pins:\n    def test(self):\n        assert a is AssumptionSet.A1_3\nb == AssumptionSet.A1_4\n"
    assert assumption_member_comparisons(pins, exempt=("Pins",)) == ["line 4: b == AssumptionSet.A1_4"]


def test_package_reads_assumption_flags_not_members():
    # bounds.py defines the flags of each member; everywhere else, the tests included, reads a.a4
    # or a.a5.  Only TestAssumptionFlags pins the members themselves.
    found = {
        str(path.relative_to(REPO)): assumption_member_comparisons(
            path.read_text(encoding="utf-8"), exempt=("TestAssumptionFlags",) if path.name == "test_bounds.py" else ()
        )
        for path in SOURCES + sorted((REPO / "tests").glob("*.py"))
        if path.name != "bounds.py"
    }
    assert {name: hits for name, hits in found.items() if hits} == {}


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


def marked_imports(source: str) -> list[str]:
    """Names bound by the imports that ``# noqa: F401`` exempts from the dead-import check."""
    lines = source.splitlines()
    return [
        alias.asname or alias.name.partition(".")[0]
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Import, ast.ImportFrom)) and marked(node, lines)
        for alias in node.names
    ]


def test_marked_imports_are_ones_the_tracer_patches():
    # An import kept only by ``# noqa: F401`` must be a name the benchmark's tracer patches in that
    # module; once the tracer drops it, this flags the import that can go.
    assert marked_imports("import os\nfrom x import (\n    y as z,  # noqa: F401\n    w,\n)\nos.sep\n") == ["z", "w"]
    tracer = load_benchmark_module("tracer")
    patched = {(owner, attr) for owner, attr, _ in tracer.SPANNED + tracer.COUNTED}
    found = {
        ("pocbounds" if path.stem == "__init__" else f"pocbounds.{path.stem}", name)
        for path in SOURCES
        for name in marked_imports(path.read_text(encoding="utf-8"))
    }
    assert sorted(found - patched) == []


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


def test_benchmark_workloads_run_and_check(tmp_path):
    # Tier-1 does not run the benchmark, so a name its workloads or their
    # checks read off the package, once gone, would fail only the benchmark.
    workloads = load_benchmark_module("workloads")
    bulk = load_benchmark_module("bulk_input").generate(tmp_path / "bulk.csv", seed=0, rows=2_000, strata=5)
    for workload in (
        workloads.SharpnessMc(seed=0, sample_rows=200),
        workloads.FixtureCli(REPO, tmp_path, seed=0, reps=20),
        workloads.BulkPooled(tmp_path, seed=0, expected=bulk, reps=20),
    ):
        workload.check(workload.run(0))
