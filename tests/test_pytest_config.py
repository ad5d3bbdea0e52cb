"""The repository's pytest settings report a failing property test like any other failure."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

TWO_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_failing_property_test_does_not_abort_the_run(tmp_path):
    # Hypothesis's failure report imports libcst, which warns that
    # mypy_extensions.TypedDict is deprecated.  Under warnings-as-errors that
    # warning must stay filtered, or the failure becomes an INTERNALERROR:
    # exit 3, no falsifying example, later tests not run.
    path = tmp_path / "test_two.py"
    path.write_text(TWO_TESTS, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(REPO / "pyproject.toml"), "-p", "no:cacheprovider", "-q", str(path)],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
