"""The experiment scripts under ``scripts/`` and the README's quick start run end to end."""

import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def run_python(args):
    """Run ``python *args`` from the repo root with ``src/`` on the path."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], cwd=REPO, env=env, capture_output=True, text=True, timeout=120)


def test_coverage_study_runs():
    proc = run_python([str(REPO / "scripts" / "coverage_study.py"), "3", "300", "20"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "true interval: [0.1060, 0.1630]"
    coverage = r"coverage at n=300, reps=20, level=0.9: LB [01]\.\d{3} \(se 0\.\d{3}\), UB [01]\.\d{3} \(se 0\.\d{3}\) \(\d failed trials\)"
    assert re.fullmatch(coverage, lines[1])
    assert re.fullmatch(r"log-width vs log-n slope: -?\d\.\d{3} \(root-n decay is -0\.5\)", lines[2])


def test_readme_quick_start_runs():
    # The README's one ``python`` block, run as a script from the repo root.
    block = re.search(r"^```python\n(.*?)^```$", (REPO / "README.md").read_text(), re.S | re.M)
    proc = run_python(["-c", block.group(1)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    # The last line, the oracle's endpoints, prints as a pair of Python floats.
    assert re.fullmatch(r"\(0\.\d+, 0\.\d+\)", proc.stdout.splitlines()[-1])
    # Every printed value is a plain Python one, as compute_bounds' are.
    assert "np.float64(" not in proc.stdout
    assert "np.False_" not in proc.stdout
