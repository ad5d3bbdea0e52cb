"""The experiment scripts under ``scripts/`` and the README's quick start run end to end."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, REPO / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_coverage_study_runs(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends tests/
    load_script("coverage_study").run(3, 300, 20)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "true interval: [0.1060, 0.1630]"
    coverage = r"coverage at n=300, reps=20, level=0.9: LB [01]\.\d{3} \(se 0\.\d{3}\), UB [01]\.\d{3} \(se 0\.\d{3}\) \(\d failed trials\)"
    assert re.fullmatch(coverage, lines[1])
    assert re.fullmatch(r"log-width vs log-n slope: -?\d\.\d{3} \(root-n decay is -0\.5\)", lines[2])


def test_latent_fixture_generator_reproduces_the_committed_file(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends tests/
    generator = load_script("make_latent_fixtures")
    monkeypatch.setattr(generator, "OUT_PATH", tmp_path / "latent_fixtures.txt")
    generator.main()
    assert capsys.readouterr().out == f"wrote 6 records to {generator.OUT_PATH}\n"
    committed = REPO / "tests" / "data" / "latent_fixtures.txt"
    assert generator.OUT_PATH.read_bytes() == committed.read_bytes()


def test_readme_quick_start_runs():
    # The README's one ``python`` block, run as a script from the repo root.
    block = re.search(r"^```python\n(.*?)^```$", (REPO / "README.md").read_text(), re.S | re.M)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", block.group(1)], cwd=REPO, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    # The last line, the oracle's endpoints, prints as a pair of Python floats.
    assert re.fullmatch(r"\(0\.\d+, 0\.\d+\)", proc.stdout.splitlines()[-1])
    # Every printed value is a plain Python one, as compute_bounds' are.
    assert "np.float64(" not in proc.stdout
    assert "np.False_" not in proc.stdout
