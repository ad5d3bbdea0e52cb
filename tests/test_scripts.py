"""The experiment scripts under ``scripts/`` run end to end on small inputs."""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

from pocbounds.cli import main

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


def test_run_demo_matches_the_command_line(monkeypatch, tmp_path, capsys):
    demo = load_script("run_demo")
    monkeypatch.setattr(demo, "OUT_DIR", tmp_path / "demo")
    demo.main()
    out = capsys.readouterr().out
    assert "A1_5: [" in out
    assert {p.name for p in (tmp_path / "demo").iterdir()} == {"report.json", "bounds.svg", "bounds.svg.json"}

    # The docstring's equivalent command writes the same report and chart.
    cli_dir = tmp_path / "cli"
    cli_dir.mkdir()
    argv = [
        "--input", str(REPO / "tests" / "data" / "table_mirror_n1769.csv"),
        "--y-col", "y", "--s-col", "s", "--d-col", "d", "--stratum-col", "course",
        "--seed", "7", "--reps", "1000", "--format", "json",
        "--output", str(cli_dir / "report.json"), "--plot-out", str(cli_dir / "bounds.svg"),
    ]
    assert main(argv) == 0
    for name in ("report.json", "bounds.svg", "bounds.svg.json"):
        assert (tmp_path / "demo" / name).read_bytes() == (cli_dir / name).read_bytes(), name


def test_latent_fixture_generator_reproduces_the_committed_file(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends tests/
    generator = load_script("make_latent_fixtures")
    monkeypatch.setattr(generator, "OUT_PATH", tmp_path / "latent_fixtures.txt")
    generator.main()
    assert capsys.readouterr().out == f"wrote 6 records to {generator.OUT_PATH}\n"
    committed = REPO / "tests" / "data" / "latent_fixtures.txt"
    assert generator.OUT_PATH.read_bytes() == committed.read_bytes()
