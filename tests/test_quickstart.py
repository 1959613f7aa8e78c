"""The README's quick start: generate a small dataset, then score it; and the
spread experiment script, end to end."""

import os
import subprocess
import sys
from pathlib import Path

import influence_engine
from influence_engine.cli import main
from influence_engine.hierarchy import load_snapshot
from influence_engine.ingest import INPUT_FILES

ROOT = Path(__file__).resolve().parent.parent


def generate_demo(root: Path) -> Path:
    """The README's 60-user dataset, made by its script; returns its config."""
    src = Path(influence_engine.__file__).parents[1]
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "generate_dataset.py"), str(root / "demo"),
         "--users", "60", "--seed", "1"],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 0, done.stderr
    return root / "demo" / "config.json"


def test_generated_dataset_scores(tmp_path):
    config = generate_demo(tmp_path)
    out = tmp_path / "demo-out"
    assert main(["all", "--config", str(config), "--out", str(out)]) == 0
    assert load_snapshot(out / "snapshot.txt").entries


def test_a_run_over_empty_input_files_completes(tmp_path, capsys):
    # nobody is scored, so evaluation has fewer than 10 users to rank and
    # warns, where the run used to fail in evaluate, and the campaign targets none
    config = generate_demo(tmp_path)
    for name in INPUT_FILES:
        (config.parent / name).write_text("")
    out = tmp_path / "demo-out"
    assert main(["all", "--config", str(config), "--out", str(out)]) == 0
    assert "warning\ttoo-few-users\tshared=0" in capsys.readouterr().out.splitlines()
    assert not load_snapshot(out / "snapshot.txt").entries
    assert (out / "eval_report.txt").read_text().splitlines() == ["latent_spearman\trho=nan"]
    assert "targeted=0" in (out / "campaign_report.txt").read_text().splitlines()[0].split("\t")


def test_spread_experiment_runs(tmp_path):
    src = Path(influence_engine.__file__).parents[1]
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_spread_experiment.py"), "--users", "150",
         "--campaign-seeds", "2", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 0, done.stderr
    assert "latent recovery: Spearman rho = " in done.stdout
    assert "campaign seed 1: monotone_fraction=" in done.stdout
    assert (tmp_path / "out" / "campaign_report.txt").is_file()
