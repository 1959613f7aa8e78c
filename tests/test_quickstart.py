"""The README's quick start: generate a small dataset, then score it; and the
spread experiment script, end to end."""

import os
import subprocess
import sys
from pathlib import Path

import influence_engine
from influence_engine.cli import main
from influence_engine.hierarchy import load_snapshot

ROOT = Path(__file__).resolve().parent.parent


def test_generated_dataset_scores(tmp_path):
    src = Path(influence_engine.__file__).parents[1]
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "generate_dataset.py"), str(tmp_path / "demo"),
         "--users", "60", "--seed", "1"],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 0, done.stderr
    out = tmp_path / "demo-out"
    assert main(["all", "--config", str(tmp_path / "demo" / "config.json"), "--out", str(out)]) == 0
    assert load_snapshot(out / "snapshot.txt").entries


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
