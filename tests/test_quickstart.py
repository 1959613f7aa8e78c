"""The README's quick start: generate a small dataset, then score it; and the
spread experiment script, end to end."""

import os
import re
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


def test_a_repeated_attribute_that_sums_to_inf_is_refused(tmp_path):
    # two valid 1e308 values of one attribute add up to inf, which the features
    # stage used to normalize to nan and then fail on (exit 3); ingest now
    # refuses such a profile, both as a canonical line and as one it decodes
    config = generate_demo(tmp_path)
    profiles = config.parent / "profiles.txt"
    lines = profiles.read_text().splitlines()
    twice = "\tn:followers={0}\tn:followers={0}"
    for i, value in ((0, "1e+308"), (1, "1e308")):  # "1e308" is not repr(1e308): the line is decoded
        lines[i], n = re.subn("\tn:followers=[^\t]*", twice.format(value), lines[i], count=1)
        assert n == 1
    profiles.write_text("\n".join(lines) + "\n")
    out = tmp_path / "demo-out"
    assert main(["all", "--config", str(config), "--out", str(out)]) == 0
    report = (out / "ingest" / "load_report.txt").read_text().split()
    assert "rejected.profile-overflow=2" in report and "malformed=0" in report


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
