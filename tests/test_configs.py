"""The shipped configs are derived from code by scripts/export_default_configs.py."""

import runpy
from pathlib import Path

from influence_engine.hierarchy import load_tree
from influence_engine.pipeline import RunConfig
from influence_engine.registry import FeatureRegistry, default_registry

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
EXPORT = runpy.run_path(str(ROOT / "scripts" / "export_default_configs.py"))


def test_shipped_registry_matches_default_registry():
    assert FeatureRegistry.load(CONFIGS / "registry.json") == default_registry()


def test_shipped_tree_leaves_are_the_scorable_networks():
    leaves = load_tree(CONFIGS / "tree.json").leaf_networks()
    assert sorted(leaves) == default_registry().scorable_networks()
    assert len(leaves) == len(set(leaves))


def test_shipped_configs_are_what_the_export_script_writes(tmp_path):
    EXPORT["export"](tmp_path)
    for name in ("registry.json", "tree.json", "run.example.json"):
        assert (tmp_path / name).read_bytes() == (CONFIGS / name).read_bytes(), name


def test_example_run_config_loads():
    cfg = RunConfig.from_file(CONFIGS / "run.example.json")
    assert cfg.registry_path == CONFIGS / "registry.json"
    assert cfg.tree_path == CONFIGS / "tree.json"
    assert (cfg.reference_time, cfg.seed) == (
        EXPORT["EXAMPLE"]["reference_time"], EXPORT["EXAMPLE"]["seed"],
    )
