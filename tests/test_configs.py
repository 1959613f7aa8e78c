"""The shipped configs under configs/ are the source of the default setup."""

import json
from pathlib import Path

from influence_engine.hierarchy import load_tree
from influence_engine.pipeline import RunConfig
from influence_engine.registry import FeatureRegistry

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_shipped_tree_leaves_are_the_scorable_networks():
    leaves = load_tree(CONFIGS / "tree.json").leaf_networks()
    assert sorted(leaves) == FeatureRegistry.load(CONFIGS / "registry.json").scorable_networks()
    assert len(leaves) == len(set(leaves))


def test_example_run_config_loads():
    cfg = RunConfig.from_file(CONFIGS / "run.example.json")
    assert cfg.registry_path == CONFIGS / "registry.json"
    assert cfg.tree_path == CONFIGS / "tree.json"
    example = json.loads((CONFIGS / "run.example.json").read_text())
    assert (cfg.reference_time, cfg.seed) == (example["reference_time"], example["seed"])
