"""The shipped configs are derived from code by scripts/export_default_configs.py."""

from pathlib import Path

from influence_engine.hierarchy import load_tree
from influence_engine.registry import FeatureRegistry, default_registry

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_shipped_registry_matches_default_registry():
    assert FeatureRegistry.load(CONFIGS / "registry.json") == default_registry()


def test_shipped_tree_leaves_are_the_scorable_networks():
    leaves = load_tree(CONFIGS / "tree.json").leaf_networks()
    assert sorted(leaves) == default_registry().scorable_networks()
    assert len(leaves) == len(set(leaves))
