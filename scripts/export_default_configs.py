#!/usr/bin/env python3
"""Regenerate configs/registry.json and configs/tree.json from code.

The checked-in configs are derived artifacts; rerun this after changing
the default registry or the shipped score-tree shape.
"""

import json
from pathlib import Path

from influence_engine.hierarchy import parse_tree, save_tree
from influence_engine.registry import default_registry

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def default_tree(registry) -> dict:
    scorable = sorted(registry.scorable_networks())
    return {
        "node_id": "root",
        "combiner": "l2-norm",
        "heuristic_basis": "graph_size",
        "children": [
            {"node_id": name, "combiner": "supervised-dot", "network": name}
            for name in scorable
        ],
    }


def main() -> None:
    CONFIGS.mkdir(exist_ok=True)
    registry = default_registry()
    registry.save(CONFIGS / "registry.json")
    save_tree(parse_tree(default_tree(registry)), CONFIGS / "tree.json")

    example = {
        "input_dir": "/path/to/inputs",
        "registry": "registry.json",
        "tree": "tree.json",
        "reference_time": 1_700_000_000,
        "seed": 0,
        "prior_snapshot": None,
        "holdout_fraction": 0.2,
    }
    (CONFIGS / "run.example.json").write_text(json.dumps(example, indent=2) + "\n")
    for name in ("registry.json", "tree.json", "run.example.json"):
        print(f"wrote {CONFIGS / name}")


if __name__ == "__main__":
    main()
