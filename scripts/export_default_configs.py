#!/usr/bin/env python3
"""Regenerate configs/registry.json, configs/tree.json and
configs/run.example.json from code.

The checked-in configs are derived artifacts; rerun this after changing
the default registry, the shipped score-tree shape or the example config.
"""

import json
from pathlib import Path

from influence_engine.population import desk_tree
from influence_engine.registry import default_registry

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

EXAMPLE = {
    "input_dir": "/path/to/inputs",
    "registry": "registry.json",
    "tree": "tree.json",
    "reference_time": 1_700_000_000,
    "seed": 0,
    "prior_snapshot": None,
}


def export(directory: Path) -> None:
    directory.mkdir(exist_ok=True)
    registry = default_registry()
    registry.save(directory / "registry.json")
    tree = desk_tree(tuple(registry.scorable_networks()))
    (directory / "tree.json").write_text(json.dumps(tree, indent=2) + "\n")
    (directory / "run.example.json").write_text(json.dumps(EXAMPLE, indent=2) + "\n")


def main() -> None:
    export(CONFIGS)
    for name in ("registry.json", "tree.json", "run.example.json"):
        print(f"wrote {CONFIGS / name}")


if __name__ == "__main__":
    main()
