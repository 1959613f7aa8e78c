#!/usr/bin/env python3
"""Materialize a synthetic input set with known latent influence.

Writes event/profile/edge/label files plus the matching registry, score
tree, latent ground truth, and a ready-to-run pipeline config.
"""

import argparse
import json
from pathlib import Path

from influence_engine.population import (
    PopulationParams,
    generate_population,
    write_dataset,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out", type=Path, help="dataset directory to create")
    parser.add_argument("--users", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--label-pairs", type=int, default=2000)
    parser.add_argument("--label-flip-rate", type=float, default=0.0)
    parser.add_argument("--mean-reactions", type=float, default=50.0)
    args = parser.parse_args()

    params = PopulationParams(
        n_users=args.users,
        label_pairs=args.label_pairs,
        label_flip_rate=args.label_flip_rate,
        mean_reactions_per_user=args.mean_reactions,
    )
    pop = generate_population(params, seed=args.seed)
    dataset = write_dataset(pop, args.out)

    config = {
        "input_dir": ".",
        "registry": "registry.json",
        "tree": "tree.json",
        "reference_time": params.reference_time,
        "seed": args.seed,
        "latent": "latent.txt",
        "population": "population.json",
    }
    (dataset / "config.json").write_text(json.dumps(config, indent=2) + "\n")
    print(f"wrote {args.users}-user dataset to {dataset}")
    print(f"run:   influence-score all --config {dataset / 'config.json'} --out <outdir>")


if __name__ == "__main__":
    main()
