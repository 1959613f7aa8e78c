"""Byte-level guard on the files the engine writes.

Two days of one fixed synthetic population: a first run with graph
attributes on every network, then a day-2 run with the first run's
snapshot as prior, so all three cohorts fire. The sha256 digests of
every feature, model and snapshot file are pinned below, so a refactor
that moves a single byte fails in tier 1 and not only in the benchmark.
"""

import hashlib
import json

from influence_engine.events import SECONDS_PER_DAY
from influence_engine.pipeline import RunConfig, run_pipeline
from influence_engine.population import PopulationParams, generate_population, write_dataset

GOLDEN = {
    "day1/features/maxima.txt": "3b86b8674eeec4b961d81194568b556a2690c3a0fcd0895ac69579cf1c0e8238",
    "day1/features/normalized_features.txt": "a57656d36f5026bc4c46ddca3c797e469fb6fa8ebc7a14def739b8dbc97c3125",
    "day1/features/raw_features.txt": "21ef61530f07a6010405df38f331dfa4889fc48e336968874af5f2e753006d75",
    "day1/models/fb.model": "63950278f499c916b05a27f1bcb0bfe5ceb34ef7a03a0117d9382a32a80b6fb6",
    "day1/models/ig.model": "05919983de4993c8caf6886b91f51b45af588e53321790ef7b383a327194930f",
    "day1/models/tw.model": "58e0adaf0982603db31181c8a60074c7283be19492e68ba285b3504eb579b066",
    "day1/snapshot.txt": "859c905f5f1d7f8ca114b2c69a1e8b1125d30a2a69967c4ff93c715d034cbfde",
    "day2/features/maxima.txt": "0f23663ab2ac99d46afb64c2710b148563a937e9145d5f47619a61347444d9a5",
    "day2/features/normalized_features.txt": "06988939bf5ee0aed89fd759297c5fa7fd5a56118f9a6b8a7a36b1d74336a8f5",
    "day2/features/raw_features.txt": "11d21e4dc0b8c6239e277d3541b5a3cdeb5bdaf5689b86419045ee98beb1f3a0",
    "day2/models/fb.model": "e124c68306462500dd94a183e90ad9bc390a75afaf1acecb03d350dfb447c771",
    "day2/models/ig.model": "457e0fd1d8c32d32c09f5672e1531e321c4db4590a901a8540c0f29303de95a8",
    "day2/models/tw.model": "fafeb85603a3e89e0bdf38f3ab90a87de45406ae0e6e234c5df5d3a50deec247",
    "day2/snapshot.txt": "6fed5ec1868456868d4aaf7d2344396dd205ece85724943530c5dced02c21f25",
}


def _digests(out):
    files = [*out.glob("features/*.txt"), *out.glob("models/*.model"), out / "snapshot.txt"]
    return {
        f"{out.name}/{p.relative_to(out).as_posix()}": hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(files)
    }


def run_two_days(root):
    params = PopulationParams(n_users=120, label_pairs=240, mean_reactions_per_user=20.0)
    dataset = write_dataset(generate_population(params, seed=5), root / "dataset")
    registry = json.loads((dataset / "registry.json").read_text())
    for spec in registry["networks"].values():
        spec["longlasting_attrs"] += ["inlinks", "pagerank", "inlink_outlink_ratio"]
    (dataset / "registry.json").write_text(json.dumps(registry))

    day1 = RunConfig(
        input_dir=dataset,
        registry_path=dataset / "registry.json",
        tree_path=dataset / "tree.json",
        reference_time=params.reference_time,
    )
    day2 = RunConfig(
        input_dir=dataset,
        registry_path=dataset / "registry.json",
        tree_path=dataset / "tree.json",
        reference_time=params.reference_time + SECONDS_PER_DAY,
        prior_snapshot=root / "day1" / "snapshot.txt",
    )
    run_pipeline(day1, root / "day1")
    run_pipeline(day2, root / "day2")
    return {**_digests(root / "day1"), **_digests(root / "day2")}


def test_outputs_match_pinned_digests(tmp_path):
    assert run_two_days(tmp_path) == GOLDEN
