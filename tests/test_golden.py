"""Byte-level guard on the files the engine writes.

Two days of one fixed synthetic population: a first run with graph
attributes on every network, which also evaluates against the latent truth
and simulates a campaign, then a day-2 run with the first run's snapshot as
prior, so all three cohorts fire. The sha256 digests of every file a run
writes but ``timings.txt`` (ingest's files, features, models, the snapshot,
the reports and the manifest) are pinned below, so a refactor that moves a
single byte fails in tier 1 and not only in the benchmark.

A third run scores the first day under ``tests/data/tree_three_level.json``:
an ``l2-norm`` root with explicit weights over an ``l2-norm`` node weighed by
``avg_node_degree`` and a ``supervised-dot`` node with explicit weights, one
of whose leaves shares its network with another leaf.
"""

import hashlib
import json
import shutil
from pathlib import Path

from influence_engine.events import SECONDS_PER_DAY
from influence_engine.pipeline import RunConfig, run_pipeline
from influence_engine.population import PopulationParams, generate_population, write_dataset

GOLDEN = {
    "day1/campaign_report.txt": "a5e7c88b9dbc453278ad2c603957b90b202376500e99c22875896944885a3395",
    "day1/eval_report.txt": "fc7fecf07451b609e77d2fc822a0fd71c11babbc99fb3a057f7e45821d104b0d",
    "day1/features/maxima.txt": "3b86b8674eeec4b961d81194568b556a2690c3a0fcd0895ac69579cf1c0e8238",
    "day1/features/normalized_features.txt": "a57656d36f5026bc4c46ddca3c797e469fb6fa8ebc7a14def739b8dbc97c3125",
    "day1/features/raw_features.txt": "21ef61530f07a6010405df38f331dfa4889fc48e336968874af5f2e753006d75",
    "day1/graph_stats.txt": "e4237a279e9055c558f6c41bd5d8256b234d2a36389647e54182295d853f57e6",
    "day1/ingest/edges.txt": "43f403bef6d3509bec9aa22d2f3f0c170f9e0ba6332d6f69de14b9dbbccd76fb",
    "day1/ingest/events.txt": "a2e9c7167ee48c15d02fa805ab60d5d4f0668cabe70ad313eeaa2b4bf7dbcf39",
    "day1/ingest/labels.txt": "20a70c68e2cb113076cb3566e1db026f0224f67e4789d3438b093c9b3f149716",
    "day1/ingest/load_report.txt": "b2dd06f09ec2ba563e6ea4b47a2ec4387f41424840292845e13a1e4a8cd93065",
    "day1/ingest/profiles.txt": "0c24de0fed6bc65f0b6f9606b7a09d4c0dba462c09ed08ebb9a7210724082a2d",
    "day1/manifest.txt": "429558f5c29f4d0d6abfa77d96ecc6b52628b5c180d3e6386103070f1109b034",
    "day1/model_report.txt": "27eeb37171191243d9cb1062770b84e368fc175694bc7edb0251f1979a76fd60",
    "day1/models/fb.model": "63950278f499c916b05a27f1bcb0bfe5ceb34ef7a03a0117d9382a32a80b6fb6",
    "day1/models/ig.model": "05919983de4993c8caf6886b91f51b45af588e53321790ef7b383a327194930f",
    "day1/models/tw.model": "58e0adaf0982603db31181c8a60074c7283be19492e68ba285b3504eb579b066",
    "day1/snapshot.txt": "859c905f5f1d7f8ca114b2c69a1e8b1125d30a2a69967c4ff93c715d034cbfde",
    "day2/features/maxima.txt": "0f23663ab2ac99d46afb64c2710b148563a937e9145d5f47619a61347444d9a5",
    "day2/features/normalized_features.txt": "06988939bf5ee0aed89fd759297c5fa7fd5a56118f9a6b8a7a36b1d74336a8f5",
    "day2/features/raw_features.txt": "11d21e4dc0b8c6239e277d3541b5a3cdeb5bdaf5689b86419045ee98beb1f3a0",
    "day2/graph_stats.txt": "e4237a279e9055c558f6c41bd5d8256b234d2a36389647e54182295d853f57e6",
    "day2/ingest/edges.txt": "43f403bef6d3509bec9aa22d2f3f0c170f9e0ba6332d6f69de14b9dbbccd76fb",
    "day2/ingest/events.txt": "23125137acb87e5f621901b6c573854fd15cebcb19b4a5b9a438abf3b43bb163",
    "day2/ingest/labels.txt": "20a70c68e2cb113076cb3566e1db026f0224f67e4789d3438b093c9b3f149716",
    "day2/ingest/load_report.txt": "bcf287dc35ef8cf7cfdb9611bce6837fbe24ca995a12b739707e81e07a55dec0",
    "day2/ingest/profiles.txt": "0c24de0fed6bc65f0b6f9606b7a09d4c0dba462c09ed08ebb9a7210724082a2d",
    "day2/manifest.txt": "91a01e0d2fc10f5adc3e2e47d1a85f5e2193930fe6aac96c3ed468a64c51fa5e",
    "day2/model_report.txt": "a4090a2f48f20f2bb2db24a382c55cd952788098a97c6dd7fb4bef7c4f5800ee",
    "day2/models/fb.model": "e124c68306462500dd94a183e90ad9bc390a75afaf1acecb03d350dfb447c771",
    "day2/models/ig.model": "457e0fd1d8c32d32c09f5672e1531e321c4db4590a901a8540c0f29303de95a8",
    "day2/models/tw.model": "fafeb85603a3e89e0bdf38f3ab90a87de45406ae0e6e234c5df5d3a50deec247",
    "day2/snapshot.txt": "6fed5ec1868456868d4aaf7d2344396dd205ece85724943530c5dced02c21f25",
}

GOLDEN_THREE_LEVEL = {
    "tree3/campaign_report.txt": "68ae21c33101b15394e83588ffe39bd7281afce0c57b2d69d1e4c7356bd2d5c9",
    "tree3/eval_report.txt": "315b57111bbd4d29c034c6c1910d0fdf11a4539ace1a1373a16c300fb526ce23",
    "tree3/features/maxima.txt": "3b86b8674eeec4b961d81194568b556a2690c3a0fcd0895ac69579cf1c0e8238",
    "tree3/features/normalized_features.txt": "a57656d36f5026bc4c46ddca3c797e469fb6fa8ebc7a14def739b8dbc97c3125",
    "tree3/features/raw_features.txt": "21ef61530f07a6010405df38f331dfa4889fc48e336968874af5f2e753006d75",
    "tree3/graph_stats.txt": "e4237a279e9055c558f6c41bd5d8256b234d2a36389647e54182295d853f57e6",
    "tree3/ingest/edges.txt": "43f403bef6d3509bec9aa22d2f3f0c170f9e0ba6332d6f69de14b9dbbccd76fb",
    "tree3/ingest/events.txt": "a2e9c7167ee48c15d02fa805ab60d5d4f0668cabe70ad313eeaa2b4bf7dbcf39",
    "tree3/ingest/labels.txt": "20a70c68e2cb113076cb3566e1db026f0224f67e4789d3438b093c9b3f149716",
    "tree3/ingest/load_report.txt": "b2dd06f09ec2ba563e6ea4b47a2ec4387f41424840292845e13a1e4a8cd93065",
    "tree3/ingest/profiles.txt": "0c24de0fed6bc65f0b6f9606b7a09d4c0dba462c09ed08ebb9a7210724082a2d",
    "tree3/manifest.txt": "e809ff18c37d592bdcc7f0cadcf1833f2802c3487fe16a4c46bc25b20c50eed2",
    "tree3/model_report.txt": "27eeb37171191243d9cb1062770b84e368fc175694bc7edb0251f1979a76fd60",
    "tree3/models/fb.model": "63950278f499c916b05a27f1bcb0bfe5ceb34ef7a03a0117d9382a32a80b6fb6",
    "tree3/models/ig.model": "05919983de4993c8caf6886b91f51b45af588e53321790ef7b383a327194930f",
    "tree3/models/tw.model": "58e0adaf0982603db31181c8a60074c7283be19492e68ba285b3504eb579b066",
    "tree3/snapshot.txt": "23f1c5cad96c748181e8daa2475a85e5f4ab9a412e3d4e822b223b7baf796237",
}


def _digests(out):
    files = [p for p in out.rglob("*") if p.is_file() and p.name != "timings.txt"]
    return {
        f"{out.name}/{p.relative_to(out).as_posix()}": hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(files)
    }


THREE_LEVEL_TREE = Path(__file__).parent / "data" / "tree_three_level.json"
PARAMS = PopulationParams(n_users=120, label_pairs=240, mean_reactions_per_user=20.0)


def write_inputs(root):
    """The population's dataset, with every graph attribute on every network."""
    dataset = write_dataset(generate_population(PARAMS, seed=5), root / "dataset")
    registry = json.loads((dataset / "registry.json").read_text())
    for spec in registry["networks"].values():
        spec["longlasting_attrs"] += ["inlinks", "pagerank", "inlink_outlink_ratio"]
    (dataset / "registry.json").write_text(json.dumps(registry))
    return dataset


def day1_config(dataset, tree):
    return RunConfig(
        input_dir=dataset,
        registry_path=dataset / "registry.json",
        tree_path=tree,
        reference_time=PARAMS.reference_time,
        latent_path=dataset / "latent.txt",
        population_path=dataset / "population.json",
    )


def run_two_days(root):
    dataset = write_inputs(root)
    day1 = day1_config(dataset, dataset / "tree.json")
    day2 = RunConfig(
        input_dir=dataset,
        registry_path=dataset / "registry.json",
        tree_path=dataset / "tree.json",
        reference_time=PARAMS.reference_time + SECONDS_PER_DAY,
        prior_snapshot=root / "day1" / "snapshot.txt",
    )
    run_pipeline(day1, root / "day1")
    run_pipeline(day2, root / "day2")
    return {**_digests(root / "day1"), **_digests(root / "day2")}


def test_outputs_match_pinned_digests(tmp_path):
    assert run_two_days(tmp_path) == GOLDEN


def test_every_written_file_but_the_timings_is_pinned(tmp_path):
    run_two_days(tmp_path)
    for day in ("day1", "day2"):
        written = {p.relative_to(tmp_path).as_posix() for p in (tmp_path / day).rglob("*") if p.is_file()}
        assert written - set(GOLDEN) == {f"{day}/timings.txt"}


def run_three_level(root):
    dataset = write_inputs(root)
    tree = shutil.copy(THREE_LEVEL_TREE, root / "tree.json")
    run_pipeline(day1_config(dataset, tree), root / "tree3")
    return _digests(root / "tree3")


def test_a_three_level_tree_matches_pinned_digests(tmp_path):
    assert run_three_level(tmp_path) == GOLDEN_THREE_LEVEL
