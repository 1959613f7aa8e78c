import functools
import gc
import hashlib
import json
from dataclasses import replace
import math
from collections import defaultdict
import os
import random
import re
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import influence_engine
from influence_engine import features, graph, hierarchy, lineio, nnls, pipeline, training
from influence_engine.cli import main
from influence_engine.hierarchy import (
    ScoreEntry,
    ScoreSnapshot,
    l2_combine,
    load_snapshot,
    load_tree,
    save_snapshot,
)
from influence_engine.ingest import INPUT_FILES, load_batch
from influence_engine.pipeline import RunConfig, StageError, rank_cohort, run_pipeline, stages_for_mode
from influence_engine.population import PopulationParams, generate_population, write_dataset
from influence_engine.registry import FeatureRegistry

from datetime import date

from oracles import brute_window_counts

DATA = Path(__file__).parent / "data"


def make_config(dataset: Path, path: Path, **overrides) -> Path:
    cfg = {
        "input_dir": str(dataset),
        "registry": str(dataset / "registry.json"),
        "tree": str(dataset / "tree.json"),
        "reference_time": 1_700_000_000,
        "seed": 0,
        "latent": str(dataset / "latent.txt"),
        "population": str(dataset / "population.json"),
        "reference_rankings": [str(DATA / "atp_ranking.txt")],
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg, indent=2))
    return path


def model_bytes(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted((out / "models").glob("*.model"))}


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("dataset")
    params = PopulationParams(n_users=150, label_pairs=300)
    return write_dataset(generate_population(params, seed=42), root)


@pytest.fixture(scope="module")
def full_run(dataset, tmp_path_factory):
    root = tmp_path_factory.mktemp("run")
    config = make_config(dataset, root / "config.json")
    out = root / "out"
    cfg = RunConfig.from_file(config)
    run_pipeline(cfg, out, mode="all")
    return cfg, out


class TestFullRun:
    def test_expected_artifacts_exist(self, full_run):
        _, out = full_run
        for rel in (
            "ingest/events.txt",
            "ingest/load_report.txt",
            "features/normalized_features.txt",
            "features/maxima.txt",
            "graph_stats.txt",
            "model_report.txt",
            "snapshot.txt",
            "eval_report.txt",
            "campaign_report.txt",
            "manifest.txt",
            "timings.txt",
        ):
            assert (out / rel).is_file(), rel

    def test_models_written_for_each_network(self, full_run):
        _, out = full_run
        for network in ("tw", "fb", "ig"):
            assert (out / "models" / f"{network}.model").is_file()

    def test_snapshot_scores_in_range(self, full_run):
        _, out = full_run
        snapshot = load_snapshot(out / "snapshot.txt")
        assert len(snapshot.entries) > 100
        for entry in snapshot.entries.values():
            assert 0.0 <= entry.overall <= 100.0

    def test_manifest_is_pure_and_complete(self, full_run):
        cfg, out = full_run
        lines = (out / "manifest.txt").read_text().splitlines()
        assert lines[0] == f"config_hash={cfg.config_digest()}"
        keys = [line.split("=", 1)[0] for line in lines]
        assert "input.events.txt.sha256" in keys
        assert "stage.ingest.accepted_events" in keys
        assert "output.snapshot.txt.sha256" in keys
        assert not any("timings" in k or "manifest" in k for k in keys)

    def test_evaluation_reports_latent_agreement(self, full_run):
        _, out = full_run
        text = (out / "eval_report.txt").read_text()
        rho = float(text.splitlines()[0].split("rho=")[1])
        assert rho > 0.5
        assert "ndcg\treference=atp_ranking" in text


class TestDeterminismAndIsolation:
    def test_identical_reruns_byte_identical(self, dataset, full_run, tmp_path):
        _, first = full_run
        config = make_config(dataset, tmp_path / "config.json")
        second = tmp_path / "out"
        run_pipeline(RunConfig.from_file(config), second, mode="all")
        assert (first / "manifest.txt").read_bytes() == (second / "manifest.txt").read_bytes()
        assert (first / "snapshot.txt").read_bytes() == (second / "snapshot.txt").read_bytes()

    def test_stage_rerun_in_isolation_is_bit_exact(self, dataset, full_run, tmp_path):
        cfg, out = full_run
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        names = ("features/normalized_features.txt", "graph_stats.txt")
        before = {name: (copy / name).read_bytes() for name in names}
        run_pipeline(cfg, copy, mode="features")
        assert {name: (copy / name).read_bytes() for name in before} == before
        run_pipeline(cfg, copy, mode="train")
        assert model_bytes(copy) == model_bytes(out)
        run_pipeline(cfg, copy, mode="score")
        assert (copy / "snapshot.txt").read_bytes() == (out / "snapshot.txt").read_bytes()

    def test_event_log_is_parsed_by_ingest_and_features_only(
        self, dataset, monkeypatch, tmp_path
    ):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return load_batch(*args, **kwargs)

        cfg = RunConfig.from_file(make_config(dataset, tmp_path / "config.json"))
        out = tmp_path / "out"
        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "load_batch", counted)
            run_pipeline(cfg, out, mode="all")
        assert len(calls) == 1

        # train and score still reproduce their outputs without the event log
        # and the edges: score reads the graph statistics that features wrote
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        (copy / "ingest" / "events.txt").unlink()
        (copy / "ingest" / "edges.txt").unlink()
        run_pipeline(cfg, copy, mode="train")
        run_pipeline(cfg, copy, mode="score")
        assert model_bytes(copy) == model_bytes(out)
        assert (copy / "snapshot.txt").read_bytes() == (out / "snapshot.txt").read_bytes()

    @pytest.mark.parametrize(
        "stage, name, token",
        [
            ("features", "events.txt", "timestamp="),
            ("features", "edges.txt", "\tto"),
            ("train", "labels.txt", "votes_a="),
        ],
    )
    def test_rerun_fails_on_a_corrupted_ingest_file(
        self, dataset, full_run, tmp_path, stage, name, token
    ):
        cfg, out = full_run
        if name == "edges.txt":
            # features reads the edges only when a network has a graph attribute
            registry = edited_registry(
                dataset,
                tmp_path / "registry.json",
                lambda data: data["networks"]["tw"]["longlasting_attrs"].append("inlinks"),
            )
            cfg = replace(cfg, registry_path=registry)
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        damaged = copy / "ingest" / name
        lines = damaged.read_text().splitlines()
        lines[len(lines) // 2] = lines[len(lines) // 2].replace(token, token + "x")
        damaged.write_text("\n".join(lines) + "\n")
        with pytest.raises(StageError) as failed:
            run_pipeline(cfg, copy, mode=stage)
        assert failed.value.stage == stage

    @pytest.mark.parametrize(
        "damage",
        [
            lambda line: re.sub(r"user=[^\t]*\t", "", line, count=1),
            lambda line: re.sub(r"(n:followers)=[^\t]*", r"\1=abc", line, count=1),
        ],
        ids=["no-user", "attribute-not-a-number"],
    )
    def test_a_damaged_profile_line_names_its_file(self, full_run, tmp_path, damage):
        cfg, out = full_run
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        damaged = copy / "ingest" / "profiles.txt"
        lines = damaged.read_text().splitlines()
        assert damage(lines[1]) != lines[1]
        damaged.write_text("\n".join([lines[0], damage(lines[1]), *lines[2:]]) + "\n")
        with pytest.raises(StageError, match=f"^stage 'features' failed: {re.escape(str(damaged))}: "):
            run_pipeline(cfg, copy, mode="features")

    def test_a_damaged_graph_stats_line_names_its_file(self, full_run, tmp_path):
        cfg, out = full_run
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        damaged = copy / "graph_stats.txt"
        damaged.write_text(damaged.read_text().replace("graph_size=", "graph_size", 1))
        with pytest.raises(StageError, match=f"^stage 'score' failed: {re.escape(str(damaged))}: "):
            run_pipeline(cfg, copy, mode="score")

    def test_a_damaged_prior_snapshot_names_its_file(self, full_run, tmp_path):
        cfg, out = full_run
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        lines = (out / "snapshot.txt").read_text().splitlines()
        damaged = tmp_path / "prior_snapshot.txt"
        damaged.write_text("\n".join([lines[0], lines[1].rsplit("\t", 1)[0], *lines[2:]]) + "\n")
        with pytest.raises(StageError, match=f"^stage 'features' failed: {re.escape(str(damaged))}: "):
            run_pipeline(replace(cfg, prior_snapshot=damaged), copy, mode="features")

    def test_manifest_does_not_depend_on_dataset_location(self, dataset, full_run, tmp_path):
        _, first = full_run
        moved = tmp_path / "moved"
        shutil.copytree(dataset, moved)
        config = make_config(moved, tmp_path / "config.json")
        second = tmp_path / "out"
        run_pipeline(RunConfig.from_file(config), second, mode="all")
        assert (first / "manifest.txt").read_bytes() == (second / "manifest.txt").read_bytes()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("shards", 4),
            ("holdout_fraction", 0.5),
            ("nnls_tol", 1e-3),
            ("campaign", {"post_prob": 1.0}),
        ],
        ids=["shards", "holdout_fraction", "nnls_tol", "campaign"],
    )
    def test_a_retired_key_changes_nothing(self, dataset, full_run, tmp_path, key, value):
        # older configs carry keys the engine no longer reads; none is read or hashed
        cfg, first = full_run
        config = make_config(dataset, tmp_path / "config.json", **{key: value})
        assert RunConfig.from_file(config) == cfg
        other = tmp_path / "out"
        run_pipeline(RunConfig.from_file(config), other, mode="all")
        assert (first / "manifest.txt").read_bytes() == (other / "manifest.txt").read_bytes()

    def test_seed_changes_holdout_but_not_features(self, dataset, full_run, tmp_path):
        _, first = full_run
        config = make_config(dataset, tmp_path / "config.json", seed=9)
        other = tmp_path / "out"
        run_pipeline(RunConfig.from_file(config), other, mode="all")
        assert (
            (first / "features" / "raw_features.txt").read_bytes()
            == (other / "features" / "raw_features.txt").read_bytes()
        )


def edited_registry(dataset: Path, path: Path, edit) -> Path:
    data = json.loads((dataset / "registry.json").read_text())
    edit(data)
    path.write_text(json.dumps(data))
    return path


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    """30 users, with a same-day profile tie, a repeated event and a repeated edge."""
    root = write_dataset(
        generate_population(PopulationParams(n_users=30, label_pairs=60), seed=7), tmp_path_factory.mktemp("small")
    )
    profiles = list(lineio.read_lines(root / "profiles.txt"))
    tie = lineio.decode_profile(profiles[0])._replace(numeric_attrs=(("followers", 12345.0),))
    lineio.write_lines(root / "profiles.txt", [*profiles, lineio.encode_profile(tie)])
    for name in ("events.txt", "edges.txt"):
        lines = list(lineio.read_lines(root / name))
        lineio.write_lines(root / name, [*lines, lines[0]])
    return root


def all_run_outputs(inputs: Path, root: Path) -> dict[str, bytes]:
    """Every file an ``all`` run on ``inputs`` writes but timings.txt, its
    manifest without the digests of the input files."""
    out = root / "out"
    run_pipeline(RunConfig.from_file(make_config(inputs, root / "config.json")), out, mode="all")
    outputs = {
        path.relative_to(out).as_posix(): path.read_bytes()
        for path in out.rglob("*")
        if path.is_file() and path.name != "timings.txt"
    }
    outputs["manifest.txt"] = b"".join(
        line for line in outputs["manifest.txt"].splitlines(keepends=True) if not line.startswith(b"input.")
    )
    return outputs


@pytest.fixture(scope="module")
def small_run(small_dataset, tmp_path_factory):
    return all_run_outputs(small_dataset, tmp_path_factory.mktemp("small-run"))


def test_the_small_dataset_holds_a_tie_and_repeats(small_run):
    report = small_run["ingest/load_report.txt"].decode()
    assert "\tduplicates=1\t" in report
    assert "\trejected.duplicate-edge=1\t" in report and "\trejected.profile-tie=1" in report


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25)
def test_the_line_order_of_the_inputs_changes_no_output(small_dataset, small_run, tmp_path_factory, seed):
    # a seeded shuffle: Hypothesis cannot draw thousands of positions in one example
    rng = random.Random(seed)
    shuffled = tmp_path_factory.mktemp("shuffled")
    inputs = shutil.copytree(small_dataset, shuffled / "inputs")
    for name in INPUT_FILES:
        lines = list(lineio.read_lines(inputs / name))
        rng.shuffle(lines)
        lineio.write_lines(inputs / name, lines)
    assert all_run_outputs(inputs, shuffled) == small_run


class TestFeatureStage:
    def test_cohorts_outside_the_registry_are_not_aggregated(self, dataset, full_run, tmp_path):
        _, first = full_run
        registry = edited_registry(
            dataset, tmp_path / "registry.json", lambda data: data.update(cohorts=["all"])
        )
        config = make_config(
            dataset,
            tmp_path / "config.json",
            registry=str(registry),
            prior_snapshot=str(first / "snapshot.txt"),
        )
        out = tmp_path / "out"
        assert main(["all", "--config", str(config), "--out", str(out)]) == 0
        raw = (out / "features" / "raw_features.txt").read_text()
        assert "/all/" in raw
        assert "/higher/" not in raw and "/peers/" not in raw

    def test_unconverged_pagerank_is_counted_and_warned(
        self, dataset, tmp_path, monkeypatch, capsys
    ):
        registry = edited_registry(
            dataset,
            tmp_path / "registry.json",
            lambda data: data["networks"]["tw"]["longlasting_attrs"].append("pagerank"),
        )
        cfg = RunConfig.from_file(
            make_config(dataset, tmp_path / "config.json", registry=str(registry))
        )
        out = tmp_path / "out"
        run_pipeline(cfg, out, mode="ingest")
        run_pipeline(cfg, out, mode="features")
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert "stage.features.pagerank_unconverged=0" in manifest
        assert any(line.startswith("stage.features.unregistered_attrs=") for line in manifest)

        capsys.readouterr()
        monkeypatch.setattr(features, "pagerank_codes", functools.partial(graph.pagerank_codes, max_iter=1))
        run_pipeline(cfg, out, mode="features")
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert "stage.features.pagerank_unconverged=1" in manifest
        assert "warning\tpagerank-unconverged\tnetwork=tw" in capsys.readouterr().out.splitlines()

    def test_attribute_zero_for_everyone_normalizes_to_zero(self, dataset, tmp_path):
        # such an attribute has no recorded maximum
        inputs = tmp_path / "inputs"
        shutil.copytree(dataset, inputs)
        profiles = inputs / "profiles.txt"
        profiles.write_text(re.sub(r"n:followers=[^\t\n]*", "n:followers=0.0", profiles.read_text()))
        cfg = RunConfig.from_file(make_config(inputs, tmp_path / "config.json"))
        out = tmp_path / "out"
        run_pipeline(cfg, out, mode="ingest")
        run_pipeline(cfg, out, mode="features")
        followers = [
            line.split("\t")[2]
            for line in (out / "features" / "normalized_features.txt").read_text().splitlines()
            if "/followers" in line
        ]
        assert followers and set(followers) == {"0.0"}
        assert "/followers" not in (out / "features" / "maxima.txt").read_text()

    def test_non_finite_attributes_are_malformed_lines(self, dataset, tmp_path):
        # the parent recorded a maximum of inf and scored users nan
        lines = (dataset / "profiles.txt").read_text().splitlines()
        followed = [i for i, line in enumerate(lines) if "n:followers=" in line][:2]
        dirty, clean = tmp_path / "dirty", tmp_path / "clean"
        for inputs in (dirty, clean):
            shutil.copytree(dataset, inputs)
        edited = list(lines)
        for i, value in zip(followed, ("nan", "inf")):
            edited[i] = re.sub(r"n:followers=[^\t]*", f"n:followers={value}", lines[i])
        (dirty / "profiles.txt").write_text("\n".join(edited) + "\n")
        kept = [line for i, line in enumerate(lines) if i not in followed]
        (clean / "profiles.txt").write_text("\n".join(kept) + "\n")

        snapshots = []
        for inputs in (dirty, clean):
            cfg = RunConfig.from_file(make_config(inputs, tmp_path / f"{inputs.name}.json"))
            run_pipeline(cfg, tmp_path / f"{inputs.name}-out", mode="all")
            snapshots.append((tmp_path / f"{inputs.name}-out" / "snapshot.txt").read_bytes())
        report = (tmp_path / "dirty-out" / "ingest" / "load_report.txt").read_text()
        assert "\tmalformed=2\t" in report
        assert snapshots[0] == snapshots[1]
        assert b"nan" not in snapshots[0]


    def test_registry_without_the_90_day_window(self, dataset, tmp_path):
        # ingest keeps 90 days; an event older than the longest registered
        # window counts in no window rather than failing the stage
        registry = edited_registry(
            dataset, tmp_path / "registry.json", lambda data: data.update(windows=[3, 7])
        )
        config = make_config(dataset, tmp_path / "config.json", registry=str(registry))
        out = tmp_path / "out"
        assert main(["all", "--config", str(config), "--out", str(out)]) == 0

        days = defaultdict(list)
        for line in lineio.read_lines(out / "ingest" / "events.txt"):
            event = lineio.decode_event(line)
            tuple_key = (event.author, event.network, event.content_type, event.action)
            days[tuple_key].append((1_700_000_000 - event.timestamp) // 86400)
        assert max(max(d) for d in days.values()) >= 7
        expected = {}
        for (author, network, content, action), found in days.items():
            for window, count in brute_window_counts(found, (3, 7)).items():
                if count:
                    expected[(author, f"dyn/{network}/{content}/{action}/all/{window}d")] = float(count)
        raw = {}
        for line in lineio.read_lines(out / "features" / "raw_features.txt"):
            user, key, value = line.split("\t")
            if key.startswith("dyn/"):
                raw[(lineio.decode_value(user), key)] = float(value)
        assert raw == expected

    @pytest.mark.parametrize("graph", [False, True])
    def test_features_needs_the_edges(self, dataset, tmp_path, graph):
        # the graph statistics come from the edges, whether or not a network
        # registers a graph attribute
        def edit(data):
            if graph:
                data["networks"]["tw"]["longlasting_attrs"].append("inlinks")

        registry = edited_registry(dataset, tmp_path / "registry.json", edit)
        cfg = RunConfig.from_file(make_config(dataset, tmp_path / "config.json", registry=str(registry)))
        out = tmp_path / "out"
        run_pipeline(cfg, out, mode="ingest")
        (out / "ingest" / "edges.txt").unlink()
        with pytest.raises(StageError, match="edges.txt"):
            run_pipeline(cfg, out, mode="features")

    def test_an_all_run_reads_the_edges_once_in_features(self, dataset, tmp_path, monkeypatch):
        callers = []

        def counted(path):
            callers.append((sys._getframe(1).f_code.co_name, Path(path).relative_to(out).as_posix()))
            return read_edges(path)

        read_edges = lineio.read_edges
        monkeypatch.setattr(lineio, "read_edges", counted)
        cfg = RunConfig.from_file(make_config(dataset, tmp_path / "config.json"))
        out = tmp_path / "out"
        run_pipeline(cfg, out, mode="all")
        assert callers == [("stage_features", "ingest/edges.txt")]


class TestTrainStage:
    def test_unconverged_nnls_is_counted_and_warned(self, full_run, tmp_path, monkeypatch, capsys):
        cfg, first = full_run
        assert "stage.train.nnls_unconverged=0" in (first / "manifest.txt").read_text().splitlines()

        out = tmp_path / "out"
        shutil.copytree(first, out)
        monkeypatch.setattr(training, "nnls", functools.partial(nnls.nnls, max_iter=1))
        run_pipeline(cfg, out, mode="train")
        manifest = (out / "manifest.txt").read_text().splitlines()
        scorable = FeatureRegistry.load(cfg.registry_path).scorable_networks()
        assert f"stage.train.nnls_unconverged={len(scorable)}" in manifest
        warnings = [l for l in capsys.readouterr().out.splitlines() if l.startswith("warning")]
        assert warnings == [f"warning\tnnls-unconverged\tnetwork={n}" for n in scorable]


class TestScoreStage:
    def test_a_network_without_edges_weighs_zero(self, dataset, tmp_path):
        # graph_size is the root's weight basis, so a network without edges weighs 0
        inputs = tmp_path / "inputs"
        shutil.copytree(dataset, inputs)
        edges = [
            line for line in lineio.read_lines(inputs / "edges.txt")
            if lineio.decode_edge(line).network != "ig"
        ]
        lineio.write_lines(inputs / "edges.txt", edges)
        config = make_config(inputs, tmp_path / "config.json")
        out = tmp_path / "out"
        assert main(["all", "--config", str(config), "--out", str(out)]) == 0

        stats = {}
        for line in lineio.read_lines(out / "graph_stats.txt"):
            network, *tokens = line.split("\t")
            stats[network] = dict(token.split("=") for token in tokens)
        assert stats["ig"] == {"avg_node_degree": "0.0", "graph_size": "0.0"}
        assert float(stats["tw"]["graph_size"]) > 0 and float(stats["fb"]["graph_size"]) > 0

        children = [child.network for child in load_tree(inputs / "tree.json").children]
        sizes = np.array([float(stats[network]["graph_size"]) for network in children])
        weights = sizes / sizes.max()
        assert weights[children.index("ig")] == 0.0
        entries = load_snapshot(out / "snapshot.txt").entries
        entry = next(e for _, e in sorted(entries.items()) if dict(e.node_scores).get("ig"))
        leaves = dict(entry.node_scores)
        f = np.array([leaves.get(network, 0.0) for network in children])
        assert entry.raw_root == l2_combine(f, weights)

    def test_no_edges_under_a_graph_size_root_weighs_the_children_equally(
        self, dataset, full_run, tmp_path, capsys
    ):
        # every child's graph_size is 0, so the root falls back to equal
        # weights and warns once, where the run used to fail in score
        inputs = tmp_path / "inputs"
        shutil.copytree(dataset, inputs)
        (inputs / "edges.txt").write_text("")
        config = make_config(inputs, tmp_path / "config.json")
        out = tmp_path / "out"
        assert main(["all", "--config", str(config), "--out", str(out)]) == 0
        tree = load_tree(inputs / "tree.json")
        assert (tree.node_id, tree.heuristic_basis or "graph_size") == ("root", "graph_size")
        warnings = [l for l in capsys.readouterr().out.splitlines() if l.startswith("warning")]
        assert warnings == ["warning\theuristic-basis-zero\tnode=root"]

        children = [child.network for child in tree.children]
        for entry in load_snapshot(out / "snapshot.txt").entries.values():
            leaves = dict(entry.node_scores)
            f = np.array([leaves.get(network, 0.0) for network in children])
            assert entry.raw_root == l2_combine(f, np.ones(len(children)))
        keys = [line.split("=")[0] for line in (out / "manifest.txt").read_text().splitlines()]
        _, first = full_run
        assert keys == [line.split("=")[0] for line in (first / "manifest.txt").read_text().splitlines()]


class TestIdsThatNeedEscaping:
    def test_author_ids_with_tab_and_newline_are_scored(self, dataset, tmp_path):
        inputs = tmp_path / "inputs"
        shutil.copytree(dataset, inputs)
        odd = {"u00003": "u00003%09x", "u00004": "u00004%0Ax"}
        for name in ("events.txt", "profiles.txt", "edges.txt", "labels.txt"):
            path = inputs / name
            text = path.read_text()
            for plain, escaped in odd.items():
                text = re.sub(rf"=({plain})(?=[\t\n])", f"={escaped}", text)
            path.write_text(text)
        assert "author=u00003%09x" in (inputs / "events.txt").read_text()
        config = make_config(
            inputs, tmp_path / "config.json", latent=None, population=None, reference_rankings=[]
        )
        out = tmp_path / "out"
        assert main(["all", "--config", str(config), "--out", str(out)]) == 0
        scored = load_snapshot(out / "snapshot.txt").entries
        assert {"u00003\tx", "u00004\nx"} <= set(scored)
        assert not {"u00003", "u00004"} & set(scored)


class TestStageGating:
    def test_score_without_training_fails_cleanly(self, dataset, tmp_path):
        config = make_config(dataset, tmp_path / "config.json")
        cfg = RunConfig.from_file(config)
        out = tmp_path / "out"
        run_pipeline(cfg, out, mode="ingest")
        run_pipeline(cfg, out, mode="features")
        with pytest.raises(StageError, match="missing model"):
            run_pipeline(cfg, out, mode="score")

    def test_mode_expansion(self, dataset, tmp_path):
        config = make_config(dataset, tmp_path / "config.json")
        cfg = RunConfig.from_file(config)
        assert stages_for_mode(cfg, "all") == [
            "ingest", "features", "train", "score", "evaluate", "simulate",
        ]
        bare = make_config(
            dataset, tmp_path / "bare.json", latent=None, population=None,
            reference_rankings=[],
        )
        assert stages_for_mode(RunConfig.from_file(bare), "all") == [
            "ingest", "features", "train", "score",
        ]
        with pytest.raises(ValueError):
            stages_for_mode(cfg, "everything")


# a file that the engine writes, and the command that reads it with its exit
# code when the file is damaged
BLANK_LINE = {
    "ingest/profiles.txt": ("features", 3),
    "graph_stats.txt": ("score", 5),
    "models/tw.model": ("score", 5),
    "snapshot.txt": ("rank", 1),
}


class TestCLI:
    @pytest.mark.parametrize(
        "edit",
        [
            lambda data: {},
            lambda data: [],
            lambda data: {**data, "reference_time": None},
            lambda data: {**data, "seed": None},
            lambda data: {**data, "seed": 2.9},
            lambda data: {**data, "seed": True},
            lambda data: {**data, "reference_time": 1_700_000_000.9},
            lambda data: {**data, "reference_rankings": "ref.txt"},
        ],
        ids=[
            "empty",
            "not-an-object",
            "null-reference-time",
            "null-seed",
            "float-seed",
            "bool-seed",
            "float-reference-time",
            "string-reference-rankings",
        ],
    )
    def test_bad_config_exits_one(self, dataset, tmp_path, capsys, edit):
        bad = make_config(dataset, tmp_path / "bad.json")
        bad.write_text(json.dumps(edit(json.loads(bad.read_text()))))
        code = main(["all", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "bad config" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["input_dir", "registry", "tree"])
    def test_a_config_without_a_required_path_exits_one(self, dataset, tmp_path, capsys, key):
        config = make_config(dataset, tmp_path / "config.json")
        data = json.loads(config.read_text())
        del data[key]
        config.write_text(json.dumps(data))
        code = main(["all", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 1
        assert f"bad config: {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda root: root["children"][2].update(node_id=root["children"][1]["node_id"]),
            lambda root: root.update(weights=[1.0, math.nan, 1.0]),
            lambda root: root.update(weights=[1.0, math.inf, 1.0]),
            lambda root: root.update(combiner="supervised-dot", weights=[1.0, -1.0, 1.0]),
            lambda root: root.update(weights=[0.0, 0.0, 0.0]),
            lambda root: root.update(heuristic_basis="pagerank"),
            # scored with leaf_score all the same: f=[0.8, 0.4], w=[1, 3] gives 0.5, not 0.456
            lambda root: root["children"][1].update(combiner="l2-norm"),
            lambda root: root["children"][1].update(network="zz"),
            lambda root: [root],
            lambda root: root["children"].append(["fb"]),
        ],
        ids=["repeated-node-id", "nan-weight", "inf-weight", "negative-weight",
             "all-zero-weights", "unknown-heuristic-basis", "l2-norm-leaf",
             "leaf-on-an-unregistered-network", "top-level-not-an-object", "child-not-an-object"],
    )
    def test_a_tree_that_would_score_wrongly_exits_one(self, dataset, tmp_path, capsys, edit):
        root = json.loads((dataset / "tree.json").read_text())
        assert len(root["children"]) == 3
        replaced = edit(root)  # None when the edit changed root in place
        (tmp_path / "tree.json").write_text(json.dumps(root if replaced is None else replaced))
        config = make_config(dataset, tmp_path / "config.json", tree=str(tmp_path / "tree.json"))
        code = main(["all", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "bad config" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "edit, key",
        [
            # each of these used to fail score with exit 5, or exit 1 naming no key
            (lambda root: root["children"][0].update(node_id=7), "children.0.node_id "),
            (lambda root: root.update(children="tw"), "children "),
            (lambda root: root.update(weights="123"), "weights "),
            (lambda root: root.update(weights=[1.0, "2", 1.0]), "weights entry "),
            (lambda root: root.update(weights=[1.0, True, 1.0]), "weights entry "),
            (lambda root: root["children"][1].update(network=["tw"]), "children.1.network "),
            (lambda root: root.update(heuristic_basis=1), "heuristic_basis "),
            (lambda root: root.update(node_id=None), "node_id "),
        ],
        ids=["node-id-a-number", "children-a-string", "weights-a-string", "weight-a-string",
             "weight-a-bool", "network-a-list", "basis-a-number", "node-id-null"],
    )
    def test_a_tree_value_of_the_wrong_json_type_exits_one(self, dataset, tmp_path, capsys, edit, key):
        root = json.loads((dataset / "tree.json").read_text())
        edit(root)
        tree = tmp_path / "tree.json"
        tree.write_text(json.dumps(root))
        config = make_config(dataset, tmp_path / "config.json", tree=str(tree))
        code = main(["all", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"bad config: tree {tree}: {key}must be a JSON ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("drop", ["converged=", "w\t"])
    def test_a_model_file_missing_a_line_fails_score(self, full_run, tmp_path, capsys, drop):
        cfg, out = full_run
        copy = tmp_path / "o"
        shutil.copytree(out, copy)
        model = copy / "models" / "tw.model"
        lines = model.read_text().splitlines()
        lost = next(line for line in lines if line.startswith(drop))
        model.write_text("\n".join(line for line in lines if line != lost) + "\n")
        config = make_config(cfg.input_dir, tmp_path / "config.json")
        code = main(["score", "--config", str(config), "--out", str(copy)])
        assert code == 5
        missing = lost.split("\t")[1] if drop == "w\t" else "converged"
        assert f"model file {model} has no {missing!r} line" in capsys.readouterr().err

    @pytest.mark.parametrize("name", list(BLANK_LINE))
    def test_a_blank_line_in_a_file_the_engine_wrote_fails_naming_it(self, full_run, tmp_path, capsys, name):
        # write_lines never writes a blank line, so one is damage, not a line to skip
        cfg, out = full_run
        copy = tmp_path / "o"
        shutil.copytree(out, copy)
        damaged = copy / name
        lines = damaged.read_text().splitlines()
        damaged.write_text("\n".join([lines[0], "", *lines[1:]]) + "\n")
        command, code = BLANK_LINE[name]
        if command == "rank":
            (tmp_path / "users.txt").write_text("a\n")
            argv = ["rank", "--snapshot", str(damaged), "--users", str(tmp_path / "users.txt")]
        else:
            argv = [command, "--config", str(make_config(cfg.input_dir, tmp_path / "c.json")), "--out", str(copy)]
        assert main(argv) == code
        assert f"{damaged}: " in capsys.readouterr().err

    @pytest.mark.parametrize("band", [0.0, -1.0, math.nan, math.inf])
    def test_a_peer_band_not_finite_and_above_zero_fails_ingest(self, dataset, tmp_path, capsys, band):
        registry = edited_registry(
            dataset, tmp_path / "registry.json", lambda data: data.update(peer_band=band)
        )
        config = make_config(dataset, tmp_path / "config.json", registry=str(registry))
        code = main(["all", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "bad config: peer_band" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_network_names_that_differ_only_in_case_fail_ingest(self, dataset, tmp_path, capsys):
        registry = edited_registry(
            dataset, tmp_path / "registry.json", lambda data: data["networks"].update(TW={})
        )
        config = make_config(dataset, tmp_path / "config.json", registry=str(registry))
        code = main(["all", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "bad config: network names differ only in case" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "edit, key",
        [
            (lambda data: data["networks"].update(tw=5), "networks.tw "),
            (lambda data: data.update(networks=["tw", "fb", "ig"]), "networks "),
            (lambda data: data.update(ordinal_maps=[]), "ordinal_maps "),
            # each of these used to load as something else
            (lambda data: data["networks"]["tw"].update(actions="like"), "networks.tw.actions "),
            (lambda data: data.update(cohorts="all"), "cohorts "),
            (lambda data: data["networks"]["tw"].update(dynamic="false"), "networks.tw.dynamic "),
            (lambda data: data["networks"]["tw"].update(actions=["like", 1]), "networks.tw.actions entry "),
            (lambda data: data.update(windows=[7.0]), "windows entry "),
            (lambda data: data.update(peer_band="5"), "peer_band "),
            (lambda data: data["ordinal_maps"].update(community_badge="expert"), "ordinal_maps.community_badge "),
        ],
        ids=["network-not-an-object", "networks-not-an-object", "ordinal-maps-not-an-object",
             "actions-a-string", "cohorts-a-string", "dynamic-a-string", "action-not-a-string",
             "window-a-float", "peer-band-a-string", "ordinal-map-a-string"],
    )
    def test_a_registry_that_does_not_load_exits_one(self, dataset, tmp_path, capsys, edit, key):
        registry = edited_registry(dataset, tmp_path / "registry.json", edit)
        config = make_config(dataset, tmp_path / "config.json", registry=str(registry))
        code = main(["all", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"bad config: registry {registry}: {key}must be a JSON ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "name, edit, key",
        [
            # each of these used to run with exit 0, its setting left at the default
            ("tree", lambda data: data.update(weight=[1, 0, 0]), "weight"),
            ("tree", lambda data: data["children"][1].update(Network="tw"), "children.1.Network"),
            ("config", lambda data: data.update(prior_snapshots="prior.txt"), "prior_snapshots"),
            ("registry", lambda data: data.update(peer_bnad=2.0), "peer_bnad"),
            ("registry", lambda data: data["networks"]["tw"].update(action=["like"]), "networks.tw.action"),
        ],
        ids=["tree-weight", "leaf-network-capitalised", "config-prior-snapshots", "registry-peer-bnad",
             "registry-network-action"],
    )
    def test_an_unknown_key_exits_one(self, dataset, tmp_path, capsys, name, edit, key):
        paths = {which: shutil.copy(dataset / f"{which}.json", tmp_path) for which in ("tree", "registry")}
        config = make_config(dataset, tmp_path / "config.json", tree=paths["tree"], registry=paths["registry"])
        path = Path(paths.get(name, config))
        data = json.loads(path.read_text())
        edit(data)
        path.write_text(json.dumps(data))
        code = main(["all", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 1
        where = "" if name == "config" else f"{name} "
        assert capsys.readouterr().err == f"bad config: {where}{path}: unknown key {key}\n"
        assert not (tmp_path / "o").exists()

    def test_an_all_run_parses_the_registry_and_tree_once(self, dataset, tmp_path, monkeypatch):
        parsed = []

        def counted(name, parse):
            return lambda data: parsed.append(name) or parse(data)

        monkeypatch.setattr(
            FeatureRegistry, "from_dict", staticmethod(counted("registry", FeatureRegistry.from_dict))
        )
        monkeypatch.setattr(hierarchy, "parse_tree", counted("tree", hierarchy.parse_tree))
        config = make_config(dataset, tmp_path / "config.json")
        assert main(["all", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
        assert sorted(parsed) == ["registry", "tree"]
        assert "simulate" in (tmp_path / "o" / "timings.txt").read_text()

    def test_an_all_run_never_parses_the_normalized_features(self, dataset, tmp_path, monkeypatch):
        parsed, built = [], []
        load, fill = pipeline.load_store, features._fill_store

        def counted_fill(*args):
            store = fill(*args)
            built.append(weakref.ref(store))
            return store

        monkeypatch.setattr(features, "_fill_store", counted_fill)
        monkeypatch.setattr(pipeline, "load_store", lambda path, registry: parsed.append(path) or load(path, registry))
        cfg = RunConfig.from_file(make_config(dataset, tmp_path / "config.json"))
        out = tmp_path / "out"
        gc.disable()  # so that only a reference, not a collection, can free the store
        try:
            run_pipeline(cfg, out, mode="all")
            # the one store, which features offered to train and score, and nothing holds it once score returns
            assert len(built) == 1 and built[0]() is None
        finally:
            gc.enable()
        assert parsed == []
        # train run on its own parses what features wrote, once
        run_pipeline(cfg, out, mode="train")
        assert parsed == [out / "features" / "normalized_features.txt"]

    def test_features_alone_builds_no_store(self, dataset, tmp_path, monkeypatch):
        built = []
        fill = features._fill_store
        monkeypatch.setattr(features, "_fill_store", lambda *args: built.append(args) or fill(*args))
        cfg = RunConfig.from_file(make_config(dataset, tmp_path / "config.json"))
        for stage in ("ingest", "features"):
            run_pipeline(cfg, tmp_path / "out", mode=stage)
        assert built == []  # no later stage of its run reads the store

    def test_an_all_run_hashes_no_output_it_wrote(self, dataset, tmp_path, monkeypatch):
        hashed = []
        sha256 = lineio.sha256
        monkeypatch.setattr(lineio, "sha256", lambda path: hashed.append(Path(path)) or sha256(path))
        cfg = RunConfig.from_file(make_config(dataset, tmp_path / "config.json"))
        out = tmp_path / "out"
        run_pipeline(cfg, out, mode="all")
        assert hashed and not [path for path in hashed if out in path.parents]
        digests = dict(line.split("=", 1) for line in (out / "manifest.txt").read_text().splitlines())
        outputs = {key: value for key, value in digests.items() if key.startswith("output.")}
        assert len(outputs) > 10  # every file the run wrote but the manifest and the timings
        for key, value in outputs.items():
            name = key.removeprefix("output.").removesuffix(".sha256")
            assert value == hashlib.sha256((out / name).read_bytes()).hexdigest(), name

    def test_a_changed_byte_between_stages_is_parsed_not_handed_over(self, dataset, tmp_path, monkeypatch):
        parsed = []
        load = pipeline.load_store
        monkeypatch.setattr(pipeline, "load_store", lambda path, registry: parsed.append(path) or load(path, registry))
        cfg = RunConfig.from_file(make_config(dataset, tmp_path / "config.json"))
        out = tmp_path / "out"
        for stage in ("ingest", "features"):
            run_pipeline(cfg, out, mode=stage)
        normalized = out / "features" / "normalized_features.txt"
        lines = normalized.read_text().splitlines(keepends=True)
        user, key, value = lines[0].rstrip("\n").split("\t")
        lines[0] = f"{user}\t{key}\t{float(value) / 2!r}\n"  # the first cell, halved
        normalized.write_text("".join(lines))
        run_pipeline(cfg, out, mode="train")
        run_pipeline(cfg, out, mode="score")  # each staged stage parses what it reads
        assert parsed == [normalized] * 2
        snapshot = out / "snapshot.txt"
        entries = load_snapshot(snapshot).entries
        snapshot.write_text("".join(snapshot.read_text().splitlines(keepends=True)[:-1]))  # the last user dropped
        assert len(load_snapshot(snapshot).entries) == len(entries) - 1

    @pytest.mark.parametrize(
        "fb_labels",
        [[], ["network=fb\tuser_a=ghost1\tuser_b=ghost2\tvotes_a=5\tvotes_b=0"]],
        ids=["no-fb-labels", "fb-labels-on-users-without-features"],
    )
    def test_a_network_with_thin_labels_is_skipped(self, dataset, tmp_path, capsys, fb_labels):
        inputs = tmp_path / "inputs"
        shutil.copytree(dataset, inputs)
        labels = [l for l in lineio.read_lines(inputs / "labels.txt") if not l.startswith("network=fb\t")]
        lineio.write_lines(inputs / "labels.txt", labels + fb_labels)
        config = make_config(inputs, tmp_path / "config.json")
        out = tmp_path / "o"
        assert main(["all", "--config", str(config), "--out", str(out)]) == 0
        reason = "no-design-rows" if fb_labels else "no-pairs"
        assert f"warning\t{reason}\tnetwork=fb" in capsys.readouterr().out
        assert f"model\tnetwork=fb\tunfitted={reason}" in (out / "model_report.txt").read_text()
        registry = FeatureRegistry.load(inputs / "registry.json")
        assert not training.load_model(out / "models" / "fb.model", registry).weights.any()
        assert "stage.train.models=2" in (out / "manifest.txt").read_text().splitlines()
        # an all-zero weight vector scores 0 on fb, so no user's fb score is above 0
        entries = load_snapshot(out / "snapshot.txt").entries.values()
        assert {s for e in entries for node, s in e.node_scores if node == "fb"} == {0.0}
        assert any(e.overall > 0 for e in entries)

    def test_stage_failure_maps_to_stage_exit_code(self, dataset, tmp_path, capsys):
        config = make_config(dataset, tmp_path / "config.json")
        code = main(["score", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 5

    @pytest.mark.parametrize(
        "stage, code",
        [("ingest", 2), ("features", 3), ("train", 4), ("score", 5), ("evaluate", 6), ("simulate", 7)],
    )
    def test_each_stage_failure_exits_with_its_code(self, dataset, tmp_path, capsys, stage, code):
        # a lone stage in a fresh output directory has no upstream files to read;
        # ingest is given an input directory without its files
        (tmp_path / "empty").mkdir()
        config = make_config(
            dataset, tmp_path / "config.json", population=None,
            input_dir=str(tmp_path / "empty") if stage == "ingest" else str(dataset),
        )
        assert main([stage, "--config", str(config), "--out", str(tmp_path / "o")]) == code
        err = capsys.readouterr().err
        assert err.startswith(f"stage {stage!r} failed: ")
        if stage == "simulate":
            assert "config has no population descriptor" in err

    def test_single_stage_success(self, dataset, tmp_path, capsys):
        config = make_config(dataset, tmp_path / "config.json")
        code = main(["ingest", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 0
        assert (tmp_path / "o" / "ingest" / "events.txt").is_file()

    def test_a_raw_line_that_repeats_a_key_is_malformed(self, dataset, full_run, tmp_path):
        # each appended line gives one key a second value; read by that value,
        # each would be a new valid record
        inputs = tmp_path / "inputs"
        shutil.copytree(dataset, inputs)
        repeats = [
            ("events.txt", "actor=ghost"),
            ("profiles.txt", "user=ghost"),
            ("profiles.txt", "network=ig"),
            ("profiles.txt", "as_of=2023-11-13"),
            ("edges.txt", "from=ghost"),
            ("labels.txt", "user_a=ghost"),
        ]
        for name, token in repeats:
            line = (inputs / name).read_text().splitlines()[0]
            assert f"\t{token.split('=')[0]}=" in f"\t{line}" and token not in line
            with (inputs / name).open("a") as fh:
                fh.write(f"{line}\t{token}\n")
        config = make_config(inputs, tmp_path / "config.json")
        assert main(["ingest", "--config", str(config), "--out", str(tmp_path / "o")]) == 0

        _, clean = full_run
        reports = [
            dict(t.split("=") for t in (o / "ingest" / "load_report.txt").read_text().split()[1:])
            for o in (clean, tmp_path / "o")
        ]
        assert int(reports[1].pop("malformed")) == int(reports[0].pop("malformed")) + len(repeats)
        assert reports[1] == reports[0]
        for name in ("events.txt", "profiles.txt", "edges.txt", "labels.txt"):
            assert (tmp_path / "o" / "ingest" / name).read_bytes() == (clean / "ingest" / name).read_bytes()

    def test_a_same_day_profile_tie_does_not_depend_on_line_order(self, dataset, tmp_path):
        lines = list(lineio.read_lines(dataset / "profiles.txt"))
        first = lineio.decode_profile(lines[0])
        tie = lineio.encode_profile(first._replace(numeric_attrs=(("followers", 12345.0),)))
        outputs = []
        for order, profiles in (("start", [tie, *lines]), ("end", [*lines, tie])):
            inputs, out = tmp_path / order, tmp_path / f"{order}-out"
            shutil.copytree(dataset, inputs)
            lineio.write_lines(inputs / "profiles.txt", profiles)
            config = make_config(inputs, tmp_path / f"{order}.json")
            for stage in ("ingest", "features"):
                assert main([stage, "--config", str(config), "--out", str(out)]) == 0
            outputs.append({
                name: (out / name).read_bytes() for name in ("ingest/profiles.txt", "features/raw_features.txt")
            })
        assert outputs[0] == outputs[1]
        # of two snapshots taken on one day, ingest keeps the larger canonical line
        kept = set(lineio.read_lines(tmp_path / "end-out" / "ingest" / "profiles.txt"))
        line = lineio.encode_profile(first)
        assert max(line, tie) in kept and min(line, tie) not in kept

    def test_rank_command_output(self, full_run, tmp_path, capsys):
        _, out = full_run
        snapshot = load_snapshot(out / "snapshot.txt")
        users = sorted(snapshot.entries)[:5] + ["nobody"]
        users_file = tmp_path / "users.txt"
        users_file.write_text("\n".join(users) + "\n")
        code = main(["rank", "--snapshot", str(out / "snapshot.txt"), "--users", str(users_file)])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6
        assert lines[-1] == "nobody\tunscored"
        scores = [float(l.split("\t")[1]) for l in lines[:-1]]
        assert scores == sorted(scores, reverse=True)

    def test_rank_decodes_and_encodes_ids(self, tmp_path, capsys):
        entries = {
            u: ScoreEntry(overall=s, raw_root=s / 100.0, node_scores=())
            for u, s in {"a\tb": 70.0, "plain": 40.0}.items()
        }
        save_snapshot(ScoreSnapshot(as_of=date(2023, 11, 14), entries=entries), tmp_path / "snap.txt")
        users_file = tmp_path / "users.txt"
        users_file.write_text("plain\na%09b\nnobody\n")
        code = main(["rank", "--snapshot", str(tmp_path / "snap.txt"), "--users", str(users_file)])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == [
            "a%09b\t70.0", "plain\t40.0", "nobody\tunscored",
        ]

    def test_rank_with_a_missing_snapshot_exits_one(self, tmp_path, capsys):
        users_file = tmp_path / "users.txt"
        users_file.write_text("a\n")
        code = main(["rank", "--snapshot", str(tmp_path / "missing.txt"), "--users", str(users_file)])
        assert code == 1
        assert "bad snapshot" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "damage",
        [
            lambda line: line.replace("fb=", "fb", 1),
            lambda line: line.replace("fb=", "fb=x", 1),
            lambda line: line.rsplit("\t", 1)[0],
        ],
        ids=["node-token-without-equals", "node-score-not-a-number", "line-short-of-a-field"],
    )
    def test_rank_with_a_damaged_snapshot_exits_one(self, full_run, tmp_path, capsys, damage):
        _, out = full_run
        lines = (out / "snapshot.txt").read_text().splitlines()
        (tmp_path / "snapshot.txt").write_text("\n".join([lines[0], damage(lines[1]), *lines[2:]]) + "\n")
        users_file = tmp_path / "users.txt"
        users_file.write_text("a\n")
        code = main(["rank", "--snapshot", str(tmp_path / "snapshot.txt"), "--users", str(users_file)])
        assert code == 1
        assert "bad snapshot" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [None, b"caf\xe9\n"], ids=["missing", "not-utf8"])
    def test_rank_with_an_unreadable_users_file_exits_one(self, full_run, tmp_path, capsys, content):
        _, out = full_run
        users_file = tmp_path / "users.txt"
        if content is not None:
            users_file.write_bytes(content)
        code = main(["rank", "--snapshot", str(out / "snapshot.txt"), "--users", str(users_file)])
        assert code == 1
        assert "bad users file" in capsys.readouterr().err

    def test_importing_the_cli_leaves_population_unloaded(self):
        # every run pays for what the CLI imports at start-up, and only the
        # evaluate and simulate stages use population
        script = "import sys, influence_engine.cli\nprint('influence_engine.population' in sys.modules)"
        src = Path(influence_engine.__file__).parents[1]
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_full_run_never_imports_scipy(self, dataset, tmp_path):
        # start-up cost is paid by every daily run; scipy.stats alone cost
        # more than a second of it, so the engine must not load scipy
        config = make_config(dataset, tmp_path / "config.json")
        out = tmp_path / "out"
        script = (
            "import sys\n"
            "from influence_engine.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print('loaded:', sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "sys.exit(code)\n"
        )
        src = Path(influence_engine.__file__).parents[1]
        done = subprocess.run(
            [sys.executable, "-c", script, "all", "--config", str(config), "--out", str(out)],
            capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert done.returncode == 0, done.stderr
        assert (out / "eval_report.txt").is_file() and (out / "campaign_report.txt").is_file()
        assert done.stdout.splitlines()[-1] == "loaded: []"


class TestRankCohort:
    def snapshot(self, scores):
        entries = {
            u: ScoreEntry(overall=s, raw_root=s / 100.0, node_scores=())
            for u, s in scores.items()
        }
        return ScoreSnapshot(as_of=date(2023, 11, 14), entries=entries)

    def test_descending_with_id_tiebreak(self):
        snap = self.snapshot({"b": 50.0, "a": 50.0, "c": 80.0})
        assert rank_cohort(snap, ["a", "b", "c"]) == [
            ("c", 80.0), ("a", 50.0), ("b", 50.0),
        ]

    def test_unknown_users_trail_sorted(self):
        snap = self.snapshot({"a": 10.0})
        assert rank_cohort(snap, ["z", "a", "m"]) == [
            ("a", 10.0), ("m", None), ("z", None),
        ]


class TestEvaluateAndSimulateInputs:
    """The inputs that only evaluate and simulate read."""

    @pytest.mark.parametrize(
        "stage, code, name, damage",
        [
            ("evaluate", 6, "latent.txt", lambda text: text.replace("\t", "", 1)),  # a line of one field
            ("evaluate", 6, "ranking.txt", lambda text: text + "11\n"),  # a rank without its entity
            ("simulate", 7, "population.json", lambda text: text[: len(text) // 2]),  # cut short
            ("simulate", 7, "population.json", lambda text: text.replace('"params"', '"parameters"')),
            ("simulate", 7, "population.json", lambda text: text.replace('"n_users": 150', '"n_users": 1')),
        ],
    )
    def test_a_damaged_input_fails_its_stage_naming_the_file(
        self, dataset, full_run, tmp_path, capsys, stage, code, name, damage
    ):
        inputs = tmp_path / "inputs"
        shutil.copytree(dataset, inputs)
        shutil.copy(DATA / "atp_ranking.txt", inputs / "ranking.txt")
        path = inputs / name
        path.write_text(damage(path.read_text()))
        out = tmp_path / "o"
        shutil.copytree(full_run[1], out)
        config = make_config(
            inputs, tmp_path / "config.json", latent=str(inputs / "latent.txt"),
            population=str(inputs / "population.json"), reference_rankings=[str(inputs / "ranking.txt")],
        )
        assert main([stage, "--config", str(config), "--out", str(out)]) == code
        assert capsys.readouterr().err.startswith(f"stage {stage!r} failed: {path}: ")

    def test_an_all_run_never_parses_the_snapshot(self, dataset, tmp_path, monkeypatch):
        parsed, scored = [], []
        load, score = pipeline.load_snapshot, pipeline.score_population

        def counted_score(*args, **kwargs):
            snapshot = score(*args, **kwargs)
            scored.append(weakref.ref(snapshot))
            return snapshot

        monkeypatch.setattr(pipeline, "load_snapshot", lambda path: parsed.append(path) or load(path))
        monkeypatch.setattr(pipeline, "score_population", counted_score)
        cfg = RunConfig.from_file(make_config(dataset, tmp_path / "config.json"))
        out = tmp_path / "out"
        gc.disable()
        try:
            run_pipeline(cfg, out, mode="all")
            # evaluate and simulate take what score wrote, and nothing holds it once simulate returns
            assert len(scored) == 1 and scored[0]() is None
        finally:
            gc.enable()
        assert parsed == []

    def test_score_alone_holds_no_snapshot(self, full_run, tmp_path, monkeypatch):
        scored = []
        score = pipeline.score_population

        def counted_score(*args, **kwargs):
            snapshot = score(*args, **kwargs)
            scored.append(weakref.ref(snapshot))
            return snapshot

        monkeypatch.setattr(pipeline, "score_population", counted_score)
        out = tmp_path / "out"
        shutil.copytree(full_run[1], out)
        gc.disable()  # so that only a reference, not a collection, can free the snapshot
        try:
            run_pipeline(full_run[0], out, mode="score")  # no later stage of its run reads what score wrote
            assert len(scored) == 1 and scored[0]() is None
        finally:
            gc.enable()

    def test_nothing_holds_the_prior_snapshot_once_features_returns(self, dataset, full_run, tmp_path, monkeypatch):
        # a day-2 run: the first run's snapshot is the prior, which only features reads
        parsed, alive = [], []
        load, stage = pipeline.load_snapshot, pipeline._STAGE_FUNCS["features"]

        def counted_load(path):
            snapshot = load(path)
            parsed.append(weakref.ref(snapshot))
            return snapshot

        def features_stage(run):
            counts = stage(run)
            alive.extend(ref() is not None for ref in parsed)
            return counts

        monkeypatch.setattr(pipeline, "load_snapshot", counted_load)
        monkeypatch.setitem(pipeline._STAGE_FUNCS, "features", features_stage)
        cfg = RunConfig.from_file(make_config(
            dataset, tmp_path / "config.json", prior_snapshot=str(full_run[1] / "snapshot.txt"),
            reference_time=1_700_000_000 + 86_400,
        ))
        gc.disable()  # so that only a reference, not a collection, can free the snapshot
        try:
            run_pipeline(cfg, tmp_path / "out", mode="all")
        finally:
            gc.enable()
        assert alive == [False]  # features parsed the prior once, and nothing held it after
        raw = (tmp_path / "out" / "features" / "raw_features.txt").read_text()
        assert "/higher/" in raw and "/peers/" in raw  # the prior scores were read
