import functools
import json
import math
from collections import defaultdict
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import influence_engine
from influence_engine import features, graph, lineio, nnls, pipeline, training
from influence_engine.cli import main
from influence_engine.hierarchy import (
    ScoreEntry,
    ScoreSnapshot,
    l2_combine,
    load_snapshot,
    load_tree,
    save_snapshot,
)
from influence_engine.ingest import load_batch
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
        before = (copy / "features" / "normalized_features.txt").read_bytes()
        run_pipeline(cfg, copy, mode="features")
        assert (copy / "features" / "normalized_features.txt").read_bytes() == before
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
        # and the edges: score reads the graph statistics that ingest wrote
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
        [("features", "events.txt", "timestamp="), ("train", "labels.txt", "votes_a=")],
    )
    def test_rerun_fails_on_a_corrupted_ingest_file(self, full_run, tmp_path, stage, name, token):
        cfg, out = full_run
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        damaged = copy / "ingest" / name
        lines = damaged.read_text().splitlines()
        lines[len(lines) // 2] = lines[len(lines) // 2].replace(token, token + "x")
        damaged.write_text("\n".join(lines) + "\n")
        with pytest.raises(StageError) as failed:
            run_pipeline(cfg, copy, mode=stage)
        assert failed.value.stage == stage

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
        monkeypatch.setattr(features, "pagerank", functools.partial(graph.pagerank, max_iter=1))
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
    def test_edges_are_read_only_for_graph_attributes(self, dataset, tmp_path, graph):
        def edit(data):
            if graph:
                data["networks"]["tw"]["longlasting_attrs"].append("inlinks")

        registry = edited_registry(dataset, tmp_path / "registry.json", edit)
        cfg = RunConfig.from_file(make_config(dataset, tmp_path / "config.json", registry=str(registry)))
        out = tmp_path / "out"
        run_pipeline(cfg, out, mode="ingest")
        run_pipeline(cfg, out, mode="features")
        dumps = {p.name: p.read_bytes() for p in (out / "features").iterdir()}
        (out / "ingest" / "edges.txt").unlink()
        if graph:
            with pytest.raises(StageError):
                run_pipeline(cfg, out, mode="features")
        else:
            run_pipeline(cfg, out, mode="features")
            assert {p.name: p.read_bytes() for p in (out / "features").iterdir()} == dumps


class TestTrainStage:
    def test_unconverged_nnls_is_counted_and_warned(self, full_run, tmp_path, monkeypatch, capsys):
        cfg, first = full_run
        assert "stage.train.nnls_unconverged=0" in (first / "manifest.txt").read_text().splitlines()

        out = tmp_path / "out"
        shutil.copytree(first, out)
        monkeypatch.setattr(
            training, "nnls", lambda X, y, max_iter: nnls.nnls(X, y, max_iter=1)
        )
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
        for line in lineio.read_lines(out / "ingest" / "graph_stats.txt"):
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


class TestCLI:
    @pytest.mark.parametrize(
        "edit",
        [
            lambda data: {},
            lambda data: [],
            lambda data: {**data, "reference_time": None},
            lambda data: {**data, "seed": None},
        ],
        ids=["empty", "not-an-object", "null-reference-time", "null-seed"],
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

    @pytest.mark.parametrize("band", [0.0, -1.0, math.nan, math.inf])
    def test_a_peer_band_not_finite_and_above_zero_fails_ingest(self, dataset, tmp_path, capsys, band):
        registry = edited_registry(
            dataset, tmp_path / "registry.json", lambda data: data.update(peer_band=band)
        )
        config = make_config(dataset, tmp_path / "config.json", registry=str(registry))
        code = main(["all", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "peer_band" in capsys.readouterr().err

    def test_stage_failure_maps_to_stage_exit_code(self, dataset, tmp_path, capsys):
        config = make_config(dataset, tmp_path / "config.json")
        code = main(["score", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 5

    def test_single_stage_success(self, dataset, tmp_path, capsys):
        config = make_config(dataset, tmp_path / "config.json")
        code = main(["ingest", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 0
        assert (tmp_path / "o" / "ingest" / "events.txt").is_file()

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

    @pytest.mark.parametrize("content", [None, b"caf\xe9\n"], ids=["missing", "not-utf8"])
    def test_rank_with_an_unreadable_users_file_exits_one(self, full_run, tmp_path, capsys, content):
        _, out = full_run
        users_file = tmp_path / "users.txt"
        if content is not None:
            users_file.write_bytes(content)
        code = main(["rank", "--snapshot", str(out / "snapshot.txt"), "--users", str(users_file)])
        assert code == 1
        assert "bad users file" in capsys.readouterr().err

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
