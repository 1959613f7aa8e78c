"""Pipeline orchestration: stage execution, persistence, and manifests.

Stages communicate only through files in the output directory, so any
stage can be re-run in isolation and reproduces its outputs bit-exactly
from the upstream artifacts. ``RunConfig.from_file`` parses the registry
and the score tree once, for every stage; ``_STAGE_FUNCS`` is the stage table.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import features as feat
from . import lineio
from .evaluation import (
    TooFewUsers,
    load_reference,
    ndcg,
    order_by_external_scores,
    rank_correlation,
)
from .events import MAX_WINDOW_DAYS, TimeWindow
from .features import load_store
from .graph import GRAPH_STATS
from .hierarchy import (
    ScoreNode,
    ScoreSnapshot,
    _parse_snapshot,
    load_snapshot,
    load_tree,
    save_snapshot,
    score_population,
)
from .ingest import INPUT_FILES, load_batch
from .registry import FeatureRegistry, json_known
from .training import EmptyDesign, WeightVector, load_model, preprocess_labels, save_model, train_network

class StageError(RuntimeError):
    def __init__(self, stage: str, cause: str):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage


# the keys of a run config, and those of older configs, which are accepted and ignored
_CONFIG_KEYS = ("input_dir", "registry", "tree", "reference_time", "seed", "prior_snapshot",
                "latent", "reference_rankings", "population")
_RETIRED_KEYS = ("shards", "holdout_fraction", "nnls_tol", "campaign")


@dataclass(frozen=True)
class RunConfig:
    input_dir: Path
    registry_path: Path
    tree_path: Path
    reference_time: int
    seed: int = 0
    prior_snapshot: Path | None = None
    latent_path: Path | None = None
    reference_rankings: tuple[Path, ...] = ()
    population_path: Path | None = None

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        """A JSON config; ``input_dir``, ``registry``, ``tree`` and
        ``reference_time`` are required, paths relative to its directory."""
        base = Path(path).parent
        data = json.loads(Path(path).read_text())
        if not isinstance(data, dict):
            raise ValueError(f"{path}: not a JSON object")
        try:
            json_known("", data, (*_CONFIG_KEYS, *_RETIRED_KEYS))
        except TypeError as exc:
            raise TypeError(f"{path}: {exc}") from None

        def integer(key, default=None):
            value = data[key] if default is None else data.get(key, default)
            if type(value) is not int:  # int() would truncate a float and take a bool
                raise ValueError(f"{key} must be an integer, not {value!r}")
            return value

        def resolve(key, required=False):
            if required and not data.get(key):
                raise KeyError(key)
            return (base / data[key]).resolve() if data.get(key) else None

        rankings = data.get("reference_rankings", [])
        if type(rankings) is not list:  # a string would read as one path per character
            raise ValueError(f"reference_rankings must be a list, not {rankings!r}")
        cfg = cls(
            input_dir=resolve("input_dir", required=True),
            registry_path=resolve("registry", required=True),
            tree_path=resolve("tree", required=True),
            reference_time=integer("reference_time"),
            seed=integer("seed", 0),
            prior_snapshot=resolve("prior_snapshot"),
            latent_path=resolve("latent"),
            reference_rankings=tuple((base / p).resolve() for p in rankings),
            population_path=resolve("population"),
        )
        unknown = sorted(set(cfg.tree.leaf_networks()) - set(cfg.registry.scorable_networks()))
        if unknown:
            raise ValueError(f"tree leaves on networks the registry cannot score: {unknown}")
        return cfg

    # derived from the paths, so ``dataclasses.replace`` parses them afresh
    @cached_property
    def registry(self) -> FeatureRegistry:
        return FeatureRegistry.load(self.registry_path)

    @cached_property
    def tree(self) -> ScoreNode:
        return load_tree(self.tree_path)

    def config_digest(self) -> str:
        """Hash of the settings and of the contents of every file they name.

        Paths are left out, so the same inputs in another directory give the
        same digest; the input directory's files are hashed in the manifest.
        """
        payload = json.dumps(
            {
                "registry": _sha256_or_none(self.registry_path),
                "tree": _sha256_or_none(self.tree_path),
                "reference_time": self.reference_time,
                "seed": self.seed,
                "prior_snapshot": _sha256_or_none(self.prior_snapshot),
                "latent": _sha256_or_none(self.latent_path),
                "reference_rankings": [_sha256_or_none(p) for p in self.reference_rankings],
                "population": _sha256_or_none(self.population_path),
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()


def _sha256_or_none(path: Path | None) -> str | None:
    # a stage that needs a missing file fails on its own; the digest does not
    return lineio.sha256(path) if path is not None and path.is_file() else None


def _normalized_path(out: Path) -> Path:
    return out / "features" / "normalized_features.txt"


def _graph_stats_path(out: Path) -> Path:
    # per registered network, its name and sorted GRAPH_STATS as key=repr tokens; features
    # writes it outside features/, which holds feature dumps, so score need not read edges
    return out / "graph_stats.txt"


def _report(path: Path, lines: list[str]) -> None:
    lineio.write_lines(path, lines)
    for line in lines:
        print(line)


# -- stages ----------------------------------------------------------------

def stage_ingest(cfg: RunConfig, out: Path) -> dict[str, int]:
    batch, report = load_batch(cfg.input_dir, cfg.reference_time, cfg.registry)
    dest = out / "ingest"
    for name, lines in zip(INPUT_FILES, batch):
        lineio.write_lines(dest / name, lines)
    _report(dest / "load_report.txt", [report.summary_line()])
    return {
        "accepted_events": report.accepted_events,
        "profiles": report.profiles,
        "edges": report.edges,
        "labels": report.labels,
    }


def stage_features(cfg: RunConfig, out: Path) -> dict[str, int]:
    # ingest wrote these files and left only valid, in-window, unique records
    # in them, so only the data model is checked again; a line that does not
    # decode, or that does not hold its fields in ingest's order, is damage and
    # raises, naming its file
    ingested = out / "ingest"
    prior = {}
    if cfg.prior_snapshot is not None:  # parsed, not held: no later stage reads it
        with lineio.naming(cfg.prior_snapshot):
            prior = _parse_snapshot(cfg.prior_snapshot).prior_scores()
    # each input goes straight into its call, so that no two are held at once
    dynamic = feat.aggregate_dynamic(
        lineio.read_event_columns(ingested / "events.txt"), cfg.reference_time, prior, cfg.registry
    )
    longlasting, unregistered, unconverged, stats = feat.aggregate_longlasting(
        lineio.read_profiles(ingested / "profiles.txt"),
        lineio.read_edges(ingested / "edges.txt"), cfg.registry,
    )
    table = dynamic.concat(longlasting)
    del dynamic, longlasting  # so that the store's build finds their memory free
    maxima = feat.compute_global_maxima(table)
    for network in unconverged:
        print(f"warning\tpagerank-unconverged\tnetwork={network}")

    dest = out / "features"
    feat.dump_table(table, dest / "raw_features.txt")
    feat.dump_maxima(maxima, dest / "maxima.txt")
    feat.normalize_table(table, maxima)
    feat.dump_store(table, _normalized_path(out), cfg.registry, _readers(cfg, "train", "score"))
    lineio.write_lines(_graph_stats_path(out), (
        "\t".join([network] + [f"{key}={value!r}" for key, value in sorted(values.items())])
        for network, values in stats.items()
    ))
    return {
        "raw_cells": len(table.value),
        "feature_keys": len(maxima),
        "unregistered_attrs": unregistered,
        "pagerank_unconverged": len(unconverged),
    }


def stage_train(cfg: RunConfig, out: Path) -> dict[str, int]:
    registry = cfg.registry
    labels = lineio.read_labels(out / "ingest" / "labels.txt")
    store = load_store(_normalized_path(out), registry)
    pairs = preprocess_labels(labels)

    report_lines = []
    trained = unconverged = 0
    for network in registry.scorable_networks():
        try:
            w, report = train_network(pairs, store, registry, network, seed=cfg.seed)
        except EmptyDesign as thin:  # a zero-weight model scores 0 on this network
            w = WeightVector(network, np.zeros(len(registry.keys_for(network))), registry.registry_hash(network))
            report_lines.append(f"model\tnetwork={network}\tunfitted={thin}")
            print(f"warning\t{thin}\tnetwork={network}")
        else:
            report_lines.append(report.summary_line())
            trained += 1
            if not w.converged:
                unconverged += 1
                print(f"warning\tnnls-unconverged\tnetwork={network}")
        save_model(w, registry, out / "models" / f"{network}.model")
    _report(out / "model_report.txt", report_lines)
    return {"clean_pairs": len(pairs), "models": trained, "nnls_unconverged": unconverged}


def stage_score(cfg: RunConfig, out: Path) -> dict[str, int]:
    store = load_store(_normalized_path(out), cfg.registry)
    models = {}
    for network in dict.fromkeys(cfg.tree.leaf_networks()):
        model_path = out / "models" / f"{network}.model"
        if not model_path.exists():
            raise ValueError(f"missing model file {model_path}")
        models[network] = load_model(model_path, cfg.registry)

    keys = sorted(GRAPH_STATS)  # in the order stage_features writes them
    with lineio.naming(_graph_stats_path(out)):
        names, *columns = lineio.read_columns(
            _graph_stats_path(out), [("", str, None), *((f"{key}=", float, None) for key in keys)]
        )
    stats = {network: dict(zip(keys, values)) for network, *values in zip(names, *columns)}
    as_of = TimeWindow(cfg.reference_time, MAX_WINDOW_DAYS).reference_date()
    snapshot = score_population(cfg.tree, store, models, stats, as_of=as_of)
    save_snapshot(snapshot, out / "snapshot.txt", _readers(cfg, "evaluate", "simulate"))
    return {"scored_users": len(snapshot.entries)}


def stage_evaluate(cfg: RunConfig, out: Path) -> dict[str, int]:
    snapshot = load_snapshot(out / "snapshot.txt")
    lines = []  # one per check
    if cfg.latent_path is not None:
        from .population import load_latent  # only where it is used, to keep start-up short
        scores, latent = snapshot.prior_scores(), load_latent(cfg.latent_path)
        try:
            rho = rank_correlation(scores, latent)
        except TooFewUsers:  # too few to rank: no correlation, and the run goes on
            rho = math.nan
            print(f"warning\ttoo-few-users\tshared={len(scores.keys() & latent.keys())}")
        lines.append(f"latent_spearman\trho={repr(rho)}")
    for path in cfg.reference_rankings:
        reference = load_reference(path)
        p = len(reference.ordered_entities)
        value = ndcg(reference, order_by_external_scores(reference), p)
        lines.append(f"ndcg\treference={reference.name}\tp={p}\tvalue={repr(value)}")
    _report(out / "eval_report.txt", lines)
    return {"evaluations": len(lines)}


def stage_simulate(cfg: RunConfig, out: Path) -> dict[str, int]:
    if cfg.population_path is None:
        raise ValueError("config has no population descriptor")
    from .population import CampaignParams, load_campaign_population, run_campaign
    pop = load_campaign_population(cfg.population_path)
    snapshot = load_snapshot(out / "snapshot.txt")
    result = run_campaign(pop, snapshot, CampaignParams(), cfg.seed)
    _report(out / "campaign_report.txt", result.report_lines())
    return {"targeted": len(result.records)}


_STAGE_FUNCS = {
    "ingest": stage_ingest,
    "features": stage_features,
    "train": stage_train,
    "score": stage_score,
    "evaluate": stage_evaluate,
    "simulate": stage_simulate,
}
STAGES = tuple(_STAGE_FUNCS)


def stages_for_mode(cfg: RunConfig, mode: str) -> list[str]:
    if mode == "all":  # every stage but one the config names no input for
        wanted = {
            "evaluate": cfg.latent_path is not None or bool(cfg.reference_rankings),
            "simulate": cfg.population_path is not None,
        }
        return [stage for stage in STAGES if wanted.get(stage, True)]
    if mode not in STAGES:
        raise ValueError(f"unknown mode {mode!r}")
    return [mode]


def _readers(cfg: RunConfig, *stages: str) -> int:
    """How many of ``stages``, which read a file, an ``all`` run of ``cfg`` runs."""
    return len(set(stages).intersection(stages_for_mode(cfg, "all")))


def run_pipeline(cfg: RunConfig, out: str | Path, mode: str = "all") -> Path:
    """Execute the requested stages and write a deterministic manifest.

    Wall-clock timings go to a separate file so the manifest is a pure
    function of inputs, config, and seed.
    """
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    counts: dict[str, dict[str, int]] = {}
    timings = []
    for stage in stages_for_mode(cfg, mode):
        started = time.monotonic()
        try:
            counts[stage] = _STAGE_FUNCS[stage](cfg, out)
        except Exception as exc:  # noqa: BLE001 - rewrap with the stage name
            raise StageError(stage, str(exc)) from exc
        timings.append(f"{stage}\t{time.monotonic() - started:.3f}s")
    lineio.write_lines(out / "timings.txt", timings)
    write_manifest(cfg, out, counts)
    return out / "manifest.txt"


def write_manifest(cfg: RunConfig, out: Path, counts: dict[str, dict[str, int]]) -> None:
    lines = [f"config_hash={cfg.config_digest()}"]
    for name in INPUT_FILES:
        path = cfg.input_dir / name
        if path.exists():
            lines.append(f"input.{name}.sha256={lineio.sha256(path)}")
    for stage in STAGES:
        for key, value in sorted(counts.get(stage, {}).items()):
            lines.append(f"stage.{stage}.{key}={value}")
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name not in ("manifest.txt", "timings.txt"):
            rel = path.relative_to(out).as_posix()
            lines.append(f"output.{rel}.sha256={lineio.sha256(path)}")
    lineio.write_lines(out / "manifest.txt", lines)


def rank_cohort(snapshot: ScoreSnapshot, users: list[str]) -> list[tuple[str, float | None]]:
    """Descending score order, id tie-break; unknown users trail unscored."""
    scored = []
    unknown = []
    for user in users:
        score = snapshot.overall(user)
        if score is None:
            unknown.append(user)
        else:
            scored.append((user, score))
    scored.sort(key=lambda us: (-us[1], us[0]))
    return scored + [(u, None) for u in sorted(unknown)]
