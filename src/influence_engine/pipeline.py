"""Pipeline orchestration: stage execution, persistence, and manifests.

Stages communicate only through files in the output directory, so any
stage can be re-run in isolation and reproduces its outputs bit-exactly
from the upstream artifacts.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

from . import features as feat
from . import lineio
from .evaluation import (
    load_reference,
    ndcg,
    order_by_external_scores,
    rank_correlation,
)
from .events import MAX_WINDOW_DAYS, TimeWindow
from .features import load_store
from .graph import edges_by_network, graph_summary
from .hierarchy import (
    ScoreSnapshot,
    load_snapshot,
    load_tree,
    save_snapshot,
    score_population,
)
from .ingest import INPUT_FILES, load_batch, read_ingested, read_ingested_labels
from .population import (
    CampaignParams,
    PopulationParams,
    generate_population,
    load_latent,
    run_campaign,
)
from .registry import FeatureRegistry
from .training import load_model, preprocess_labels, save_model, train_network

STAGES = ("ingest", "features", "train", "score", "evaluate", "simulate")


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: str):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


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

        def resolve(key, required=False):
            if required and not data.get(key):
                raise KeyError(key)
            return (base / data[key]).resolve() if data.get(key) else None

        return cls(
            input_dir=resolve("input_dir", required=True),
            registry_path=resolve("registry", required=True),
            tree_path=resolve("tree", required=True),
            reference_time=int(data["reference_time"]),
            seed=int(data.get("seed", 0)),
            prior_snapshot=resolve("prior_snapshot"),
            latent_path=resolve("latent"),
            reference_rankings=tuple(
                (base / p).resolve() for p in data.get("reference_rankings", ())
            ),
            population_path=resolve("population"),
        )

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


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _sha256_or_none(path: Path | None) -> str | None:
    # a stage that needs a missing file fails on its own; the digest does not
    return _sha256(path) if path is not None and path.is_file() else None


def _normalized_path(out: Path) -> Path:
    return out / "features" / "normalized_features.txt"


def _graph_stats_path(out: Path) -> Path:
    # one line per registered network: its name, then graph_summary's values as
    # key=repr tokens (zeros for a network with no edges); ingest writes it so
    # that score need not read the edges
    return out / "ingest" / "graph_stats.txt"


# -- stages ----------------------------------------------------------------

def stage_ingest(cfg: RunConfig, out: Path) -> dict[str, int]:
    registry = FeatureRegistry.load(cfg.registry_path)
    batch, report = load_batch(cfg.input_dir, cfg.reference_time, registry)
    dest = out / "ingest"
    lineio.write_lines(dest / "events.txt", sorted(map(lineio.encode_event, batch.events)))
    lineio.write_lines(
        dest / "profiles.txt",
        sorted(lineio.encode_profile(p) for p in batch.profiles.values()),
    )
    lineio.write_lines(dest / "edges.txt", sorted(lineio.encode_edge(e) for e in batch.edges))
    lineio.write_lines(dest / "labels.txt", sorted(lineio.encode_label(l) for l in batch.labels))
    grouped = edges_by_network(batch.edges)
    stats_lines = []
    for network in sorted(registry.networks):
        stats = sorted(graph_summary(grouped.get(network, [])).items())
        stats_lines.append("\t".join([network] + [f"{key}={value!r}" for key, value in stats]))
    lineio.write_lines(_graph_stats_path(out), stats_lines)
    lineio.write_lines(dest / "load_report.txt", [report.summary_line()])
    print(report.summary_line())
    return {
        "accepted_events": report.accepted_events,
        "profiles": report.profiles,
        "edges": report.edges,
        "labels": report.labels,
    }


def stage_features(cfg: RunConfig, out: Path) -> dict[str, int]:
    registry = FeatureRegistry.load(cfg.registry_path)
    batch = read_ingested(out / "ingest", cfg.reference_time, registry)
    prior = {}
    if cfg.prior_snapshot is not None:
        prior = load_snapshot(cfg.prior_snapshot).prior_scores()
    dynamic = feat.aggregate_dynamic(batch, prior, registry)
    unconverged: list[str] = []
    longlasting, unregistered = feat.aggregate_longlasting(batch, registry, unconverged)
    table = dynamic.concat(longlasting)
    maxima = feat.compute_global_maxima(table)
    for network in unconverged:
        print(f"warning\tpagerank-unconverged\tnetwork={network}")

    dest = out / "features"
    feat.dump_table(table, dest / "raw_features.txt")
    feat.dump_maxima(maxima, dest / "maxima.txt")
    # a key that is 0 for every user has no recorded maximum and normalizes to 0
    maximum = [maxima.get(key, 0.0) for key in table.keys]
    per_cell = map(maximum.__getitem__, table.key.tolist())
    table.value[:] = list(map(feat.normalize, table.value.tolist(), per_cell))
    feat.dump_table(table, _normalized_path(out))
    return {
        "raw_cells": len(table.value),
        "feature_keys": len(maxima),
        "unregistered_attrs": unregistered,
        "pagerank_unconverged": len(unconverged),
    }


def stage_train(cfg: RunConfig, out: Path) -> dict[str, int]:
    registry = FeatureRegistry.load(cfg.registry_path)
    labels = read_ingested_labels(out / "ingest")
    store = load_store(_normalized_path(out), registry)
    pairs = preprocess_labels(labels)

    models_dir = out / "models"
    report_lines = []
    trained = unconverged = 0
    for network in registry.scorable_networks():
        net_pairs = [p for p in pairs if p.network == network]
        if not net_pairs:
            report_lines.append(f"model\tnetwork={network}\tskipped=no-pairs")
            continue
        w, report = train_network(net_pairs, store, registry, network, seed=cfg.seed)
        save_model(w, registry, models_dir / f"{network}.model")
        report_lines.append(report.summary_line())
        trained += 1
        if not w.converged:
            unconverged += 1
            print(f"warning\tnnls-unconverged\tnetwork={network}")
    lineio.write_lines(out / "model_report.txt", report_lines)
    for line in report_lines:
        print(line)
    return {"clean_pairs": len(pairs), "models": trained, "nnls_unconverged": unconverged}


def stage_score(cfg: RunConfig, out: Path) -> dict[str, int]:
    registry = FeatureRegistry.load(cfg.registry_path)
    store = load_store(_normalized_path(out), registry)
    tree = load_tree(cfg.tree_path)

    models = {}
    for node in tree.walk():
        if node.is_leaf and node.network not in models:
            model_path = out / "models" / f"{node.network}.model"
            if not model_path.exists():
                raise StageError("score", f"missing model file {model_path}")
            models[node.network] = load_model(model_path, registry)

    stats = {}
    for line in lineio.read_lines(_graph_stats_path(out)):
        network, *tokens = line.split("\t")
        stats[network] = {key: float(value) for key, value in (t.split("=") for t in tokens)}
    as_of = TimeWindow(cfg.reference_time, MAX_WINDOW_DAYS).reference_date()
    snapshot = score_population(tree, store, models, stats, as_of=as_of)
    save_snapshot(snapshot, out / "snapshot.txt")
    return {"scored_users": len(snapshot.entries)}


def stage_evaluate(cfg: RunConfig, out: Path) -> dict[str, int]:
    snapshot = load_snapshot(out / "snapshot.txt")
    lines = []
    checks = 0
    if cfg.latent_path is not None:
        rho = rank_correlation(snapshot.prior_scores(), load_latent(cfg.latent_path))
        lines.append(f"latent_spearman\trho={repr(rho)}")
        checks += 1
    for path in cfg.reference_rankings:
        reference = load_reference(path)
        p = len(reference.ordered_entities)
        evaluated = order_by_external_scores(reference)
        value = ndcg(reference, evaluated, p)
        lines.append(f"ndcg\treference={reference.name}\tp={p}\tvalue={repr(value)}")
        checks += 1
    lineio.write_lines(out / "eval_report.txt", lines)
    for line in lines:
        print(line)
    return {"evaluations": checks}


def stage_simulate(cfg: RunConfig, out: Path) -> dict[str, int]:
    if cfg.population_path is None:
        raise StageError("simulate", "config has no population descriptor")
    data = json.loads(Path(cfg.population_path).read_text())
    pop = generate_population(PopulationParams.from_dict(data["params"]), data["seed"])
    snapshot = load_snapshot(out / "snapshot.txt")
    result = run_campaign(pop, snapshot, CampaignParams(), cfg.seed)
    lineio.write_lines(out / "campaign_report.txt", result.report_lines())
    for line in result.report_lines():
        print(line)
    return {"targeted": len(result.records)}


_STAGE_FUNCS = {
    "ingest": stage_ingest,
    "features": stage_features,
    "train": stage_train,
    "score": stage_score,
    "evaluate": stage_evaluate,
    "simulate": stage_simulate,
}


def stages_for_mode(cfg: RunConfig, mode: str) -> list[str]:
    if mode == "all":
        stages = ["ingest", "features", "train", "score"]
        if cfg.latent_path is not None or cfg.reference_rankings:
            stages.append("evaluate")
        if cfg.population_path is not None:
            stages.append("simulate")
        return stages
    if mode not in STAGES:
        raise ValueError(f"unknown mode {mode!r}")
    return [mode]


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
        except StageError:
            raise
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
            lines.append(f"input.{name}.sha256={_sha256(path)}")
    for stage in STAGES:
        for key, value in sorted(counts.get(stage, {}).items()):
            lines.append(f"stage.{stage}.{key}={value}")
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name not in ("manifest.txt", "timings.txt"):
            rel = path.relative_to(out).as_posix()
            lines.append(f"output.{rel}.sha256={_sha256(path)}")
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
