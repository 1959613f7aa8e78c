"""Benchmark workloads: deterministic synthetic inputs, cached per seed.

Every input comes from ``influence_engine.population`` and the seed, so the
same (workload, seed) always yields byte-identical files. A generated set is
cached together with the sha256 of each file and is regenerated whenever a
digest no longer matches. Generation is never timed.

Three shapes of the daily batch job are modelled:

- ``bootstrap``: a first run with no prior snapshot; events and parsing
  dominate.
- ``daily``: the same population run as day 2 of a daily job. The
  reference time moves one day forward, so some events expire; the log
  carries re-delivered and truncated lines; a prior snapshot written from
  the generator's latent ranks makes the ``higher`` and ``peers`` cohorts
  fire; the run is split into 8 shards.
- ``graph``: many users and few events, with PageRank, in-links and the
  in/out-link ratio registered on every network, so edge decoding,
  PageRank and per-user scoring carry the load.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SECONDS_PER_DAY = 86400
WINDOW_SECONDS = 90 * SECONDS_PER_DAY
REDELIVERED_SHARE = 0.05
TRUNCATED_SHARE = 0.005
GRAPH_ATTRS = ("inlinks", "pagerank", "inlink_outlink_ratio")


@dataclass(frozen=True)
class Workload:
    kind: str  # "bootstrap", "daily" or "graph"
    n_users: int

    def params(self):
        from influence_engine.population import PopulationParams

        reactions = 5.0 if self.kind == "graph" else 50.0
        return PopulationParams(
            n_users=self.n_users,
            mean_reactions_per_user=reactions,
            label_pairs=self.n_users * 4 // 5,
        )


WORKLOADS = {
    "bootstrap_700": Workload("bootstrap", 700),
    "daily_700": Workload("daily", 700),
    "graph_1400": Workload("graph", 1400),
    # Not in BENCHMARK.json: the full-size first run the ROADMAP Baseline
    # was taken on, kept to cross-check the harness against it.
    "bootstrap_5k": Workload("bootstrap", 5000),
}


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _digests(directory: Path) -> dict[str, str]:
    return {
        p.name: sha256_file(p)
        for p in sorted(directory.iterdir())
        if p.is_file() and p.name != "meta.json"
    }


def prepare_inputs(workload: Workload, seed: int, directory: Path) -> dict:
    """Return the input set's metadata, generating the set if the cached
    one is missing or fails its recorded digests."""
    meta_path = directory / "meta.json"
    if meta_path.exists():
        meta = json.loads(meta_path.read_text())
        if meta.get("inputs") == _digests(directory):
            return meta
    tmp = directory.with_name(directory.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    meta = generate_inputs(workload, seed, tmp)
    meta["inputs"] = _digests(tmp)
    (tmp / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    shutil.rmtree(directory, ignore_errors=True)
    tmp.rename(directory)
    return meta


def generate_inputs(workload: Workload, seed: int, directory: Path) -> dict:
    """Write one input set plus config.json; return injected and expected
    load counts."""
    from influence_engine import lineio
    from influence_engine.population import generate_population, write_dataset

    params = workload.params()
    pop = generate_population(params, seed)
    write_dataset(pop, directory)
    config = {
        "input_dir": ".",
        "registry": "registry.json",
        "tree": "tree.json",
        "reference_time": params.reference_time,
        "seed": seed,
        "shards": 1,
        "latent": "latent.txt",
        "population": "population.json",
    }
    event_lines = list(lineio.read_lines(directory / "events.txt"))
    injected = {"redelivered": 0, "truncated": 0}
    valid = [True] * len(event_lines)

    if workload.kind == "graph":
        registry = json.loads((directory / "registry.json").read_text())
        for spec in registry["networks"].values():
            spec["longlasting_attrs"] = [*spec["longlasting_attrs"], *GRAPH_ATTRS]
        (directory / "registry.json").write_text(json.dumps(registry, indent=2) + "\n")

    if workload.kind == "daily":
        config["reference_time"] = params.reference_time + SECONDS_PER_DAY
        config["shards"] = 8
        config["prior_snapshot"] = "prior_snapshot.txt"
        rng = np.random.default_rng((seed, 101))
        n = len(event_lines)
        redelivered = rng.choice(n, size=round(n * REDELIVERED_SHARE), replace=False)
        truncated = rng.choice(n, size=round(n * TRUNCATED_SHARE), replace=False)
        copies = [event_lines[i] for i in sorted(redelivered)]
        for i in sorted(truncated):
            # Cut before the timestamp token, so the record can never parse.
            end = event_lines[i].index("\ttimestamp=")
            event_lines[i] = event_lines[i][: int(rng.integers(1, end + 1))]
            valid[i] = False
        event_lines += copies
        valid += [True] * len(copies)
        lineio.write_lines(directory / "events.txt", event_lines)
        injected = {"redelivered": len(copies), "truncated": len(truncated)}
        _write_prior_snapshot(pop, params.reference_time, directory / "prior_snapshot.txt")

    (directory / "config.json").write_text(json.dumps(config, indent=2) + "\n")
    return {
        "workload": workload.kind,
        "n_users": workload.n_users,
        "seed": seed,
        "injected": injected,
        "expected_load": _expected_load(event_lines, valid, config["reference_time"], directory),
    }


def _write_prior_snapshot(pop, reference_time: int, path: Path) -> None:
    """A previous day's snapshot: overall score = latent percentile rank."""
    from datetime import datetime, timezone

    as_of = datetime.fromtimestamp(reference_time, tz=timezone.utc).date()
    ranked = sorted(pop.users, key=lambda u: (pop.latent[u], u))
    scores = {u: 100.0 * (i + 1) / len(ranked) for i, u in enumerate(ranked)}
    lines = [f"as_of={as_of.isoformat()}"]
    lines += [f"{u}\t{scores[u]!r}\t{scores[u] / 100.0!r}\t" for u in sorted(scores)]
    path.write_text("\n".join(lines) + "\n")


def _expected_load(event_lines, valid, reference_time: int, directory: Path) -> dict[str, int]:
    """What ``load_report.txt`` must say, from the generator's own lines.

    The encoder writes one canonical line per event, so equal lines are
    equal dedup keys.
    """
    counts = {"accepted": 0, "expired": 0, "duplicates": 0, "malformed": 0}
    seen = set()
    start = reference_time - WINDOW_SECONDS
    for line, ok in zip(event_lines, valid):
        if not ok:
            counts["malformed"] += 1
        elif not start < int(line.rsplit("\ttimestamp=", 1)[1]) < reference_time:
            counts["expired"] += 1
        elif line in seen:
            counts["duplicates"] += 1
        else:
            seen.add(line)
            counts["accepted"] += 1
    for name in ("edges", "labels"):
        with (directory / f"{name}.txt").open() as fh:
            counts[name] = sum(1 for line in fh if line.strip())
    return counts
