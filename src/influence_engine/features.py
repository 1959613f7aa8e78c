"""Feature generation: tuple-aggregated dynamic counts, long-lasting
profile/graph signals, and global-max log normalization.

Dynamic aggregation is a commutative, associative fold keyed by
(author, feature key): shards merge by addition, so any author-disjoint
partitioning produces the identical table.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from . import lineio
from .events import SECONDS_PER_DAY, InteractionEvent
from .graph import (
    degree_stats,
    edges_by_network,
    inlink_outlink_ratio,
    pagerank,
)
from .ingest import IngestBatch, partition_by_author
from .registry import FeatureRegistry, dynamic_key, longlasting_key

COHORT_ALL = "all"
COHORT_HIGHER = "higher"
COHORT_PEERS = "peers"


@dataclass(frozen=True)
class CohortContext:
    """Audience comparator built from the previous run's score snapshot.

    With no prior scores (bootstrap run) only the ``all`` cohort fires.
    """

    prior_scores: Mapping[str, float] = field(default_factory=dict)
    peer_band: float = 5.0

    def __post_init__(self):
        if self.peer_band <= 0:
            raise ValueError("peer_band must be > 0")


def conditional_emit(
    event: InteractionEvent, cohorts: CohortContext, reference_time: int
) -> list[tuple[str, int]]:
    """Expand one event into (cohort, day-index) emissions.

    ``all`` always fires; ``higher``/``peers`` need prior scores for both
    the actor and the author.
    """
    day_index = int((reference_time - event.timestamp) // SECONDS_PER_DAY)
    out = [(COHORT_ALL, day_index)]
    actor_score = cohorts.prior_scores.get(event.actor)
    author_score = cohorts.prior_scores.get(event.author)
    if actor_score is None or author_score is None:
        return out
    # higher and peers are disjoint: within the band is a peer, above it is higher
    if actor_score - author_score > cohorts.peer_band:
        out.append((COHORT_HIGHER, day_index))
    elif abs(actor_score - author_score) <= cohorts.peer_band:
        out.append((COHORT_PEERS, day_index))
    return out


def multiday_sketch(
    day_counts: Mapping[int, int], windows: tuple[int, ...]
) -> dict[int, int]:
    """Expand per-day buckets into trailing-window counts via prefix sums."""
    max_window = max(windows)
    prefix = [0] * (max_window + 1)
    for day, count in day_counts.items():
        if not 0 <= day < max_window:
            raise ValueError(f"day index {day} outside [0, {max_window})")
        prefix[day + 1] += count
    for i in range(1, len(prefix)):
        prefix[i] += prefix[i - 1]
    return {w: prefix[w] for w in windows}


@dataclass
class RawFeatureTable:
    """Sparse (user, feature key) -> non-negative raw value."""

    values: dict[tuple[str, str], float] = field(default_factory=dict)

    def add(self, user: str, key: str, value: float) -> None:
        if value < 0:
            raise ValueError("feature values must be >= 0")
        cell = (user, key)
        self.values[cell] = self.values.get(cell, 0.0) + value

    def merge(self, other: "RawFeatureTable") -> None:
        for cell, value in other.values.items():
            self.values[cell] = self.values.get(cell, 0.0) + value

    def get(self, user: str, key: str) -> float:
        return self.values.get((user, key), 0.0)


def _aggregate_shard(
    batch: IngestBatch, cohorts: CohortContext, registry: FeatureRegistry
) -> RawFeatureTable:
    day_buckets: dict[tuple[str, str, str, str, str], Counter] = defaultdict(Counter)
    for author, events in batch.events_by_author.items():
        for event in events:
            if not registry.networks[event.network].dynamic:
                continue
            for cohort, day in conditional_emit(event, cohorts, batch.reference_time):
                # a cohort the registry leaves out has no place in the key space
                if cohort in registry.cohorts:
                    day_buckets[(author, event.network, event.content_type, event.action, cohort)][day] += 1

    table = RawFeatureTable()
    for (author, network, content, action, cohort), days in day_buckets.items():
        for window, count in multiday_sketch(days, registry.windows).items():
            if count > 0:
                table.add(author, dynamic_key(network, content, action, cohort, window), float(count))
    return table


def aggregate_dynamic(
    batch: IngestBatch,
    cohorts: CohortContext,
    registry: FeatureRegistry,
    shards: int = 1,
) -> RawFeatureTable:
    """Single pass over events, then window expansion; O(event count)."""
    table = RawFeatureTable()
    for shard in partition_by_author(batch, shards):
        table.merge(_aggregate_shard(shard, cohorts, registry))
    return table


def aggregate_longlasting(
    batch: IngestBatch, registry: FeatureRegistry, unconverged: list[str] | None = None
) -> tuple[RawFeatureTable, int]:
    """Profile and graph signals; returns (table, skipped attr count).

    Categorical attributes are mapped to 1-based ordinal ranks; unknown
    category values map to 0. PageRank and the inlink/outlink ratio are
    derived from the edge set for networks that register those attrs.
    Networks whose PageRank stopped at its iteration cap are appended to
    ``unconverged``.
    """
    table = RawFeatureTable()
    skipped = 0
    for (user, network), profile in batch.profiles.items():
        registered = registry.networks[network].longlasting_attrs
        for name, value in profile.numeric_attrs:
            if name in registered:
                table.add(user, longlasting_key(network, name), value)
            else:
                skipped += 1
        for name, category in profile.categorical_attrs:
            if name in registered:
                table.add(user, longlasting_key(network, name), registry.ordinal_value(name, category))
            else:
                skipped += 1

    for network, pairs in sorted(edges_by_network(batch.edges).items()):
        registered = registry.networks[network].longlasting_attrs
        if "pagerank" in registered and pairs:
            result = pagerank(pairs)
            if not result.converged and unconverged is not None:
                unconverged.append(network)
            key = longlasting_key(network, "pagerank")
            for user, score in result.scores.items():
                table.add(user, key, score)
        if "inlink_outlink_ratio" in registered and pairs:
            indeg, outdeg = degree_stats(pairs)
            key = longlasting_key(network, "inlink_outlink_ratio")
            for user, ratio in inlink_outlink_ratio(indeg, outdeg).items():
                table.add(user, key, ratio)
        if "inlinks" in registered and pairs:
            indeg, _ = degree_stats(pairs)
            key = longlasting_key(network, "inlinks")
            for user, deg in indeg.items():
                table.add(user, key, float(deg))
    return table, skipped


def compute_global_maxima(table: RawFeatureTable) -> dict[str, float]:
    maxima: dict[str, float] = {}
    for (_, key), value in table.values.items():
        if value > maxima.get(key, 0.0):
            maxima[key] = value
    return maxima


def normalize(raw: float, maximum: float) -> float:
    """Log normalization against the population maximum: ln(1+x)/ln(1+max).

    Raw feature distributions are heavy-tailed; the log keeps the top of
    the range from swamping everything else while landing in [0,1].
    """
    if raw < 0:
        raise ValueError("raw value must be >= 0")
    if raw > maximum:
        raise ValueError(f"raw value {raw} exceeds recorded maximum {maximum}; stale maxima")
    if maximum == 0:
        return 0.0
    return math.log1p(raw) / math.log1p(maximum)


@dataclass
class FeatureStore:
    """Dense normalized vectors per (user, network), aligned to the frozen
    per-network key ordering."""

    registry: FeatureRegistry
    vectors: dict[tuple[str, str], np.ndarray] = field(default_factory=dict)

    def get(self, user: str, network: str) -> np.ndarray | None:
        return self.vectors.get((user, network))

    def users(self) -> list[str]:
        return sorted({u for (u, _) in self.vectors})


# -- dumps -----------------------------------------------------------------

def dump_table(table: RawFeatureTable, path: str | Path) -> None:
    lines = [
        f"{lineio.encode_value(user)}\t{key}\t{value!r}"
        for (user, key), value in sorted(table.values.items())
    ]
    lineio.write_lines(path, lines)


def load_store(path: str | Path, registry: FeatureRegistry) -> FeatureStore:
    """Read a ``dump_table`` file into vectors aligned to ``keys_for``; a
    (user, network) pair gets a vector iff the file has a line for it."""
    slots: dict[str, tuple[str, int, int]] = {}
    for network in registry.networks:
        keys = registry.keys_for(network)
        for index, key in enumerate(keys):
            slots[key] = (network, index, len(keys))

    store = FeatureStore(registry=registry)
    for line in lineio.read_lines(path):
        user, key, value = line.split("\t")
        if key not in slots:
            raise ValueError(f"feature key {key!r} in {path} is not in the registry")
        network, index, size = slots[key]
        user = lineio.decode_value(user)
        vec = store.vectors.get((user, network))
        if vec is None:
            vec = store.vectors[(user, network)] = np.zeros(size)
        vec[index] = float(value)
    return store


def dump_maxima(maxima: Mapping[str, float], path: str | Path) -> None:
    lineio.write_lines(path, [f"{key}\t{value!r}" for key, value in sorted(maxima.items())])
