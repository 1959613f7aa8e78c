"""Feature generation: dynamic counts in one vectorized integer pass,
long-lasting profile/graph signals, and global-max log normalization.

A table is three aligned columns: user code, key code and value. Dynamic
counts stay integers until the final float, so the table does not depend on
event order or on how the events are grouped. Edge node names are coded
once per run, so graph signals are integer counts and walks over codes.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain, repeat
from pathlib import Path
from typing import Hashable, Iterable, Mapping

import numpy as np

from . import lineio
from .events import SECONDS_PER_DAY, EventColumns, ProfileSnapshot
from .graph import GRAPH_STATS, pagerank
from .registry import GRAPH_ATTRS, FeatureRegistry, dynamic_key, longlasting_key

COHORT_ALL = "all"
COHORT_HIGHER = "higher"
COHORT_PEERS = "peers"


def _intern(values: Iterable[Hashable], codes: dict) -> np.ndarray:
    """The code of each value in ``codes``, adding the values it lacks."""
    return np.array([codes.setdefault(v, len(codes)) for v in values], dtype=np.int64)


@dataclass
class RawFeatureTable:
    """Sparse (user, feature key) -> non-negative raw value, as aligned
    columns: ``user`` indexes ``users`` and ``key`` indexes ``keys``, which
    hold each string once. A cell occurs at most once."""

    users: list[str]
    keys: list[str]
    user: np.ndarray
    key: np.ndarray
    value: np.ndarray

    @classmethod
    def from_cells(cls, cells: Mapping[tuple[str, str], float]) -> "RawFeatureTable":
        users, keys = {}, {}
        user = _intern((u for u, _ in cells), users)
        key = _intern((k for _, k in cells), keys)
        value = np.array(list(cells.values()), dtype=np.float64)
        if (value < 0).any():
            raise ValueError("feature values must be >= 0")
        return cls(list(users), list(keys), user, key, value)

    def concat(self, other: "RawFeatureTable") -> "RawFeatureTable":
        """The cells of both tables, which must not share a cell."""
        users, keys = {}, {}
        parts = [
            (_intern(t.users, users)[t.user], _intern(t.keys, keys)[t.key], t.value)
            for t in (self, other)
        ]
        user, key, value = (np.concatenate(column) for column in zip(*parts))
        return RawFeatureTable(list(users), list(keys), user, key, value)


def aggregate_dynamic(
    events: EventColumns,
    reference_time: int,
    prior_scores: Mapping[str, float],
    registry: FeatureRegistry,
) -> RawFeatureTable:
    """Count each author's events per (network, content, action, cohort,
    window) in one integer pass.

    ``all`` counts every event; ``higher`` and ``peers`` need prior scores
    for both the actor and the author, whose difference is compared with
    ``registry.peer_band``. With no prior scores (a first run) only ``all``
    fires. An event counts in every registered window longer than its age
    in whole days, so one older than the longest window counts in none; an
    event after the reference time raises.
    """
    authors: dict[str, int] = {}
    author = _intern(events.author, authors)
    triples: dict[tuple[str, str, str], int] = {}  # (network, content, action) -> combo code
    combo = _intern(zip(events.network, events.content_type, events.action), triples)
    combos = list(triples)
    day = (reference_time - np.array(events.timestamp, dtype=np.int64)) // SECONDS_PER_DAY
    if (day < 0).any():
        raise ValueError(f"day index {day.min()} below 0: an event after the reference time")
    windows = sorted(set(registry.windows))
    slot = np.searchsorted(windows, day, side="right")  # the event counts in windows[slot:]

    dynamic = np.array([registry.networks[network].dynamic for network, _, _ in combos], dtype=bool)
    fired = {COHORT_ALL: dynamic[combo]}
    if prior_scores:
        score, band = prior_scores.get, registry.peer_band
        actor = np.array([score(a, math.nan) for a in events.actor], dtype=np.float64)
        diff = actor - np.array([score(a, math.nan) for a in authors], dtype=np.float64)[author]
        # nan (a missing score) fails both; within the band is a peer, above it is higher
        fired[COHORT_HIGHER] = fired[COHORT_ALL] & (diff > band)
        fired[COHORT_PEERS] = fired[COHORT_ALL] & (np.abs(diff) <= band)
    # a cohort the registry leaves out has no place in the key space
    names = [c for c in fired if c in registry.cohorts]
    fires = np.array([fired[c] for c in names], dtype=bool).reshape(len(names), len(combo))
    cohort, event = np.nonzero(fires)

    # per (combo, cohort, author): counts by slot, summed up the slots
    cell = (combo[event] * len(names) + cohort) * len(authors) + author[event]
    cells, row = np.unique(cell, return_inverse=True)
    width = len(windows) + 1
    by_window = np.bincount(row * width + slot[event], minlength=len(cells) * width)
    by_window = by_window.reshape(len(cells), width).cumsum(axis=1)[:, :-1]
    row, window = np.nonzero(by_window)
    used, key = np.unique(cells[row] // len(authors) * len(windows) + window, return_inverse=True)
    c, i, w = np.unravel_index(used, (len(combos), len(names), len(windows)))
    return RawFeatureTable(
        users=list(authors),
        keys=[dynamic_key(*combos[c], names[i], windows[w]) for c, i, w in zip(c, i, w)],
        user=cells[row] % len(authors),
        key=key,
        value=by_window[row, window].astype(np.float64),
    )


def aggregate_longlasting(
    profiles: Iterable[ProfileSnapshot],
    edges: tuple[list[str], list[str], list[str]],
    registry: FeatureRegistry,
) -> tuple[RawFeatureTable, int, list[str], dict[str, dict[str, float]]]:
    """Profile and graph signals; returns (table, skipped attr count, networks
    whose PageRank stopped at its iteration cap, ``GRAPH_STATS`` per registered network).

    ``profiles`` holds at most one snapshot per (user, network), as ingest
    keeps them. Categorical attributes are mapped to 1-based ordinal ranks;
    unknown category values map to 0. The ``GRAPH_ATTRS`` a network
    registers are derived from its edges, the columns ``lineio.read_edges``
    returns, after every profile value.
    """
    cells: defaultdict[tuple[str, str], float] = defaultdict(float)
    skipped = 0
    for user, network, _, numeric_attrs, categorical_attrs in profiles:
        registered = registry.networks[network].longlasting_attrs
        ordinals = ((name, registry.ordinal_value(name, c)) for name, c in categorical_attrs)
        for name, value in chain(numeric_attrs, ordinals):
            if name in registered:
                cells[(user, longlasting_key(network, name))] += value
            else:
                skipped += 1

    unconverged = []
    stats = {network: dict.fromkeys(GRAPH_STATS, 0.0) for network in sorted(registry.networks)}
    sources, targets, edge_networks = edges
    names = sorted(set(sources).union(targets))  # so that codes order as names do
    codes = {name: i for i, name in enumerate(names)}
    src, dst = (np.array(list(map(codes.__getitem__, c)), dtype=np.intp) for c in (sources, targets))
    networks: dict[str, int] = {}
    net = _intern(edge_networks, networks)
    for network, n in sorted(networks.items()):
        registered = GRAPH_ATTRS.intersection(registry.networks[network].longlasting_attrs)
        s, d = src[net == n], dst[net == n]
        indeg, outdeg = (np.bincount(c, minlength=len(names)) for c in (d, s))
        linked = indeg + outdeg > 0
        size = float(np.count_nonzero(linked))
        stats[network] = dict(zip(GRAPH_STATS, (size, 2.0 * len(s) / size)))
        signals = {  # (the nodes that have the signal, its value at every node)
            "inlinks": (indeg > 0, indeg.astype(np.float64)),
            # nodes with no outlinks keep their raw in-degree (ratio against 1)
            "inlink_outlink_ratio": (linked, indeg / np.maximum(outdeg, 1)),
        }
        if "pagerank" in registered:
            result = pagerank(zip(s.tolist(), d.tolist()))
            rank = np.zeros(len(names))
            rank[list(result.scores)] = list(result.scores.values())
            signals["pagerank"] = (linked, rank)
            if not result.converged:
                unconverged.append(network)
        for attr in sorted(registered):
            key = longlasting_key(network, attr)
            on, values = signals[attr]
            for node, value in zip(np.flatnonzero(on).tolist(), values[on].tolist()):
                cells[(names[node], key)] += value
    return RawFeatureTable.from_cells(cells), skipped, unconverged, stats


def compute_global_maxima(table: RawFeatureTable) -> dict[str, float]:
    """The largest value of each key that is above 0 for some user."""
    top = np.zeros(len(table.keys))
    np.maximum.at(top, table.key, table.value)
    return {table.keys[i]: float(top[i]) for i in np.flatnonzero(top)}


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

def _ranks(strings: list[str]) -> np.ndarray:
    rank = np.empty(len(strings), dtype=np.int64)
    rank[sorted(range(len(strings)), key=strings.__getitem__)] = np.arange(len(strings))
    return rank


def dump_table(table: RawFeatureTable, path: str | Path) -> None:
    """One ``user<TAB>key<TAB>repr(value)`` line per cell, in (user, key) order."""
    order = np.lexsort((_ranks(table.keys)[table.key], _ranks(table.users)[table.user]))
    users = [lineio.encode_value(user) for user in table.users]
    # one repr per distinct value, grouped by bits so that -0.0 keeps its own
    bits, value = np.unique(table.value[order].view(np.int64), return_inverse=True)
    texts = list(map(repr, bits.view(np.float64).tolist()))
    cells = zip(table.user[order].tolist(), table.key[order].tolist(), value.tolist())
    lineio.write_lines(path, (f"{users[u]}\t{table.keys[k]}\t{texts[v]}" for u, k, v in cells))


class _PerToken(dict):
    """Each token looked up -> ``convert(token)``, called once per distinct token."""

    def __init__(self, convert, known=()):
        super().__init__(known)
        self.convert = convert

    def __missing__(self, token: str):
        value = self[token] = self.convert(token)
        return value


def _read_cells(path: str | Path, keys: Iterable[str]) -> tuple[list[str], np.ndarray, ...]:
    """The users and values of a ``dump_table`` file, and per line the codes of
    its user, its key (its index in ``keys``) and its value. Each distinct
    token is decoded or checked once; nothing of a chunk's text outlives it."""
    names: dict[str, int] = {}  # each user -> its code
    numbers: list[float] = []  # each value code -> its value

    def unknown(key):
        raise ValueError(f"feature key {key!r} is not in the registry")

    def number(token):
        numbers.append(float(token))
        if not 0 <= numbers[-1] < math.inf:  # nan fails both comparisons
            raise ValueError(f"feature value {token!r} must be finite and >= 0")
        return len(numbers) - 1

    columns = [  # per field: each token's code, and the codes of its cells
        (_PerToken(lambda token: names.setdefault(lineio.decode_value(token), len(names))), bytearray()),
        (_PerToken(unknown, {key: code for code, key in enumerate(keys)}), bytearray()),
        (_PerToken(number), bytearray()),
    ]  # the codes grow in place, so no second copy of them is ever made
    for tokens in lineio.read_chunks(path, 3):
        for start, (memo, codes) in enumerate(columns):
            field = tokens[start::3]
            codes += np.fromiter(map(memo.__getitem__, field), np.intc, len(field)).tobytes()
    return list(names), np.array(numbers), *(np.frombuffer(codes, np.intc) for _, codes in columns)


def _parse_store(path: str | Path, registry: FeatureRegistry) -> FeatureStore:
    """``load_store``'s parse: each network's cells fill one
    (its users) x ``keys_for`` matrix, whose read-only rows are the vectors."""
    keys = {network: registry.keys_for(network) for network in registry.networks}
    users, values, user, key, value = _read_cells(path, chain(*keys.values()))
    store = FeatureStore(registry=registry)
    filled = first = 0  # first: the code of the network's first key
    for network, network_keys in keys.items():
        on = (first <= key) & (key < first + len(network_keys))
        owners, row = np.unique(user[on], return_inverse=True)
        matrix = np.full((len(owners), len(network_keys)), math.nan)  # nan: unfilled
        matrix[row, key[on] - first] = values[value[on]]
        unfilled = np.isnan(matrix)
        filled += unfilled.size - np.count_nonzero(unfilled)
        matrix[unfilled] = 0.0
        matrix.flags.writeable = False  # and so is every row view
        owners = map(users.__getitem__, owners.tolist())
        store.vectors.update(zip(zip(owners, repeat(network)), matrix))
        first += len(network_keys)
    if filled != len(value):  # a second line for a cell overwrote the first
        raise ValueError("a (user, key) pair has more than one line")
    return store


# the last store parsed, as (file digest, registry, store), until the next reader of those bytes
_held: list[tuple[str, FeatureRegistry, FeatureStore]] = []


def load_store(path: str | Path, registry: FeatureRegistry) -> FeatureStore:
    """Read a ``dump_table`` file into vectors aligned to ``keys_for``; a
    (user, network) pair gets a vector iff the file has a line for it. A line
    not of 3 fields, a key outside the registry, a value not finite and >= 0,
    or a repeated (user, key) raises ``ValueError`` naming the file.

    The vectors are read-only. The store is kept after its parse and handed
    over once, without a parse, to the next call with the same file bytes and
    an equal registry, so that train and score in one process parse it once."""
    digest = lineio.sha256(path)
    if _held and _held[0][:2] == (digest, registry):
        return _held.pop()[2]
    _held.clear()  # before the parse, so that two stores are never held at once
    try:
        store = _parse_store(path, registry)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    _held.append((digest, registry, store))
    return store


def dump_maxima(maxima: Mapping[str, float], path: str | Path) -> None:
    lineio.write_lines(path, [f"{key}\t{value!r}" for key, value in sorted(maxima.items())])
