"""Feature generation: dynamic counts in one vectorized integer pass,
long-lasting profile/graph signals, and global-max log normalization.

A table is three aligned columns: user code, key code and value. Events and
edges come in coded (``lineio.read_columns``, which ``load_store`` uses too),
so authors, combos and edge ends (one node list for both) are codes already.
The long-lasting table is one table over the edge node codes: profile
attributes and graph signals (counts and walks over codes) add their cells as
code columns. Dynamic counts stay integers until the final float, so the table
does not depend on event order or on how the events are grouped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, repeat
from pathlib import Path
from typing import Hashable, Iterable, Mapping

import numpy as np

from . import lineio
from .events import SECONDS_PER_DAY, CodedColumn, EventColumns, ProfileSnapshot
from .graph import GRAPH_STATS, pagerank_codes
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
    users, author = events.author.values, events.author.codes
    # each event's (network, content, action) as its code among the distinct combos
    columns = (events.network, events.content_type, events.action)
    shape = [len(column.values) for column in columns]
    triples, combo = np.unique(np.ravel_multi_index([c.codes for c in columns], shape), return_inverse=True)
    combos = [
        tuple(c.values[i] for c, i in zip(columns, codes)) for codes in zip(*np.unravel_index(triples, shape))
    ]
    day = (reference_time - np.array(events.timestamp, dtype=np.int64)) // SECONDS_PER_DAY
    if (day < 0).any():
        raise ValueError(f"day index {day.min()} below 0: an event after the reference time")
    windows = sorted(set(registry.windows))
    slot = np.searchsorted(windows, day, side="right")  # the event counts in windows[slot:]

    dynamic = np.array([registry.networks[network].dynamic for network, _, _ in combos], dtype=bool)
    fired = {COHORT_ALL: dynamic[combo]}
    if prior_scores:
        diff = np.subtract(*(  # the actor's prior score less the author's, one lookup per distinct user
            np.array([prior_scores.get(user, math.nan) for user in c.values], dtype=np.float64)[c.codes]
            for c in (events.actor, events.author)
        ))
        # nan (a missing score) fails both; within the band is a peer, above it is higher
        fired[COHORT_HIGHER] = fired[COHORT_ALL] & (diff > registry.peer_band)
        fired[COHORT_PEERS] = fired[COHORT_ALL] & (np.abs(diff) <= registry.peer_band)
    # a cohort the registry leaves out has no place in the key space
    names = [c for c in fired if c in registry.cohorts]
    fires = np.array([fired[c] for c in names], dtype=bool).reshape(len(names), len(combo))
    cohort, event = np.nonzero(fires)

    # per (combo, cohort, author): counts by slot, summed up the slots
    cell = (combo[event] * len(names) + cohort) * len(users) + author[event]
    cells, row = np.unique(cell, return_inverse=True)
    width = len(windows) + 1
    by_window = np.bincount(row * width + slot[event], minlength=len(cells) * width)
    by_window = by_window.reshape(len(cells), width).cumsum(axis=1)[:, :-1]
    row, window = np.nonzero(by_window)
    used, key = np.unique(cells[row] // len(users) * len(windows) + window, return_inverse=True)
    c, i, w = np.unravel_index(used, (len(combos), len(names), len(windows)))
    return RawFeatureTable(
        users=users,
        keys=[dynamic_key(*combos[c], names[i], windows[w]) for c, i, w in zip(c, i, w)],
        user=cells[row] % len(users),
        key=key,
        value=by_window[row, window].astype(np.float64),
    )


def aggregate_longlasting(
    profiles: Iterable[ProfileSnapshot],
    edges: tuple[CodedColumn, CodedColumn, CodedColumn],
    registry: FeatureRegistry,
) -> tuple[RawFeatureTable, int, list[str], dict[str, dict[str, float]]]:
    """Profile and graph signals; returns (table, skipped attr count, networks
    whose PageRank stopped at its iteration cap, ``GRAPH_STATS`` per registered network).

    ``profiles`` holds at most one snapshot per (user, network), as ingest
    keeps them. Categorical attributes are mapped to 1-based ordinal ranks;
    unknown category values map to 0. The ``GRAPH_ATTRS`` a network
    registers are derived from its edges, the columns ``lineio.read_edges``
    returns; a profile attribute of such a name is skipped and counted.
    """
    allowed = {name: frozenset(spec.longlasting_attrs) - GRAPH_ATTRS for name, spec in registry.networks.items()}
    sources, targets, networks = edges
    nodes = sources.values  # and targets.values: the node list that both ends code into
    users = dict(zip(nodes, range(len(nodes))))  # a profile's user not on an edge gets the next code
    keys: dict[str, int] = {}
    attrs, skipped = [], 0  # attrs: (user, key, value) of each accepted attribute, in line order
    for user, network, _, numeric_attrs, categorical_attrs in profiles:
        ordinals = ((name, registry.ordinal_value(name, c)) for name, c in categorical_attrs)
        for name, value in chain(numeric_attrs, ordinals):
            if name in allowed[network]:
                attrs.append((user, longlasting_key(network, name), value))
            else:
                skipped += 1
    user, key, value = zip(*attrs) if attrs else ((), (), ())
    key = _intern(key, keys)  # first, as a cell's code needs the number of keys
    cells, cell = np.unique(_intern(user, users) * len(keys) + key, return_inverse=True)
    sums = np.bincount(cell, weights=value, minlength=len(cells)).astype(np.float64)  # in line order from 0.0
    columns = [(*np.divmod(cells, len(keys)), sums)]  # (user code, key code, value) per signal

    unconverged = []
    stats = {network: dict.fromkeys(GRAPH_STATS, 0.0) for network in sorted(registry.networks)}
    rank = _ranks(nodes)  # PageRank codes a network's linked nodes in name order
    for network, n in sorted((network, n) for n, network in enumerate(networks.values)):
        registered = GRAPH_ATTRS.intersection(registry.networks[network].longlasting_attrs)
        s, d = (end.codes[networks.codes == n] for end in (sources, targets))
        indeg, outdeg = (np.bincount(c, minlength=len(nodes)) for c in (d, s))
        linked = indeg + outdeg > 0
        size = float(np.count_nonzero(linked))
        stats[network] = dict(zip(GRAPH_STATS, (size, 2.0 * len(s) / size)))
        signals = {  # (the nodes that have the signal, its value at every node)
            "inlinks": (indeg > 0, indeg.astype(np.float64)),
            # nodes with no outlinks keep their raw in-degree (ratio against 1)
            "inlink_outlink_ratio": (linked, indeg / np.maximum(outdeg, 1)),
        }
        if "pagerank" in registered:
            by_name = np.flatnonzero(linked)[np.argsort(rank[linked])]
            local = np.empty(len(nodes), dtype=np.intp)  # a linked node's code in by_name
            local[by_name] = np.arange(len(by_name))
            walk = np.zeros(len(nodes))
            walk[by_name], _, converged = pagerank_codes(local[s], local[d], len(by_name))
            signals["pagerank"] = (linked, walk)
            if not converged:
                unconverged.append(network)
        for attr in sorted(registered):
            on, values = signals[attr]
            node = np.flatnonzero(on)  # a node's code is its user code
            code = keys.setdefault(longlasting_key(network, attr), len(keys))
            columns.append((node, np.full_like(node, code), values[node]))
    user, key, value = (np.concatenate(column) for column in zip(*columns))
    return RawFeatureTable(list(users), list(keys), user, key, value), skipped, unconverged, stats


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


def normalize_table(table: RawFeatureTable, maxima: Mapping[str, float]) -> None:
    """``normalize`` each value of ``table`` in place against its key's maximum;
    a key that is 0 for every user has no recorded maximum and normalizes to 0."""
    maximum = [maxima.get(key, 0.0) for key in table.keys]
    # one normalize per distinct (key, raw value), the values grouped by bits as
    # dump_table groups them, so that -0.0 keeps its own
    bits, value = np.unique(table.value.view(np.int64), return_inverse=True)
    pairs, cell = np.unique(table.key * len(bits) + value, return_inverse=True)
    key, value = np.divmod(pairs, len(bits))
    raw = bits.view(np.float64)[value].tolist()
    table.value[:] = np.array(list(map(normalize, raw, map(maximum.__getitem__, key.tolist()))))[cell]


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


def dump_table(table: RawFeatureTable, path: str | Path) -> str:
    """One ``user<TAB>key<TAB>repr(value)`` line per cell, in (user, key) order; the file's sha256."""
    order = np.lexsort((_ranks(table.keys)[table.key], _ranks(table.users)[table.user]))
    users = [lineio.encode_value(user) for user in table.users]
    # one repr per distinct value, grouped by bits so that -0.0 keeps its own
    bits, value = np.unique(table.value[order].view(np.int64), return_inverse=True)
    texts = list(map(repr, bits.view(np.float64).tolist()))
    cells = zip(table.user[order].tolist(), table.key[order].tolist(), value.tolist())
    return lineio.write_lines(path, (f"{users[u]}\t{table.keys[k]}\t{texts[v]}" for u, k, v in cells))


def _fill_store(registry: FeatureRegistry, users: CodedColumn, keys: CodedColumn, value: np.ndarray) -> FeatureStore:
    """The store of one cell per line of the columns, users coded in name
    order: each network's cells fill one (its users) x ``keys_for`` matrix,
    whose read-only rows are the vectors. A key outside the registry, or a
    cell given twice, raises ``ValueError``."""
    network_keys = {network: registry.keys_for(network) for network in registry.networks}
    order = {k: code for code, k in enumerate(chain(*network_keys.values()))}
    if unknown := [k for k in keys.values if k not in order]:
        raise ValueError(f"feature key {unknown[0]!r} is not in the registry")
    key = np.array([order[k] for k in keys.values], dtype=np.intp)[keys.codes]  # each cell's registry key code
    store = FeatureStore(registry=registry)
    filled = first = 0  # first: the code of the network's first key
    for network, owned in network_keys.items():
        on = (first <= key) & (key < first + len(owned))
        owners, row = np.unique(users.codes[on], return_inverse=True)
        matrix = np.full((len(owners), len(owned)), math.nan)  # nan: unfilled
        matrix[row, key[on] - first] = value[on]
        unfilled = np.isnan(matrix)
        filled += unfilled.size - np.count_nonzero(unfilled)
        matrix[unfilled] = 0.0
        matrix.flags.writeable = False  # and so is every row view
        owners = map(users.values.__getitem__, owners.tolist())
        store.vectors.update(zip(zip(owners, repeat(network)), matrix))
        first += len(owned)
    if filled != len(key):  # a second line for a cell overwrote the first
        raise ValueError("a (user, key) pair has more than one line")
    return store


def store_of(table: RawFeatureTable, registry: FeatureRegistry) -> FeatureStore:
    """The store that ``load_store`` reads from the ``dump_table`` file of
    ``table``, a normalized table: the same vectors, bit for bit, in the same order."""
    users = CodedColumn(sorted(table.users), _ranks(table.users)[table.user])
    return _fill_store(registry, users, CodedColumn(table.keys, table.key), table.value)


def load_store(path: str | Path, registry: FeatureRegistry) -> FeatureStore:
    """Read a ``dump_table`` file, whose users come in name order, into read-only
    vectors aligned to ``keys_for``; a (user, network) pair gets a vector iff the
    file has a line for it. A line not of 3 fields, a key outside the registry, a
    value not finite and >= 0, or a repeated (user, key) raises ``ValueError``
    naming the file."""
    def value(token):  # coded by token, not by float, so that -0.0 and 0.0 keep their own codes
        if not 0 <= float(token) < math.inf:  # nan fails both comparisons
            raise ValueError(f"feature value {token!r} must be finite and >= 0")
        return token

    with lineio.naming(path):
        users, key, values = lineio.read_columns(
            path, [("", lineio.decode_value, "user"), ("", str, "key"), ("", value, "value")]
        )
        return _fill_store(registry, users, key, np.array(list(map(float, values.values)))[values.codes])


def dump_maxima(maxima: Mapping[str, float], path: str | Path) -> str:
    return lineio.write_lines(path, [f"{key}\t{value!r}" for key, value in sorted(maxima.items())])
