import functools
import math
from collections import Counter, defaultdict
from datetime import date
from typing import Iterable, Mapping
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from influence_engine import features
from influence_engine.events import ProfileSnapshot
from influence_engine.features import aggregate_longlasting
from influence_engine.graph import GRAPH_STATS, pagerank, pagerank_codes
from influence_engine.registry import GRAPH_ATTRS, FeatureRegistry, NetworkSpec, longlasting_key

from conftest import edge_columns_of
from oracles import dense_pagerank


class TestPageRank:
    def test_two_node_cycle_is_symmetric(self):
        result = pagerank([("a", "b"), ("b", "a")])
        assert math.isclose(result.scores["a"], 0.5, abs_tol=1e-12)
        assert math.isclose(result.scores["b"], 0.5, abs_tol=1e-12)

    def test_single_node_no_edges(self):
        result = pagerank([], nodes=["only"])
        assert result.scores == {"only": 1.0}

    def test_empty_node_set_rejected(self):
        with pytest.raises(ValueError):
            pagerank([])

    def test_bad_damping_rejected(self):
        with pytest.raises(ValueError):
            pagerank([("a", "b")], damping=1.0)

    def test_star_matches_dense_oracle(self):
        edges = [(f"leaf{i}", "hub") for i in range(4)]
        result = pagerank(edges, tol=1e-13, max_iter=500)
        oracle = dense_pagerank(edges)
        for node, value in oracle.items():
            assert abs(result.scores[node] - value) < 1e-9
        assert result.scores["hub"] > result.scores["leaf0"]

    def test_sums_to_one(self):
        rng = np.random.default_rng(4)
        nodes = [f"n{i}" for i in range(8)]
        edges = [
            (nodes[i], nodes[j])
            for i in range(8)
            for j in range(8)
            if i != j and rng.random() < 0.3
        ]
        result = pagerank(edges, nodes=nodes, tol=1e-12, max_iter=500)
        assert math.isclose(sum(result.scores.values()), 1.0, abs_tol=1e-9)

    def test_random_small_graphs_match_oracle(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 7))
            nodes = [f"n{i}" for i in range(n)]
            edges = [
                (nodes[i], nodes[j])
                for i in range(n)
                for j in range(n)
                if i != j and rng.random() < 0.4
            ]
            result = pagerank(edges, nodes=nodes, tol=1e-13, max_iter=1000)
            oracle = dense_pagerank(edges, nodes=nodes)
            assert result.converged
            for node in nodes:
                assert abs(result.scores[node] - oracle[node]) < 1e-9

    def test_non_convergence_is_flagged_not_raised(self):
        result = pagerank([(f"a{i}", f"a{i+1}") for i in range(20)], max_iter=2)
        assert not result.converged
        assert len(result.scores) == 21


def reference_pagerank(edges, nodes=(), damping=0.85, tol=1e-9, max_iter=200):
    """The dict loop that ``pagerank`` ran before it used integer codes,
    verbatim but for its two sums, written out as additions left to right
    (the builtin ``sum`` of floats is compensated from Python 3.12 on). It
    also returns each iteration's delta."""
    out_neighbors = defaultdict(list)
    node_set = set(nodes)
    for src, dst in edges:
        out_neighbors[src].append(dst)
        node_set.add(src)
        node_set.add(dst)

    order = sorted(node_set)
    n = len(order)
    rank = {u: 1.0 / n for u in order}
    base = (1.0 - damping) / n
    converged = False
    iterations = 0
    deltas = []
    for iterations in range(1, max_iter + 1):
        dangling = 0.0
        for u in order:
            if not out_neighbors[u]:
                dangling += rank[u]
        nxt = {u: base + damping * dangling / n for u in order}
        for u in order:
            outs = out_neighbors[u]
            if outs:
                share = damping * rank[u] / len(outs)
                for v in outs:
                    nxt[v] += share
        delta = 0.0
        for u in order:
            delta += abs(nxt[u] - rank[u])
        deltas.append(delta)
        rank = nxt
        if delta < tol:
            converged = True
            break
    return rank, iterations, converged, deltas


# the default phases but the explain phase, which takes minutes to report a failure here
NO_EXPLAIN = (Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink)

# graphs over few names, so that repeated edges and self-loops are common, and
# with often more than 8 dangling nodes, where np.sum would stop being
# sequential; isolated nodes (and a few linked ones) come in through ``nodes``
names = st.sampled_from([f"n{i}" for i in range(16)])
edge_lists = st.lists(st.tuples(names, names), max_size=40)
node_lists = st.lists(st.sampled_from([f"{c}{i}" for c in "nx" for i in range(12)]), max_size=16)


def assert_pagerank_equals_reference(edges, nodes, **kwargs):
    result = pagerank(edges, nodes=nodes or ["only"], **kwargs)
    scores, iterations, converged, _ = reference_pagerank(edges, nodes or ["only"], **kwargs)
    assert result.scores == scores
    assert list(result.scores) == list(scores)
    assert (result.iterations, result.converged) == (iterations, converged)


@given(
    edges=edge_lists,
    nodes=node_lists,
    max_iter=st.sampled_from([1, 2, 5, 200]),
    tol=st.sampled_from([1e-9, 1e-13, 0.0]),
)
@settings(max_examples=200, phases=NO_EXPLAIN)
def test_pagerank_equals_the_dict_loop_reference_exactly(edges, nodes, max_iter, tol):
    assert_pagerank_equals_reference(edges, nodes, tol=tol, max_iter=max_iter)


@given(edges=edge_lists, nodes=node_lists)
@settings(phases=NO_EXPLAIN)
def test_pagerank_stops_where_the_reference_does_at_a_tie(edges, nodes):
    # a tolerance equal to the reference's delta at one iteration, or the next
    # float above it, makes stopping there depend on that delta's last bit
    _, _, _, deltas = reference_pagerank(edges, nodes or ["only"], tol=0.0, max_iter=20)
    for delta in deltas:
        for tol in (delta, math.nextafter(delta, math.inf)):
            assert_pagerank_equals_reference(edges, nodes, tol=tol)


DEGREES = ("inlinks", "inlink_outlink_ratio")
DEGREE_REGISTRY = FeatureRegistry(
    networks={"wk": NetworkSpec(name="wk", longlasting_attrs=DEGREES, dynamic=False)}
)


def degree_signals(pairs):
    """The degree signals that the features stage derives from one network's
    edges, by attribute and node name."""
    edges = edge_columns_of([(src, dst, "wk") for src, dst in pairs])
    table, _, _, _ = aggregate_longlasting((), edges, DEGREE_REGISTRY)
    signals = {attr: {} for attr in DEGREES}
    for user, key, value in zip(table.user.tolist(), table.key.tolist(), table.value.tolist()):
        signals[table.keys[key].rsplit("/", 1)[1]][table.users[user]] = value
    return signals


# the two dict helpers that the coded degree pass of the features stage replaced, verbatim
def degree_stats(edge_pairs: Iterable[tuple[str, str]]) -> tuple[dict[str, int], dict[str, int]]:
    """In-degree and out-degree per node."""
    indeg: dict[str, int] = defaultdict(int)
    outdeg: dict[str, int] = defaultdict(int)
    for src, dst in edge_pairs:
        outdeg[src] += 1
        indeg[dst] += 1
    return dict(indeg), dict(outdeg)


def inlink_outlink_ratio(indeg: Mapping[str, int], outdeg: Mapping[str, int]) -> dict[str, float]:
    # nodes with no outlinks keep their raw in-degree (ratio against 1)
    users = set(indeg) | set(outdeg)
    return {u: indeg.get(u, 0) / max(outdeg.get(u, 0), 1) for u in users}


def typed(values):
    return {key: (type(value), value) for key, value in values.items()}


@given(edges=edge_lists)
@settings(phases=NO_EXPLAIN)
def test_degree_signals_equal_the_dict_helpers_exactly(edges):
    # features added float(in-degree) for each key of degree_stats' in-degrees
    indeg, outdeg = degree_stats(edges)
    signals = degree_signals(edges)
    assert list(signals) == ["inlinks", "inlink_outlink_ratio"]
    assert typed(signals["inlinks"]) == typed({u: float(deg) for u, deg in indeg.items()})
    assert typed(signals["inlink_outlink_ratio"]) == typed(inlink_outlink_ratio(indeg, outdeg))


class TestDegrees:
    def test_degree_stats(self):
        signals = degree_signals([("a", "b"), ("c", "b"), ("b", "a")])
        assert signals["inlinks"] == {"b": 2.0, "a": 1.0}
        assert signals["inlink_outlink_ratio"] == {"a": 1.0, "b": 2.0, "c": 0.0}

    def test_ratio_handles_zero_outlinks(self):
        ratios = degree_signals([(u, "x") for u in "abcd"])["inlink_outlink_ratio"]
        assert ratios["x"] == 4.0


# statistics do not depend on the graph signals a network registers
STATS_REGISTRY = FeatureRegistry(
    networks={
        "fb": NetworkSpec(name="fb", longlasting_attrs=("inlinks",), dynamic=False),
        "tw": NetworkSpec(name="tw", dynamic=False),
        "wk": NetworkSpec(name="wk", longlasting_attrs=("pagerank",), dynamic=False),
    }
)


def graph_summary(edge_pairs: list[tuple[str, str]]) -> dict[str, float]:
    """The set count that gave each network's statistics before the degree
    pass of the features stage did, verbatim."""
    nodes = {u for pair in edge_pairs for u in pair}
    size = len(nodes)
    avg_degree = (2.0 * len(edge_pairs) / size) if size else 0.0
    return dict(zip(GRAPH_STATS, (float(size), avg_degree)))


# edges as ingest keeps them: unique, between two distinct nodes, on a subset
# of the registered networks, so that some networks have none
edge_sets = st.lists(st.sampled_from(sorted(STATS_REGISTRY.networks)), min_size=1, unique=True).flatmap(
    lambda networks: st.sets(
        st.tuples(names, names, st.sampled_from(networks)).filter(lambda edge: edge[0] != edge[1]),
        max_size=40,
    )
)


@given(edges=edge_sets)
@settings(phases=NO_EXPLAIN)
def test_graph_stats_equal_the_set_count(edges):
    # the oracle's own figures, which the test it replaced pinned
    assert graph_summary([("a", "b"), ("b", "c")]) == {"graph_size": 3.0, "avg_node_degree": 4.0 / 3.0}
    assert graph_summary([]) == {"graph_size": 0.0, "avg_node_degree": 0.0}
    *_, stats = aggregate_longlasting((), edge_columns_of(sorted(edges)), STATS_REGISTRY)
    pairs = defaultdict(list)
    for src, dst, network in edges:
        pairs[network].append((src, dst))
    assert list(stats) == sorted(STATS_REGISTRY.networks)
    assert {network: typed(values) for network, values in stats.items()} == {
        network: typed(graph_summary(pairs[network])) for network in sorted(STATS_REGISTRY.networks)
    }


# -- the long-lasting half against a dict loop --------------------------------

def reference_longlasting(profiles, edges, registry, max_iter):
    """``aggregate_longlasting`` as one dict of (user, key) cells and loops over
    names, its PageRank from ``reference_pagerank``."""
    cells = defaultdict(float)
    skipped = 0
    for profile in profiles:
        attrs = profile.numeric_attrs + tuple(
            (name, registry.ordinal_value(name, category)) for name, category in profile.categorical_attrs
        )
        for name, value in attrs:
            # the network derives a graph attribute from its edges, never from a profile
            if name in registry.networks[profile.network].longlasting_attrs and name not in GRAPH_ATTRS:
                cells[(profile.user, longlasting_key(profile.network, name))] += value
            else:
                skipped += 1
    unconverged, stats = [], {}
    for network in sorted(registry.networks):
        pairs = [(src, dst) for src, dst, on in edges if on == network]
        stats[network] = graph_summary(pairs)
        indeg, outdeg = Counter(dst for _, dst in pairs), Counter(src for src, _ in pairs)
        signals = {
            "inlinks": {user: float(degree) for user, degree in indeg.items()},
            "inlink_outlink_ratio": {user: indeg[user] / max(outdeg[user], 1) for user in indeg | outdeg},
            "pagerank": {},
        }
        registered = GRAPH_ATTRS.intersection(registry.networks[network].longlasting_attrs)
        if "pagerank" in registered and pairs:
            signals["pagerank"], _, converged, _ = reference_pagerank(pairs, max_iter=max_iter)
            if not converged:
                unconverged.append(network)
        for attr in registered:
            for user, value in signals[attr].items():
                assert (user, longlasting_key(network, attr)) not in cells
                cells[(user, longlasting_key(network, attr))] = value
    return cells, skipped, unconverged, stats


def profile_lists(networks):
    """At most one profile per (user, network), over few attribute names, so that
    an attribute repeats, one is unregistered, one is named in ``GRAPH_ATTRS``
    and a category falls outside the ordinal map."""
    numeric = st.tuples(
        st.sampled_from(["fans", "other", *sorted(GRAPH_ATTRS)]),
        st.floats(min_value=0, max_value=1e6, allow_nan=False),
    )
    categorical = st.tuples(
        st.sampled_from(["level", "other", "inlinks"]), st.sampled_from(["lo", "mid", "hi", "wizard"])
    )
    profile = st.builds(
        lambda user, network, n, c: ProfileSnapshot(user, network, date(2023, 11, 1), tuple(n), tuple(c)),
        names, st.sampled_from(networks), st.lists(numeric, max_size=4), st.lists(categorical, max_size=3),
    )
    return st.lists(profile, max_size=12, unique_by=lambda p: (p.user, p.network))


@st.composite
def longlasting_inputs(draw):
    """A registry of 2-3 networks, each registering a different subset of
    ``GRAPH_ATTRS``, with profiles and unique edges between distinct nodes on them."""
    subsets = draw(st.lists(
        st.frozensets(st.sampled_from(sorted(GRAPH_ATTRS))), min_size=2, max_size=3, unique=True
    ))
    networks = ["fb", "tw", "wk"][:len(subsets)]
    registry = FeatureRegistry(
        networks={
            network: NetworkSpec(name=network, longlasting_attrs=("fans", "level", *sorted(subset)), dynamic=False)
            for network, subset in zip(networks, subsets)
        },
        ordinal_maps={"level": ("lo", "mid", "hi")},
    )
    edges = draw(st.lists(
        st.tuples(names, names, st.sampled_from(networks)).filter(lambda edge: edge[0] != edge[1]),
        max_size=30, unique=True,
    ))
    return registry, draw(profile_lists(networks)), edges


@given(inputs=longlasting_inputs(), max_iter=st.sampled_from([2, 200]))
@settings(phases=NO_EXPLAIN)
def test_longlasting_equals_the_dict_loop_reference_exactly(inputs, max_iter):
    registry, profiles, edges = inputs
    capped = functools.partial(pagerank_codes, max_iter=max_iter)  # 2 iterations leave a walk unconverged
    with mock.patch.object(features, "pagerank_codes", capped):
        table, skipped, unconverged, stats = aggregate_longlasting(profiles, edge_columns_of(edges), registry)
    cells, expected_skipped, expected_unconverged, expected_stats = reference_longlasting(
        profiles, edges, registry, max_iter
    )
    got = {
        (table.users[u], table.keys[k]): v.hex()
        for u, k, v in zip(table.user.tolist(), table.key.tolist(), table.value.tolist())
    }
    assert len(got) == len(table.value)  # no cell twice
    assert got == {cell: value.hex() for cell, value in cells.items()}
    assert (skipped, unconverged) == (expected_skipped, expected_unconverged)
    assert {network: typed(values) for network, values in stats.items()} == {
        network: typed(values) for network, values in expected_stats.items()
    }
