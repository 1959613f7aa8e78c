import io
import math
from contextlib import redirect_stdout
from datetime import date
from itertools import count

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from influence_engine.features import FeatureStore
from influence_engine.hierarchy import (
    COMBINER_SUPERVISED,
    ScoreEntry,
    ScoreNode,
    ScoreSnapshot,
    heuristic_weights,
    l2_combine,
    leaf_score,
    load_snapshot,
    node_weights,
    parse_tree,
    save_snapshot,
    score_population,
    score_user,
)
from influence_engine.registry import FeatureRegistry, NetworkSpec
from influence_engine.training import WeightVector


def flat_registry(networks, n_features=2):
    attrs = tuple(f"a{i}" for i in range(n_features))
    return FeatureRegistry(
        networks={
            n: NetworkSpec(name=n, longlasting_attrs=attrs, dynamic=False)
            for n in networks
        }
    )


def make_store(registry, vectors):
    store = FeatureStore(registry=registry)
    for (user, network), values in vectors.items():
        store.vectors[(user, network)] = np.asarray(values, dtype=float)
    return store


def uniform_model(registry, network, weights):
    return WeightVector(
        network=network,
        weights=np.asarray(weights, dtype=float),
        registry_hash=registry.registry_hash(network),
    )


def leaf(node_id, network, level):
    return {"node_id": node_id, "network": network, "combiner": "supervised-dot"}


def child_vector(node, child_scores):
    """Child scores in child order; users absent from a child contribute 0."""
    return np.array([child_scores.get(c.node_id, 0.0) for c in node.children])


def reference_score_user(user, tree, store, models, stats):
    """``score_user`` as it was before a node was scored for all users at once:
    a recursive visit of the tree per user, each node's weights computed
    afresh, and ``np.linalg.norm`` twice per L2 node."""
    node_scores = {}

    def visit(node):
        if node.is_leaf:
            f = store.get(user, node.network)
        elif any([visit(child) is not None for child in node.children]):  # every child, then any
            f = child_vector(node, node_scores)
        else:
            f = None
        if f is None:
            return None
        w = models[node.network].weights if node.is_leaf else node_weights(node, stats)
        if node.combiner == COMBINER_SUPERVISED:
            score = leaf_score(f, w, float(np.sum(w)))
        else:
            score = float(np.linalg.norm(f * w)) / float(np.linalg.norm(w))
        node_scores[node.node_id] = score
        return score

    raw = visit(tree)
    if raw is None:
        return None
    return ScoreEntry(overall=100.0 * raw, raw_root=raw, node_scores=tuple(sorted(node_scores.items())))


class TestLeafScore:
    def test_all_ones_feature_vector_scores_one(self):
        assert leaf_score(np.ones(3), np.array([0.2, 1.0, 0.05])) == 1.0

    def test_all_zeros_scores_zero(self):
        assert leaf_score(np.zeros(3), np.ones(3)) == 0.0

    def test_hand_value(self):
        assert leaf_score(np.array([0.5, 0.5]), np.array([0.4, 0.6])) == 0.5

    def test_zero_weight_sum_scores_zero(self):
        assert leaf_score(np.ones(2), np.zeros(2)) == 0.0

    def test_a_given_weight_sum_scores_as_the_computed_one(self):
        f, w = np.array([0.3, 0.7, 0.1]), np.array([0.1, 0.2, 0.4])
        assert leaf_score(f, w, float(np.sum(w))) == leaf_score(f, w)
        assert leaf_score(f, w, 0.0) == 0.0

    def test_misalignment_fatal(self):
        with pytest.raises(ValueError):
            leaf_score(np.ones(2), np.ones(3))


class TestL2Combine:
    def test_single_child_identity(self):
        assert math.isclose(l2_combine(np.array([0.37]), np.array([2.5])), 0.37, rel_tol=1e-12)

    def test_hand_value(self):
        value = l2_combine(np.array([0.6, 0.8]), np.array([1.0, 1.0]))
        assert math.isclose(value, 1.0 / math.sqrt(2.0), rel_tol=1e-12)

    def test_all_ones_attains_upper_bound(self):
        value = l2_combine(np.ones(3), np.array([0.5, 1.0, 0.25]))
        assert math.isclose(value, 1.0, rel_tol=1e-12)

    def test_zero_weights_fatal(self):
        with pytest.raises(ValueError):
            l2_combine(np.ones(2), np.zeros(2))

    def test_single_nonzero_weight_passes_child_through(self):
        value = l2_combine(np.array([0.3, 0.9]), np.array([0.0, 2.0]))
        assert math.isclose(value, 0.9, rel_tol=1e-12)


class TestChildVectorAndWeights:
    def tree(self):
        return parse_tree(
            {
                "node_id": "root",
                "combiner": "l2-norm",
                "heuristic_basis": "graph_size",
                "children": [
                    {"node_id": "tw", "network": "tw", "combiner": "supervised-dot"},
                    {"node_id": "fb", "network": "fb", "combiner": "supervised-dot"},
                    {"node_id": "ig", "network": "ig", "combiner": "supervised-dot"},
                ],
            }
        )

    def test_child_vector_assembly(self):
        vec = child_vector(self.tree(), {"tw": 0.6, "fb": 0.8, "ig": 0.2})
        assert np.allclose(vec, [0.6, 0.8, 0.2])

    def test_absent_child_contributes_zero(self):
        vec = child_vector(self.tree(), {"fb": 0.7})
        assert np.allclose(vec, [0.0, 0.7, 0.0])

    def test_equal_graph_sizes_give_equal_weights(self):
        stats = {n: {"graph_size": 1e6} for n in ("tw", "fb", "ig")}
        assert np.allclose(heuristic_weights(self.tree(), stats), [1.0, 1.0, 1.0])

    def test_proportional_to_graph_size(self):
        stats = {
            "tw": {"graph_size": 4e6},
            "fb": {"graph_size": 1e6},
            "ig": {"graph_size": 2e6},
        }
        assert np.allclose(heuristic_weights(self.tree(), stats), [1.0, 0.25, 0.5])

    def test_avg_node_degree_basis(self):
        tree = parse_tree(
            {
                "node_id": "root",
                "combiner": "l2-norm",
                "heuristic_basis": "avg_node_degree",
                "children": [
                    {"node_id": "tw", "network": "tw", "combiner": "supervised-dot"},
                    {"node_id": "fb", "network": "fb", "combiner": "supervised-dot"},
                ],
            }
        )
        stats = {"tw": {"avg_node_degree": 200.0}, "fb": {"avg_node_degree": 50.0}}
        assert np.allclose(heuristic_weights(tree, stats), [1.0, 0.25])

    def test_missing_stat_fatal(self):
        with pytest.raises(ValueError, match="missing"):
            heuristic_weights(self.tree(), {"tw": {"graph_size": 1.0}})

    def test_explicit_weights_bypass_heuristics(self):
        tree = parse_tree(
            {
                "node_id": "root",
                "combiner": "l2-norm",
                "weights": [1.0, 0.5, 0.25],
                "children": [
                    {"node_id": "tw", "network": "tw", "combiner": "supervised-dot"},
                    {"node_id": "fb", "network": "fb", "combiner": "supervised-dot"},
                    {"node_id": "ig", "network": "ig", "combiner": "supervised-dot"},
                ],
            }
        )
        assert np.allclose(node_weights(tree, {}), [1.0, 0.5, 0.25])


class TestTreeParsing:
    def test_root_must_be_named_root(self):
        with pytest.raises(ValueError):
            parse_tree({"node_id": "top", "combiner": "l2-norm",
                        "children": [{"node_id": "tw", "network": "tw"}]})

    def test_leaf_needs_network(self):
        with pytest.raises(ValueError):
            ScoreNode(node_id="x", combiner="supervised-dot")

    def test_round_trip(self):
        data = {
            "node_id": "root",
            "combiner": "l2-norm",
            "heuristic_basis": "graph_size",
            "children": [
                {"node_id": "tw", "combiner": "supervised-dot", "network": "tw"},
                {
                    "node_id": "lt",
                    "combiner": "l2-norm",
                    "weights": [1.0, 0.5],
                    "children": [
                        {"node_id": "lt-c1", "combiner": "supervised-dot", "network": "c1"},
                        {"node_id": "lt-c2", "combiner": "supervised-dot", "network": "c2"},
                    ],
                },
            ],
        }
        tree = parse_tree(data)
        assert tree.leaf_networks() == ["tw", "c1", "c2"]


class TestScoreTree:
    def single_chain(self):
        # root -> mid -> leaf, all single-child
        return parse_tree(
            {
                "node_id": "root",
                "combiner": "l2-norm",
                "weights": [1.0],
                "children": [
                    {
                        "node_id": "mid",
                        "combiner": "l2-norm",
                        "weights": [3.0],
                        "children": [
                            {"node_id": "tw", "combiner": "supervised-dot", "network": "tw"}
                        ],
                    }
                ],
            }
        )

    def test_single_network_identity_chain(self):
        registry = flat_registry(["tw"])
        store = make_store(registry, {("u", "tw"): [0.8, 0.4]})
        models = {"tw": uniform_model(registry, "tw", [1.0, 1.0])}
        entry = score_user("u", self.single_chain(), store, models, {})
        expected_leaf = (0.8 + 0.4) / 2.0
        assert math.isclose(entry.raw_root, expected_leaf, rel_tol=1e-12)
        assert math.isclose(entry.overall, 100.0 * expected_leaf, rel_tol=1e-12)

    def two_network_tree(self, third=False):
        children = [
            {"node_id": "tw", "combiner": "supervised-dot", "network": "tw"},
            {"node_id": "fb", "combiner": "supervised-dot", "network": "fb"},
        ]
        if third:
            children.append({"node_id": "ig", "combiner": "supervised-dot", "network": "ig"})
        return parse_tree(
            {
                "node_id": "root",
                "combiner": "l2-norm",
                "weights": [1.0] * len(children),
                "children": children,
            }
        )

    def setup_two_networks(self, third=False):
        networks = ["tw", "fb"] + (["ig"] if third else [])
        registry = flat_registry(networks)
        store = make_store(
            registry,
            {("u", "tw"): [0.6, 0.6], ("u", "fb"): [0.8, 0.8]}
            | ({("u", "ig"): [0.0, 0.0]} if third else {}),
        )
        models = {n: uniform_model(registry, n, [1.0, 1.0]) for n in networks}
        return registry, store, models

    def test_two_network_hand_value(self):
        _, store, models = self.setup_two_networks()
        entry = score_user("u", self.two_network_tree(), store, models, {})
        assert math.isclose(entry.overall, 100.0 * math.sqrt(0.5), rel_tol=1e-9)
        assert abs(entry.overall - 70.711) < 1e-2

    def test_zero_activity_third_network_dilutes(self):
        _, store, models = self.setup_two_networks(third=True)
        entry = score_user("u", self.two_network_tree(third=True), store, models, {})
        assert math.isclose(entry.overall, 100.0 * math.sqrt(1.0 / 3.0), rel_tol=1e-9)
        assert abs(entry.overall - 57.735) < 1e-2

    def test_a_shared_cache_holds_each_nodes_weights_and_their_sum(self):
        _, store, models = self.setup_two_networks()
        tree, cache = self.two_network_tree(), {}
        first = score_user("u", tree, store, models, {}, cache)
        assert {node: (w.tolist(), total) for node, (w, total) in cache.items()} == {
            "tw": ([1.0, 1.0], 2.0), "fb": ([1.0, 1.0], 2.0), "root": ([1.0, 1.0], 2.0)
        }
        assert score_user("u", tree, store, models, {}, cache) == first
        cache["tw"] = (cache["tw"][0], 4.0)  # the cached sum is the one a leaf divides by
        assert score_user("u", tree, store, models, {}, cache).node_scores != first.node_scores

    def test_an_interior_supervised_dot_node_is_a_weighted_mean(self):
        registry = flat_registry(["tw", "fb"])
        store = make_store(registry, {("u", "tw"): [0.8, 0.8], ("u", "fb"): [0.4, 0.4]})
        models = {n: uniform_model(registry, n, [1.0, 1.0]) for n in ("tw", "fb")}
        tree = parse_tree(
            {"node_id": "root", "combiner": "supervised-dot", "weights": [1.0, 3.0],
             "children": [leaf("tw", "tw", 1), leaf("fb", "fb", 1)]}
        )
        entry = score_user("u", tree, store, models, {})
        assert dict(entry.node_scores)["tw"] == 0.8 and dict(entry.node_scores)["fb"] == 0.4
        # (1 * 0.8 + 3 * 0.4) / (1 + 3), where l2-norm would give 0.456
        assert math.isclose(entry.raw_root, 0.5, rel_tol=1e-12)

    def test_user_on_no_network_is_unscored(self):
        registry, store, models = self.setup_two_networks()
        assert score_user("ghost", self.two_network_tree(), store, models, {}) is None
        snapshot = score_population(
            self.two_network_tree(), store, models, {}, as_of=date(2023, 11, 14)
        )
        assert set(snapshot.entries) == {"u"}

    def test_child_order_invariance(self):
        registry = flat_registry(["tw", "fb"])
        store = make_store(registry, {("u", "tw"): [0.6, 0.2], ("u", "fb"): [0.9, 0.1]})
        models = {n: uniform_model(registry, n, [1.0, 0.5]) for n in ("tw", "fb")}
        forward = parse_tree(
            {"node_id": "root", "combiner": "l2-norm", "weights": [1.0, 0.25],
             "children": [
                 {"node_id": "tw", "combiner": "supervised-dot", "network": "tw"},
                 {"node_id": "fb", "combiner": "supervised-dot", "network": "fb"},
             ]}
        )
        backward = parse_tree(
            {"node_id": "root", "combiner": "l2-norm", "weights": [0.25, 1.0],
             "children": [
                 {"node_id": "fb", "combiner": "supervised-dot", "network": "fb"},
                 {"node_id": "tw", "combiner": "supervised-dot", "network": "tw"},
             ]}
        )
        a = score_user("u", forward, store, models, {})
        b = score_user("u", backward, store, models, {})
        assert math.isclose(a.overall, b.overall, rel_tol=1e-12)

    def test_monotonicity_in_single_feature(self):
        registry = flat_registry(["tw", "fb"], n_features=3)
        rng = np.random.default_rng(12)
        tree = parse_tree(
            {"node_id": "root", "combiner": "l2-norm", "weights": [1.0, 0.7],
             "children": [
                 {"node_id": "tw", "combiner": "supervised-dot", "network": "tw"},
                 {"node_id": "fb", "combiner": "supervised-dot", "network": "fb"},
             ]}
        )
        for _ in range(200):
            base = {
                ("u", "tw"): rng.random(3),
                ("u", "fb"): rng.random(3),
            }
            models = {
                n: uniform_model(registry, n, rng.random(3)) for n in ("tw", "fb")
            }
            before = score_user("u", tree, make_store(registry, base), models, {})
            network = ("tw", "fb")[int(rng.integers(2))]
            idx = int(rng.integers(3))
            bumped = {k: v.copy() for k, v in base.items()}
            bumped[("u", network)][idx] = min(1.0, bumped[("u", network)][idx] + 0.2)
            after = score_user("u", tree, make_store(registry, bumped), models, {})
            assert after.overall >= before.overall - 1e-12
            assert 0.0 <= after.raw_root <= 1.0
            assert 0.0 <= after.overall <= 100.0


@pytest.mark.parametrize("node_id", ["tw leaf", "tw=1", "tw\tleaf", "tw\nleaf"])
def test_a_node_id_a_snapshot_cannot_hold_is_refused(node_id):
    # an all run hands score's snapshot over unparsed, so only a staged run would fail on it
    data = {"node_id": "root", "children": [{"node_id": node_id, "network": "tw"}]}
    with pytest.raises(ValueError, match="node_id holds a space"):
        parse_tree(data)


class TestSnapshotIO:
    def test_round_trip(self, tmp_path):
        registry = flat_registry(["tw"])
        store = make_store(registry, {("u1", "tw"): [0.5, 0.25], ("u2", "tw"): [1.0, 0.0]})
        models = {"tw": uniform_model(registry, "tw", [2.0, 1.0])}
        tree = parse_tree(
            {"node_id": "root", "combiner": "l2-norm", "weights": [1.0],
             "children": [{"node_id": "tw", "combiner": "supervised-dot", "network": "tw"}]}
        )
        snapshot = score_population(tree, store, models, {}, as_of=date(2023, 11, 14))
        path = tmp_path / "snapshot.txt"
        save_snapshot(snapshot, path)
        loaded = load_snapshot(path)
        assert loaded.as_of == snapshot.as_of
        assert loaded.entries == snapshot.entries
        assert loaded.prior_scores() == {u: e.overall for u, e in snapshot.entries.items()}

    def test_ids_with_tab_newline_and_percent_round_trip(self, tmp_path):
        snapshot = ScoreSnapshot(as_of=date(2023, 11, 14))
        for i, user in enumerate(["a\tb", "c\nd", "e%25f", "u00286"]):
            snapshot.entries[user] = ScoreEntry(
                overall=10.0 * i, raw_root=0.1 * i, node_scores=(("root", 0.1 * i),)
            )
        path = tmp_path / "snapshot.txt"
        save_snapshot(snapshot, path)
        assert len(path.read_text().splitlines()) == 5
        assert "u00286\t" in path.read_text()  # plain ids are written as they are
        assert load_snapshot(path).entries == snapshot.entries

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("u1\t50.0\t0.5\ttw=0.5\n")
        with pytest.raises(ValueError):
            load_snapshot(path)


unit = st.floats(min_value=0, max_value=1)
odd_users = st.sampled_from(["a", "b", "c%d", "50%", "\u00e9t\u00e9", "a\tb", "d e"])


@given(
    vectors=st.dictionaries(  # ids that need escaping or hold a tab, on one network or both
        st.tuples(odd_users, st.sampled_from(["tw", "fb"])),
        st.tuples(unit, unit),
        max_size=12,
    ),
    weights=st.tuples(unit, unit).filter(any),
)
def test_the_snapshot_score_holds_is_the_parse_of_its_file(tmp_path_factory, vectors, weights):
    registry = flat_registry(["tw", "fb"])
    tree = parse_tree({"node_id": "root", "combiner": "l2-norm", "weights": [2.0, 1.0], "children": [
        {"node_id": network, "combiner": "supervised-dot", "network": network} for network in ("tw", "fb")
    ]})
    models = {network: uniform_model(registry, network, weights) for network in ("tw", "fb")}
    snapshot = score_population(tree, make_store(registry, vectors), models, {}, as_of=date(2023, 11, 14))
    path = tmp_path_factory.mktemp("handed") / "snapshot.txt"
    save_snapshot(snapshot, path)
    parsed = load_snapshot(path)

    def bits(entry):  # each score as its bits, so that -0.0 is not 0.0
        scores = [entry.overall, entry.raw_root, *(score for _, score in entry.node_scores)]
        return np.array(scores).tobytes(), [node for node, _ in entry.node_scores]

    assert snapshot.as_of == parsed.as_of
    assert list(snapshot.entries) == list(parsed.entries)  # the same users, in the same order
    assert [bits(entry) for entry in snapshot.entries.values()] == [bits(entry) for entry in parsed.entries.values()]


# -- the walk over all users against the per-user reference --------------------

NETWORKS = ("tw", "fb", "ig")


@st.composite
def score_trees(draw):
    """A tree of up to three levels below the root, leaves on ``NETWORKS`` (two
    may share one), interior nodes of either combiner, with explicit weights or
    heuristic ones on either basis."""
    ids = count()

    def node(depth):
        node_id = "root" if depth == 0 else f"n{next(ids)}"
        if depth == 3 or (depth and draw(st.booleans())):
            return {"node_id": node_id, "network": draw(st.sampled_from(NETWORKS))}
        children = [node(depth + 1) for _ in range(draw(st.integers(1, 3)))]
        spec = {"node_id": node_id, "combiner": draw(st.sampled_from(["l2-norm", "supervised-dot"])),
                "children": children}
        if draw(st.booleans()):
            weight = st.sampled_from([0.0, 0.1, 0.5, 1.0, 3.0])
            spec["weights"] = draw(st.lists(weight, min_size=len(children), max_size=len(children)).filter(any))
        else:
            spec["heuristic_basis"] = draw(st.sampled_from(["graph_size", "avg_node_degree"]))
        return spec

    return parse_tree(node(0))


WIDTH = 12  # wide enough that a gemv, M @ w, would give other bits than a dot per row
cell = st.one_of(st.just(-0.0), st.just(0.0), unit)
model_weight = st.one_of(st.just(0.0), st.floats(min_value=0, max_value=5))
statistic = st.sampled_from([0.0, 1.0, 7.5, 1e6])


def entry_bits(entry):
    """An entry's node ids and the bits of its scores, so that -0.0 is not 0.0."""
    if entry is None:
        return None
    scores = [entry.overall, entry.raw_root, *(score for _, score in entry.node_scores)]
    return np.array(scores).tobytes(), [node for node, _ in entry.node_scores]


@given(
    tree=score_trees(),
    vectors=st.dictionaries(  # users missing from some networks, -0.0 cells
        st.tuples(st.sampled_from(["a", "b", "c", "d", "e"]), st.sampled_from(NETWORKS)),
        st.lists(cell, min_size=WIDTH, max_size=WIDTH),
        max_size=15,
    ),
    # all 0: a zero-sum model
    weights=st.tuples(*(st.lists(model_weight, min_size=WIDTH, max_size=WIDTH) for _ in NETWORKS)),
    stats=st.tuples(*(st.tuples(statistic, statistic) for _ in NETWORKS)),
)
def test_score_population_equals_the_per_user_reference_bit_for_bit(tree, vectors, weights, stats):
    registry = flat_registry(NETWORKS, WIDTH)
    store = make_store(registry, vectors)
    models = {network: uniform_model(registry, network, w) for network, w in zip(NETWORKS, weights)}
    graph = {network: dict(zip(("graph_size", "avg_node_degree"), s)) for network, s in zip(NETWORKS, stats)}
    walked, referred = io.StringIO(), io.StringIO()
    with redirect_stdout(walked):
        snapshot = score_population(tree, store, models, graph, as_of=date(2023, 11, 14))
    with redirect_stdout(referred):
        expected = {user: reference_score_user(user, tree, store, models, graph) for user in store.users()}
    # a node that some user reaches and whose basis is 0 for every child warns once
    warnings = walked.getvalue().splitlines()
    assert len(warnings) == len(set(warnings)) and set(warnings) == set(referred.getvalue().splitlines())
    assert list(snapshot.entries) == [user for user, entry in expected.items() if entry is not None]
    for user, entry in expected.items():
        assert entry_bits(snapshot.entries.get(user)) == entry_bits(entry)
        assert entry_bits(score_user(user, tree, store, models, graph)) == entry_bits(entry)
