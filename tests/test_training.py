import functools

import numpy as np
import pytest

from influence_engine import nnls, training
from influence_engine.events import PairwiseLabel
from influence_engine.features import FeatureStore
from influence_engine.registry import FeatureRegistry, NetworkSpec
from influence_engine.training import (
    CleanPair,
    EmptyDesign,
    WeightVector,
    build_design,
    evaluate_model,
    load_model,
    preprocess_labels,
    save_model,
    split_pairs,
    train_network,
)


def label(a, b, va, vb, network="tw"):
    return PairwiseLabel(network, a, b, va, vb)


def tiny_registry(n_features=3):
    # one network whose feature space is just n longlasting attrs
    attrs = tuple(f"attr{i}" for i in range(n_features))
    return FeatureRegistry(
        networks={"tw": NetworkSpec(name="tw", longlasting_attrs=attrs, dynamic=False)}
    )


def store_with(vectors, registry):
    store = FeatureStore(registry=registry)
    for user, values in vectors.items():
        store.vectors[(user, "tw")] = np.asarray(values, dtype=float)
    return store


class TestPreprocessLabels:
    def test_clear_winner_kept(self):
        pairs = preprocess_labels([label("a", "b", 5, 3)])
        assert pairs == [CleanPair("tw", winner="a", loser="b", margin=2)]

    def test_below_margin_dropped(self):
        assert preprocess_labels([label("a", "b", 4, 3)]) == []

    def test_tie_dropped(self):
        assert preprocess_labels([label("a", "b", 2, 2)]) == []

    def test_duplicates_merged_before_thresholding(self):
        # individually below margin; summed votes are (5, 3)
        labels = [label("a", "b", 4, 3), label("b", "a", 0, 1)]
        pairs = preprocess_labels(labels)
        assert pairs == [CleanPair("tw", winner="a", loser="b", margin=2)]

    def test_merge_can_flip_apparent_winner(self):
        labels = [label("a", "b", 3, 0), label("a", "b", 1, 6)]
        pairs = preprocess_labels(labels)
        assert pairs == [CleanPair("tw", winner="b", loser="a", margin=2)]

    def test_networks_kept_separate(self):
        labels = [label("a", "b", 5, 1, network="tw"), label("a", "b", 1, 5, network="fb")]
        pairs = preprocess_labels(labels)
        assert {(p.network, p.winner) for p in pairs} == {("tw", "a"), ("fb", "b")}


class TestBuildDesign:
    def test_difference_rows_with_unit_target(self):
        registry = tiny_registry(2)
        store = store_with({"w": [0.8, 0.2], "l": [0.3, 0.2]}, registry)
        X, y, skipped = build_design([CleanPair("tw", "w", "l", 2)], store, "tw")
        assert np.allclose(X, [[0.5, 0.0]])
        assert np.array_equal(y, [1.0])
        assert skipped == 0

    def test_missing_vector_skipped_and_counted(self):
        registry = tiny_registry(2)
        store = store_with({"w": [0.8, 0.2]}, registry)
        X, y, skipped = build_design([CleanPair("tw", "w", "ghost", 2)], store, "tw")
        assert y.shape == (0,)
        assert skipped == 1

    def test_identical_vectors_keep_zero_row(self):
        registry = tiny_registry(2)
        store = store_with({"w": [0.5, 0.5], "l": [0.5, 0.5]}, registry)
        X, y, _ = build_design([CleanPair("tw", "w", "l", 2)], store, "tw")
        assert np.array_equal(X, [[0.0, 0.0]])

    def test_empty_system_refuses_training(self):
        registry = tiny_registry(2)
        with pytest.raises(EmptyDesign, match="^no-pairs$"):
            train_network([], store_with({}, registry), registry, "tw")
        # the network's own pairs are the ones that count
        with pytest.raises(EmptyDesign, match="^no-pairs$"):
            train_network([CleanPair("fb", "w", "l", 2)], store_with({}, registry), registry, "tw")
        store = store_with({"w": [0.8, 0.2]}, registry)
        with pytest.raises(EmptyDesign, match="^no-design-rows$"):
            train_network([CleanPair("tw", "w", "ghost", 2)], store, registry, "tw")


class TestEvaluateModel:
    def weight(self, values, registry):
        return WeightVector(
            network="tw",
            weights=np.asarray(values, dtype=float),
            registry_hash=registry.registry_hash("tw"),
        )

    def test_perfect_model_has_accuracy_one(self):
        registry = tiny_registry(2)
        store = store_with({"hi": [0.9, 0.1], "lo": [0.1, 0.1]}, registry)
        w = self.weight([1.0, 0.0], registry)
        report = evaluate_model(w, [CleanPair("tw", "hi", "lo", 2)], store)
        assert report.pairwise_accuracy == 1.0
        assert report.f1 == 1.0

    def test_zero_weights_give_all_ties(self):
        registry = tiny_registry(2)
        store = store_with({"a": [0.9, 0.1], "b": [0.1, 0.2]}, registry)
        w = self.weight([0.0, 0.0], registry)
        report = evaluate_model(w, [CleanPair("tw", "a", "b", 2)], store)
        assert report.pairwise_accuracy == 0.5
        assert report.f1 == 0.0

    def test_solver_convergence_reaches_report_line(self, monkeypatch):
        registry = tiny_registry(3)
        vectors = {"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0], "c": [0.0, 0.0, 1.0], "z": [0.0] * 3}
        store = store_with(vectors, registry)
        # with no holdout the design is eye(3) in some row order: one active-set step per coordinate
        pairs = [CleanPair("tw", u, "z", 2) for u in "abc"]
        for max_iter, token in ((1, "converged=0"), (None, "converged=1")):
            monkeypatch.setattr(training, "nnls", functools.partial(nnls.nnls, max_iter=max_iter))
            w, report = train_network(pairs, store, registry, "tw", holdout_fraction=0.0)
            assert report.converged == w.converged
            assert token in report.summary_line().split("\t")

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            WeightVector(network="tw", weights=np.array([-0.1]), registry_hash="x")

    def test_flipped_label_rate_reflected_in_accuracy(self):
        registry = tiny_registry(1)
        rng = np.random.default_rng(8)
        users = {f"u{i}": [float(v)] for i, v in enumerate(rng.random(400))}
        store = store_with(users, registry)
        names = list(users)
        pairs = []
        flips = 0
        for _ in range(1000):
            a, b = rng.choice(len(names), size=2, replace=False)
            a, b = names[int(a)], names[int(b)]
            winner, loser = (a, b) if users[a][0] > users[b][0] else (b, a)
            if rng.random() < 0.15:
                winner, loser = loser, winner
                flips += 1
            pairs.append(CleanPair("tw", winner, loser, 2))
        w = self.weight([1.0], registry)
        report = evaluate_model(w, pairs, store)
        expected = 1.0 - flips / 1000
        assert abs(report.pairwise_accuracy - expected) < 1e-9
        assert abs(report.pairwise_accuracy - 0.85) < 0.03


class TestRecovery:
    def planted_setup(self, seed, n_users=300, n_features=4):
        registry = tiny_registry(n_features)
        rng = np.random.default_rng(seed)
        planted = rng.random(n_features)
        vectors = {f"u{i}": rng.random(n_features) for i in range(n_users)}
        store = store_with(vectors, registry)
        return registry, rng, planted, vectors, store

    def make_pairs(self, rng, planted, vectors, count, min_margin=0.05):
        names = list(vectors)
        pairs = []
        while len(pairs) < count:
            i, j = rng.choice(len(names), size=2, replace=False)
            a, b = names[int(i)], names[int(j)]
            sa, sb = float(vectors[a] @ planted), float(vectors[b] @ planted)
            if abs(sa - sb) < min_margin:
                continue
            winner, loser = (a, b) if sa > sb else (b, a)
            pairs.append(CleanPair("tw", winner, loser, 2))
        return pairs

    def test_noise_free_recovery_orders_holdout_perfectly(self):
        registry, rng, planted, vectors, store = self.planted_setup(seed=3)
        pairs = self.make_pairs(rng, planted, vectors, 600)
        w, report = train_network(pairs, store, registry, "tw", seed=0)
        assert report.pairwise_accuracy == 1.0
        assert np.all(w.weights >= 0)

    def test_split_is_deterministic(self):
        pairs = [CleanPair("tw", f"w{i}", f"l{i}", 2) for i in range(50)]
        assert split_pairs(pairs, 0.2, seed=7) == split_pairs(pairs, 0.2, seed=7)
        train, holdout = split_pairs(pairs, 0.2, seed=7)
        assert len(train) == 40 and len(holdout) == 10
        assert set(train) | set(holdout) == set(pairs)


class TestModelFiles:
    def test_round_trip_and_hash_check(self, tmp_path):
        registry = tiny_registry(3)
        w = WeightVector(
            network="tw",
            weights=np.array([0.5, 0.0, 1.25]),
            registry_hash=registry.registry_hash("tw"),
            iterations=4,
            residual_norm=0.75,
        )
        path = tmp_path / "tw.model"
        save_model(w, registry, path)
        loaded = load_model(path, registry)
        assert np.array_equal(loaded.weights, w.weights)
        assert loaded.iterations == 4 and loaded.residual_norm == 0.75

        other = tiny_registry(5)
        with pytest.raises(ValueError, match="different feature registry"):
            load_model(path, other)
