import math
import random
import re
from dataclasses import replace
from datetime import date

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from influence_engine.events import SECONDS_PER_DAY, WINDOW_DAYS
from influence_engine.features import (
    CohortContext,
    RawFeatureTable,
    aggregate_dynamic,
    aggregate_longlasting,
    compute_global_maxima,
    conditional_emit,
    dump_table,
    load_store,
    multiday_sketch,
    normalize,
)
from influence_engine.registry import FeatureRegistry, NetworkSpec, dynamic_key, longlasting_key

from conftest import make_small_registry
from oracles import brute_window_counts
from test_ingest import REF, ev, write_inputs
from influence_engine.ingest import InputPaths, load_batch
from influence_engine.events import ProfileSnapshot, GraphEdge


def batch_from(tmp_path, small_registry, events=(), profiles=(), edges=()):
    paths = write_inputs(tmp_path, events=events, profiles=profiles, edges=edges)
    batch, _ = load_batch(paths, REF, small_registry)
    return batch


class TestConditionalEmit:
    def ctx(self, **scores):
        return CohortContext(prior_scores=scores, peer_band=5.0)

    def test_higher_actor(self):
        event = ev("author", actor="actor", ts=REF - 10)
        emits = conditional_emit(event, self.ctx(actor=70.0, author=50.0), REF)
        assert [c for c, _ in emits] == ["all", "higher"]

    def test_peer_actor(self):
        event = ev("author", actor="actor", ts=REF - 10)
        emits = conditional_emit(event, self.ctx(actor=52.0, author=50.0), REF)
        assert [c for c, _ in emits] == ["all", "peers"]

    def test_bootstrap_emits_all_only(self):
        event = ev("author", actor="actor", ts=REF - 10)
        assert conditional_emit(event, CohortContext(), REF) == [("all", 0)]

    def test_missing_one_side_emits_all_only(self):
        event = ev("author", actor="actor", ts=REF - 10)
        emits = conditional_emit(event, self.ctx(actor=70.0), REF)
        assert [c for c, _ in emits] == ["all"]

    def test_day_index(self):
        event = ev("author", actor="actor", ts=REF - 5 * SECONDS_PER_DAY - 1)
        assert conditional_emit(event, CohortContext(), REF) == [("all", 5)]

    def test_equal_scores_are_peers_not_higher(self):
        event = ev("author", actor="actor", ts=REF - 10)
        emits = conditional_emit(event, self.ctx(actor=50.0, author=50.0), REF)
        assert [c for c, _ in emits] == ["all", "peers"]


class TestMultidaySketch:
    def test_single_event_day_5(self):
        counts = multiday_sketch({5: 1}, WINDOW_DAYS)
        assert counts == {3: 0, 7: 1, 14: 1, 21: 1, 30: 1, 60: 1, 90: 1}

    def test_mixed_days(self):
        counts = multiday_sketch({0: 2, 10: 1}, WINDOW_DAYS)
        assert counts[3] == 2
        assert counts[7] == 2
        assert counts[14] == 3
        assert counts[90] == 3

    def test_empty(self):
        assert multiday_sketch({}, WINDOW_DAYS) == {w: 0 for w in WINDOW_DAYS}

    def test_out_of_range_day_rejected(self):
        with pytest.raises(ValueError):
            multiday_sketch({90: 1}, WINDOW_DAYS)

    @given(
        days=st.lists(st.integers(min_value=0, max_value=89), min_size=0, max_size=200)
    )
    def test_matches_brute_force_and_nests(self, days):
        buckets = {}
        for d in days:
            buckets[d] = buckets.get(d, 0) + 1
        counts = multiday_sketch(buckets, WINDOW_DAYS)
        assert counts == brute_window_counts(days, WINDOW_DAYS)
        ordered = [counts[w] for w in WINDOW_DAYS]
        assert ordered == sorted(ordered)


class TestAggregateDynamic:
    def test_worked_tuple_example(self, tmp_path, small_registry):
        # four comments on author p's fb photos from peers within 7 days
        events = [
            ev("p", actor=f"q{i}", network="fb", content="photo", action="comment",
               ts=REF - (i + 1) * SECONDS_PER_DAY)
            for i in range(4)
        ]
        batch = batch_from(tmp_path, small_registry, events=events)
        scores = {"p": 50.0, "q0": 51.0, "q1": 49.0, "q2": 52.0, "q3": 48.0}
        table = aggregate_dynamic(batch, CohortContext(prior_scores=scores), small_registry)
        key = dynamic_key("fb", "photo", "comment", "peers", 7)
        assert table.get("p", key) == 4.0

    def test_empty_batch(self, tmp_path, small_registry):
        batch = batch_from(tmp_path, small_registry)
        table = aggregate_dynamic(batch, CohortContext(), small_registry)
        assert table.values == {}

    def test_order_permutation_invariance(self, tmp_path, small_registry):
        rng = random.Random(3)
        events = [
            ev("a", actor=f"r{i}", network="tw",
               content=rng.choice(["message", "photo"]),
               action=rng.choice(["comment", "like"]),
               ts=REF - rng.randrange(1, 90 * SECONDS_PER_DAY))
            for i in range(50)
        ]
        shuffled = events[:]
        rng.shuffle(shuffled)
        t1 = aggregate_dynamic(batch_from(tmp_path / "a", small_registry, events=events),
                               CohortContext(), small_registry)
        t2 = aggregate_dynamic(batch_from(tmp_path / "b", small_registry, events=shuffled),
                               CohortContext(), small_registry)
        assert t1.values == t2.values

    @given(shards=st.sampled_from([1, 2, 4, 8]))
    def test_partition_invariance(self, tmp_path_factory, shards):
        from conftest import make_small_registry

        small_registry = make_small_registry()
        tmp = tmp_path_factory.mktemp("agg")
        rng = random.Random(9)
        events = [
            ev(f"a{rng.randrange(6)}", actor=f"r{i}", network="tw",
               content="message", action="like",
               ts=REF - rng.randrange(1, 90 * SECONDS_PER_DAY))
            for i in range(120)
        ]
        batch = batch_from(tmp, small_registry, events=events)
        base = aggregate_dynamic(batch, CohortContext(), small_registry, shards=1)
        other = aggregate_dynamic(batch, CohortContext(), small_registry, shards=shards)
        assert base.values == other.values

    def test_window_nesting_on_aggregated_table(self, tmp_path, small_registry):
        rng = random.Random(5)
        events = [
            ev("a", actor=f"r{i}", network="tw", content="photo", action="comment",
               ts=REF - rng.randrange(1, 90 * SECONDS_PER_DAY))
            for i in range(80)
        ]
        batch = batch_from(tmp_path, small_registry, events=events)
        table = aggregate_dynamic(batch, CohortContext(), small_registry)
        counts = [
            table.get("a", dynamic_key("tw", "photo", "comment", "all", w))
            for w in WINDOW_DAYS
        ]
        assert counts == sorted(counts)
        assert counts[-1] == 80.0

    def test_adding_event_never_decreases_features(self, tmp_path, small_registry):
        events = [
            ev("a", actor=f"r{i}", network="tw", content="message", action="like",
               ts=REF - 1000 * (i + 1))
            for i in range(10)
        ]
        smaller = aggregate_dynamic(
            batch_from(tmp_path / "s", small_registry, events=events[:-1]),
            CohortContext(), small_registry)
        bigger = aggregate_dynamic(
            batch_from(tmp_path / "b", small_registry, events=events),
            CohortContext(), small_registry)
        for cell, value in smaller.values.items():
            assert bigger.values.get(cell, 0.0) >= value


class TestLonglasting:
    def profiles(self):
        return [
            ProfileSnapshot("a", "tw", date(2023, 11, 1),
                            numeric_attrs=(("followers", 1500.0), ("unregistered", 3.0))),
            ProfileSnapshot("a", "fb", date(2023, 11, 1),
                            categorical_attrs=(("education_level", "PhD"),)),
            ProfileSnapshot("b", "fb", date(2023, 11, 1),
                            categorical_attrs=(("education_level", "wizard"),)),
        ]

    def test_numeric_pass_through_and_ordinal_mapping(self, tmp_path, small_registry):
        batch = batch_from(tmp_path, small_registry, profiles=self.profiles())
        table, skipped = aggregate_longlasting(batch, small_registry)
        assert table.get("a", longlasting_key("tw", "followers")) == 1500.0
        assert table.get("a", longlasting_key("fb", "education_level")) == 4.0
        assert table.get("b", longlasting_key("fb", "education_level")) == 0.0
        assert skipped == 1

    def test_graph_features(self, tmp_path, small_registry):
        edges = [
            GraphEdge("x", "hub", "wk"),
            GraphEdge("y", "hub", "wk"),
            GraphEdge("hub", "x", "wk"),
        ]
        batch = batch_from(tmp_path, small_registry, edges=edges)
        table, _ = aggregate_longlasting(batch, small_registry)
        assert table.get("hub", longlasting_key("wk", "inlinks")) == 2.0
        assert table.get("hub", longlasting_key("wk", "inlink_outlink_ratio")) == 2.0
        pr = {
            u: table.get(u, longlasting_key("wk", "pagerank"))
            for u in ("x", "y", "hub")
        }
        assert pr["hub"] > pr["x"] > 0
        assert math.isclose(sum(pr.values()), 1.0, abs_tol=1e-6)


class TestMaximaAndNormalize:
    def test_maxima_simple(self):
        from influence_engine.features import RawFeatureTable

        key = longlasting_key("tw", "followers")
        table = RawFeatureTable()
        for user, value in [("a", 3.0), ("b", 7.0), ("c", 2.0)]:
            table.add(user, key, value)
        assert compute_global_maxima(table) == {key: 7.0}

    def test_maxima_of_shard_maxima(self):
        from influence_engine.features import RawFeatureTable

        key = longlasting_key("tw", "followers")
        values = {f"u{i}": float(i * 3 % 17) for i in range(20)}
        whole = RawFeatureTable()
        left, right = RawFeatureTable(), RawFeatureTable()
        for i, (user, value) in enumerate(values.items()):
            whole.add(user, key, value)
            (left if i % 2 else right).add(user, key, value)
        combined = {
            key: max(compute_global_maxima(left).get(key, 0.0),
                     compute_global_maxima(right).get(key, 0.0))
        }
        assert combined == compute_global_maxima(whole)

    def test_normalize_values(self):
        assert normalize(0.0, 5.0) == 0.0
        assert normalize(0.0, 0.0) == 0.0
        assert normalize(5.0, 5.0) == 1.0
        assert math.isclose(normalize(9.0, 99.0), 0.5, rel_tol=1e-12)
        assert normalize(9.0, 99.0) == math.log(10) / math.log(100)

    def test_normalize_rejects_stale_maxima(self):
        with pytest.raises(ValueError):
            normalize(10.0, 9.0)

    @given(
        raw=st.floats(min_value=0, max_value=1e6),
        delta=st.floats(min_value=1e-3, max_value=1e6),
        maximum=st.floats(min_value=1e-3, max_value=1e6),
    )
    def test_normalize_monotone_and_bounded(self, raw, delta, maximum):
        top = max(maximum, raw + delta)
        lo, hi = normalize(raw, top), normalize(raw + delta, top)
        assert 0.0 <= lo < hi <= 1.0


def normalize_in_place(table):
    """What the features stage does between the raw and normalized dumps."""
    maxima = compute_global_maxima(table)
    for cell, raw in table.values.items():
        table.values[cell] = normalize(raw, maxima.get(cell[1], 0.0))
    return maxima


class TestStoreAndDumps:
    def test_store_alignment_and_range(self, tmp_path, small_registry):
        events = [ev("a", actor=f"r{i}", network="tw", ts=REF - 50 - i) for i in range(5)]
        batch = batch_from(tmp_path, small_registry, events=events)
        table = aggregate_dynamic(batch, CohortContext(), small_registry)
        normalize_in_place(table)
        dump_table(table, tmp_path / "normalized.txt")
        store = load_store(tmp_path / "normalized.txt", small_registry)
        vec = store.get("a", "tw")
        assert vec is not None
        assert len(vec) == len(small_registry.keys_for("tw"))
        assert np.all((vec >= 0) & (vec <= 1))
        assert np.max(vec) == 1.0  # the sole author holds every maximum
        assert store.get("a", "fb") is None

    def test_table_dump_round_trip(self, tmp_path, small_registry):
        events = [ev("a", actor=f"r{i}", network="tw", ts=REF - 50 - i) for i in range(5)]
        batch = batch_from(tmp_path, small_registry, events=events)
        table = aggregate_dynamic(batch, CohortContext(), small_registry)
        dump_table(table, tmp_path / "dump.txt")
        store = load_store(tmp_path / "dump.txt", small_registry)
        loaded = {
            (user, small_registry.keys_for(network)[i]): vec[i]
            for (user, network), vec in store.vectors.items()
            for i in np.flatnonzero(vec)
        }
        assert loaded == table.values

    def test_key_outside_registry_is_named(self, tmp_path, small_registry):
        all_only = replace(small_registry, cohorts=("all",))
        path = tmp_path / "normalized.txt"
        path.write_text("a\tdyn/tw/photo/like/all/7d\t1.0\na\tdyn/tw/photo/like/peers/7d\t0.5\n")
        with pytest.raises(ValueError, match="'dyn/tw/photo/like/peers/7d'"):
            load_store(path, all_only)


_registry = make_small_registry()
NETWORK_OF = {
    key: network for network in _registry.networks for key in _registry.keys_for(network)
}


@given(
    cells=st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c%d", "\u00e9t\u00e9", "a\tb"]),
            st.sampled_from(sorted(NETWORK_OF)),
            st.floats(min_value=0, max_value=1e12),
        ),
        max_size=40,
    )
)
def test_normalize_dump_and_load_are_one_path(tmp_path_factory, cells):
    registry = make_small_registry()
    table = RawFeatureTable()
    for user, key, value in cells:
        table.add(user, key, value)
    raw = dict(table.values)
    maxima = normalize_in_place(table)
    path = tmp_path_factory.mktemp("store") / "normalized.txt"
    dump_table(table, path)
    store = load_store(path, registry)

    assert set(store.vectors) == {(user, NETWORK_OF[key]) for user, key in raw}
    for (user, network), vec in store.vectors.items():
        for i, key in enumerate(registry.keys_for(network)):
            if (user, key) in raw:
                assert vec[i] == normalize(raw[(user, key)], maxima.get(key, 0.0))
            else:
                assert vec[i] == 0.0


class TestRegistryKeySpace:
    def test_dynamic_count_matches_combinatorial_formula(self, small_registry):
        for network in ("tw", "fb"):
            spec = small_registry.networks[network]
            expected = (
                len(spec.content_types)
                * len(spec.actions)
                * len(small_registry.cohorts)
                * len(small_registry.windows)
            )
            assert len(small_registry.dynamic_keys(network)) == expected

    def test_no_dynamic_keys_for_graph_only_network(self, small_registry):
        assert small_registry.dynamic_keys("wk") == []

    def test_default_registry_count(self):
        from influence_engine.registry import default_registry

        reg = default_registry()
        # 3 cohorts x 7 windows x 3 content types x 6 actions per dynamic network
        assert all(len(reg.dynamic_keys(n)) == 378 for n in reg.scorable_networks())
        assert len(reg.scorable_networks()) == 8

    def test_key_ordering_is_total_and_stable(self, small_registry):
        keys = list(small_registry.keys_for("tw"))
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    @pytest.mark.parametrize("name", ["a/x", "a\tx", "a\nx"])
    @pytest.mark.parametrize(
        "what", ["network", "content type", "action", "cohort", "long-lasting attribute"]
    )
    def test_names_that_break_a_key_are_rejected(self, what, name):
        spec = {"content_types": ("photo",), "actions": ("like",), "longlasting_attrs": ()}
        network, cohorts = "tw", ("all",)
        if what == "network":
            network = name
        elif what == "cohort":
            cohorts = ("all", name)
        else:
            field = {"content type": "content_types", "action": "actions"}.get(what, "longlasting_attrs")
            spec[field] += (name,)
        with pytest.raises(ValueError, match=re.escape(f"{what} name {name!r}")):
            FeatureRegistry(networks={network: NetworkSpec(name=network, **spec)}, cohorts=cohorts)

    def test_slashed_names_cannot_make_two_keys_alike(self):
        # dyn/tw/a/x/y/all/3d would be both ("a", "x/y") and ("a/x", "y")
        spec = NetworkSpec(name="tw", content_types=("a", "a/x"), actions=("x/y", "y"))
        with pytest.raises(ValueError, match="'a/x'"):
            FeatureRegistry(networks={"tw": spec})
