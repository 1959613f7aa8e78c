import math
import random
import re
import zlib
from collections import Counter, defaultdict
from dataclasses import replace
from datetime import date
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from influence_engine.events import SECONDS_PER_DAY, WINDOW_DAYS
from influence_engine.features import (
    COHORT_ALL,
    COHORT_HIGHER,
    COHORT_PEERS,
    aggregate_dynamic,
    aggregate_longlasting,
    compute_global_maxima,
    dump_table,
    load_store,
    normalize,
)
from influence_engine.registry import FeatureRegistry, NetworkSpec, dynamic_key, longlasting_key

from conftest import columns_of, edge_columns_of, make_small_registry, table_of
from oracles import brute_window_counts
from test_ingest import REF, ev, write_inputs
from influence_engine import features, lineio
from influence_engine.ingest import load_batch
from influence_engine.events import GraphEdge, InteractionEvent, ProfileSnapshot


def batch_from(tmp_path, small_registry, events=(), profiles=(), edges=()):
    inputs = write_inputs(tmp_path, events=events, profiles=profiles, edges=edges)
    batch, _ = load_batch(inputs, REF, small_registry)
    return batch


def profiles_of(batch):
    """The profiles that ingest accepts, as features reads them."""
    return map(lineio.decode_profile, batch.profiles)


def edge_columns(batch):
    """The edges that ingest accepts, as the columns features reads."""
    return edge_columns_of(list(map(lineio.decode_edge, batch.edges)))


def columns_from(tmp_path, small_registry, events=()):
    """The columns of the events that ingest accepts, as features reads them."""
    batch = batch_from(tmp_path, small_registry, events=events)
    return columns_of(list(map(lineio.decode_event, batch.events)))


def as_dict(table):
    """A table's cells as {(user, key): value}."""
    cells = zip(table.user.tolist(), table.key.tolist(), table.value.tolist())
    return {(table.users[u], table.keys[k]): v for u, k, v in cells}


def value_of(table, user, key):
    return as_dict(table).get((user, key), 0.0)


# -- the per-event aggregation that aggregate_dynamic replaced, kept as its
# -- reference: one (cohort, day) emission per event, then prefix sums

def conditional_emit(event, prior_scores, peer_band, reference_time):
    """Expand one event into (cohort, day-index) emissions."""
    day_index = int((reference_time - event.timestamp) // SECONDS_PER_DAY)
    out = [(COHORT_ALL, day_index)]
    actor_score = prior_scores.get(event.actor)
    author_score = prior_scores.get(event.author)
    if actor_score is None or author_score is None:
        return out
    if actor_score - author_score > peer_band:
        out.append((COHORT_HIGHER, day_index))
    elif abs(actor_score - author_score) <= peer_band:
        out.append((COHORT_PEERS, day_index))
    return out


def multiday_sketch(day_counts, windows):
    """Per-day buckets to trailing-window counts via prefix sums; a day at or
    beyond the longest window counts in none."""
    max_window = max(windows)
    prefix = [0] * (max_window + 1)
    for day, count in day_counts.items():
        if day < 0:
            raise ValueError(f"day index {day} below 0")
        if day < max_window:
            prefix[day + 1] += count
    for i in range(1, len(prefix)):
        prefix[i] += prefix[i - 1]
    return {w: prefix[w] for w in windows}


def reference_aggregate(columns, prior_scores, registry):
    day_buckets = defaultdict(Counter)
    for event in map(InteractionEvent, *columns):
        if not registry.networks[event.network].dynamic:
            continue
        emitted = conditional_emit(event, prior_scores, registry.peer_band, REF)
        for cohort, day in emitted:
            if cohort in registry.cohorts:
                day_buckets[(event.author, event.network, event.content_type, event.action, cohort)][day] += 1
    cells = {}
    for (author, network, content, action, cohort), days in day_buckets.items():
        for window, count in multiday_sketch(days, registry.windows).items():
            if count > 0:
                cells[(author, dynamic_key(network, content, action, cohort, window))] = float(count)
    return cells


class TestConditionalEmit:
    """Which cohorts one event fires, seen through aggregate_dynamic."""

    def fired(self, prior, ts=REF - 10):
        # prior scores, compared with the small registry's peer_band of 5
        event = ev("author", actor="actor", ts=ts)
        table = aggregate_dynamic(columns_of([event]), REF, prior, make_small_registry())
        return sorted({key.split("/")[4] for _, key in as_dict(table)})

    def test_higher_actor(self):
        assert self.fired(dict(actor=70.0, author=50.0)) == ["all", "higher"]

    def test_peer_actor(self):
        assert self.fired(dict(actor=52.0, author=50.0)) == ["all", "peers"]

    def test_bootstrap_emits_all_only(self):
        event = ev("author", actor="actor", ts=REF - 10)
        table = aggregate_dynamic(columns_of([event]), REF, {}, make_small_registry())
        # day 0: one count in every window of the all cohort, nothing else
        assert as_dict(table) == {
            ("author", dynamic_key("tw", "message", "like", "all", w)): 1.0 for w in WINDOW_DAYS
        }

    def test_missing_one_side_emits_all_only(self):
        assert self.fired(dict(actor=70.0)) == ["all"]

    def test_day_index(self):
        # whole days before the reference time, rounded down: a day index d
        # counts in the windows longer than d
        registry = make_small_registry()
        key = dynamic_key("tw", "message", "like", "all", 7)
        day_5 = ev("a", ts=REF - 5 * SECONDS_PER_DAY - 1)
        table = aggregate_dynamic(columns_of([day_5]), REF, {}, registry)
        assert value_of(table, "a", key) == 1.0
        assert value_of(table, "a", dynamic_key("tw", "message", "like", "all", 3)) == 0.0
        for ts, inside in ((REF - 7 * SECONDS_PER_DAY, False), (REF - 7 * SECONDS_PER_DAY + 1, True)):
            table = aggregate_dynamic(columns_of([ev("a", ts=ts)]), REF, {}, registry)
            assert value_of(table, "a", key) == float(inside)

    def test_equal_scores_are_peers_not_higher(self):
        assert self.fired(dict(actor=50.0, author=50.0)) == ["all", "peers"]

    def test_a_band_apart_is_peers(self):
        assert self.fired(dict(actor=55.0, author=50.0)) == ["all", "peers"]
        assert self.fired(dict(actor=45.0, author=50.0)) == ["all", "peers"]
        assert self.fired(dict(actor=55.5, author=50.0)) == ["all", "higher"]
        assert self.fired(dict(actor=44.5, author=50.0)) == ["all"]


def window_counts(days, windows=WINDOW_DAYS):
    """Window counts of one author's events, ``days`` whole days old."""
    registry = replace(make_small_registry(), windows=tuple(windows))
    events = [ev("a", actor=f"r{i}", ts=REF - d * SECONDS_PER_DAY - 1) for i, d in enumerate(days)]
    table = aggregate_dynamic(columns_of(events), REF, {}, registry)
    return {w: value_of(table, "a", dynamic_key("tw", "message", "like", "all", w)) for w in windows}


class TestMultidaySketch:
    def test_single_event_day_5(self):
        counts = window_counts([5])
        assert counts == {3: 0, 7: 1, 14: 1, 21: 1, 30: 1, 60: 1, 90: 1}

    def test_mixed_days(self):
        counts = window_counts([0, 0, 10])
        assert counts[3] == 2
        assert counts[7] == 2
        assert counts[14] == 3
        assert counts[90] == 3

    def test_empty(self):
        assert window_counts([]) == {w: 0 for w in WINDOW_DAYS}

    def test_out_of_range_day_rejected(self):
        # an event after the reference time has no day index
        with pytest.raises(ValueError):
            window_counts([-1])
        # one older than the longest registered window counts in none
        assert window_counts([90]) == {w: 0 for w in WINDOW_DAYS}
        assert window_counts([14, 5], windows=(3, 7)) == {3: 0, 7: 1}

    @given(
        days=st.lists(st.integers(min_value=0, max_value=89), min_size=0, max_size=200)
    )
    def test_matches_brute_force_and_nests(self, days):
        counts = window_counts(days)
        assert counts == brute_window_counts(days, WINDOW_DAYS)
        ordered = [counts[w] for w in WINDOW_DAYS]
        assert ordered == sorted(ordered)


# prior scores a whole or half band apart, so that differences of exactly
# +-peer_band occur, or anywhere in the score range
scores = st.one_of(st.sampled_from([45.0, 47.5, 50.0, 52.5, 55.0]), st.floats(0, 100))


@given(
    events=st.lists(
        st.builds(
            ev,
            author=st.sampled_from("abc"),
            actor=st.sampled_from("abc"),
            network=st.sampled_from(["tw", "fb", "wk"]),
            content=st.sampled_from(["message", "photo"]),
            action=st.sampled_from(["comment", "like"]),
            ts=st.integers(min_value=REF - 100 * SECONDS_PER_DAY, max_value=REF),
        ),
        max_size=60,
    ),
    prior=st.dictionaries(st.sampled_from("abcd"), scores, min_size=2),
    peer_band=st.sampled_from([5.0, 2.5]),
    cohorts=st.lists(st.sampled_from(["all", "higher", "peers", "other"]), min_size=1, unique=True),
    windows=st.lists(st.sampled_from(WINDOW_DAYS), min_size=1, unique=True),
)
# without the explain phase, which takes minutes to report a failure here
@settings(phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink))
def test_aggregate_dynamic_equals_per_event_reference(events, prior, peer_band, cohorts, windows):
    registry = replace(
        make_small_registry(), cohorts=tuple(cohorts), windows=tuple(windows), peer_band=peer_band
    )
    columns = columns_of(events)
    assert as_dict(aggregate_dynamic(columns, REF, prior, registry)) == reference_aggregate(
        columns, prior, registry
    )


class TestAggregateDynamic:
    def test_worked_tuple_example(self, tmp_path, small_registry):
        # four comments on author p's fb photos from peers within 7 days
        events = [
            ev("p", actor=f"q{i}", network="fb", content="photo", action="comment",
               ts=REF - (i + 1) * SECONDS_PER_DAY)
            for i in range(4)
        ]
        columns = columns_from(tmp_path, small_registry, events=events)
        scores = {"p": 50.0, "q0": 51.0, "q1": 49.0, "q2": 52.0, "q3": 48.0}
        table = aggregate_dynamic(columns, REF, scores, small_registry)
        key = dynamic_key("fb", "photo", "comment", "peers", 7)
        assert value_of(table, "p", key) == 4.0

    def test_empty_batch(self, tmp_path, small_registry):
        columns = columns_from(tmp_path, small_registry)
        table = aggregate_dynamic(columns, REF, {}, small_registry)
        assert as_dict(table) == {}

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
        t1 = aggregate_dynamic(columns_from(tmp_path / "a", small_registry, events=events),
                               REF, {}, small_registry)
        t2 = aggregate_dynamic(columns_from(tmp_path / "b", small_registry, events=shuffled),
                               REF, {}, small_registry)
        assert as_dict(t1) == as_dict(t2)

    @given(shards=st.sampled_from([1, 2, 4, 8]))
    def test_partition_invariance(self, tmp_path_factory, shards):
        # author-disjoint parts aggregated on their own make the same cells
        small_registry = make_small_registry()
        tmp = tmp_path_factory.mktemp("agg")
        rng = random.Random(9)
        events = [
            ev(f"a{rng.randrange(6)}", actor=f"r{i}", network="tw",
               content="message", action="like",
               ts=REF - rng.randrange(1, 90 * SECONDS_PER_DAY))
            for i in range(120)
        ]
        columns = columns_from(tmp, small_registry, events=events)
        base = aggregate_dynamic(columns, REF, {}, small_registry)
        other = {}
        for shard in range(shards):
            part = [e for e in map(InteractionEvent, *columns) if zlib.crc32(e.author.encode()) % shards == shard]
            other.update(as_dict(aggregate_dynamic(columns_of(part), REF, {}, small_registry)))
        assert as_dict(base) == other

    def test_window_nesting_on_aggregated_table(self, tmp_path, small_registry):
        rng = random.Random(5)
        events = [
            ev("a", actor=f"r{i}", network="tw", content="photo", action="comment",
               ts=REF - rng.randrange(1, 90 * SECONDS_PER_DAY))
            for i in range(80)
        ]
        columns = columns_from(tmp_path, small_registry, events=events)
        table = aggregate_dynamic(columns, REF, {}, small_registry)
        counts = [
            value_of(table, "a", dynamic_key("tw", "photo", "comment", "all", w))
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
            columns_from(tmp_path / "s", small_registry, events=events[:-1]),
            REF, {}, small_registry)
        bigger = aggregate_dynamic(
            columns_from(tmp_path / "b", small_registry, events=events),
            REF, {}, small_registry)
        for cell, value in as_dict(smaller).items():
            assert as_dict(bigger).get(cell, 0.0) >= value


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
        table, skipped, _, _ = aggregate_longlasting(profiles_of(batch), edge_columns(batch), small_registry)
        assert value_of(table, "a", longlasting_key("tw", "followers")) == 1500.0
        assert value_of(table, "a", longlasting_key("fb", "education_level")) == 4.0
        assert value_of(table, "b", longlasting_key("fb", "education_level")) == 0.0
        assert skipped == 1

    def test_a_repeated_attribute_sums(self, small_registry):
        # a profile line may repeat an n: or c: attribute, and the values add up
        line = ("user=a\tnetwork=fb\tas_of=2023-11-01\tn:fans=1.5\tn:fans=2.0"
                "\tc:education_level=BS\tc:education_level=PhD")
        profile = lineio.decode_profile(line)
        assert lineio.encode_profile(profile) == line
        # in line order from 0.0: 1e16 + 1.0 rounds back to 1e16, where 1.0 + 1.0 first would not
        rounding = lineio.decode_profile("user=b\tnetwork=fb\tas_of=2023-11-01\tn:fans=1e+16\tn:fans=1.0\tn:fans=1.0")
        table, skipped, _, _ = aggregate_longlasting([profile, rounding], edge_columns_of([]), small_registry)
        assert as_dict(table) == {
            ("a", "ll/fb/fans"): 3.5, ("a", "ll/fb/education_level"): 2.0 + 4.0, ("b", "ll/fb/fans"): 1e16,
        }
        assert skipped == 0

    def test_graph_features(self, tmp_path, small_registry):
        edges = [
            GraphEdge("x", "hub", "wk"),
            GraphEdge("y", "hub", "wk"),
            GraphEdge("hub", "x", "wk"),
        ]
        batch = batch_from(tmp_path, small_registry, edges=edges)
        table, _, unconverged, _ = aggregate_longlasting(profiles_of(batch), edge_columns(batch), small_registry)
        assert value_of(table, "hub", longlasting_key("wk", "inlinks")) == 2.0
        assert value_of(table, "hub", longlasting_key("wk", "inlink_outlink_ratio")) == 2.0
        pr = {
            u: value_of(table, u, longlasting_key("wk", "pagerank"))
            for u in ("x", "y", "hub")
        }
        assert pr["hub"] > pr["x"] > 0
        assert math.isclose(sum(pr.values()), 1.0, abs_tol=1e-6)
        assert unconverged == []

    def test_graph_cells_only_for_the_graph_attrs_a_network_registers(self, tmp_path):
        registry = make_small_registry()
        registry.networks["wk"] = replace(registry.networks["wk"], longlasting_attrs=("pagerank",))
        registry.networks["fb"] = replace(registry.networks["fb"], longlasting_attrs=("inlinks",))
        edges = [GraphEdge(*pair, network) for network in ("fb", "tw", "wk") for pair in ("xy", "yz")]
        batch = batch_from(tmp_path, registry, edges=edges)
        table, _, _, _ = aggregate_longlasting(profiles_of(batch), edge_columns(batch), registry)
        assert set(as_dict(table)) == {
            ("y", "ll/fb/inlinks"), ("z", "ll/fb/inlinks"),
            *((u, "ll/wk/pagerank") for u in "xyz"),
        }


class TestMaximaAndNormalize:
    def test_maxima_simple(self):
        key = longlasting_key("tw", "followers")
        table = table_of({("a", key): 3.0, ("b", key): 7.0, ("c", key): 2.0})
        assert compute_global_maxima(table) == {key: 7.0}

    def test_maxima_of_shard_maxima(self):
        key = longlasting_key("tw", "followers")
        values = {f"u{i}": float(i * 3 % 17) for i in range(20)}
        whole = table_of({(user, key): value for user, value in values.items()})
        left, right = (
            table_of(
                {(user, key): value for i, (user, value) in enumerate(values.items()) if i % 2 == side}
            )
            for side in (1, 0)
        )
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
    cells = zip(table.key.tolist(), table.value.tolist())
    table.value = np.array([normalize(raw, maxima.get(table.keys[k], 0.0)) for k, raw in cells])
    return maxima


class TestStoreAndDumps:
    def test_store_alignment_and_range(self, tmp_path, small_registry):
        events = [ev("a", actor=f"r{i}", network="tw", ts=REF - 50 - i) for i in range(5)]
        columns = columns_from(tmp_path, small_registry, events=events)
        table = aggregate_dynamic(columns, REF, {}, small_registry)
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
        columns = columns_from(tmp_path, small_registry, events=events)
        table = aggregate_dynamic(columns, REF, {}, small_registry)
        dump_table(table, tmp_path / "dump.txt")
        store = load_store(tmp_path / "dump.txt", small_registry)
        loaded = {
            (user, small_registry.keys_for(network)[i]): vec[i]
            for (user, network), vec in store.vectors.items()
            for i in np.flatnonzero(vec)
        }
        assert loaded == as_dict(table)

    def test_key_outside_registry_is_named(self, tmp_path, small_registry):
        all_only = replace(small_registry, cohorts=("all",))
        path = tmp_path / "normalized.txt"
        path.write_text("a\tdyn/tw/photo/like/all/7d\t1.0\na\tdyn/tw/photo/like/peers/7d\t0.5\n")
        with pytest.raises(ValueError, match="'dyn/tw/photo/like/peers/7d'"):
            load_store(path, all_only)

    GOOD = "a\tdyn/tw/photo/like/all/7d\t0.5\n"

    @pytest.mark.parametrize(
        "line, error",
        [
            ("a\tdyn/tw/photo/like/all/7d\n", "not enough values"),
            ("a\tdyn/tw/photo/like/all/7d\t0.5\t1\n", "too many values"),
            ("b\tdyn/tw/photo/like/all/7d\tx\n", "could not convert"),
            ("b\tdyn/tw/photo/like/all/7d\tnan\n", "'nan' must be finite"),
            ("b\tdyn/tw/photo/like/all/7d\tinf\n", "'inf' must be finite"),
            ("b\tdyn/tw/photo/like/all/7d\t-0.5\n", "'-0.5' must be finite and >= 0"),
            ("a\tdyn/tw/photo/like/all/7d\t0.25\n", "more than one line"),
        ],
        ids=["two-fields", "four-fields", "not-a-float", "nan", "inf", "negative", "repeated-cell"],
    )
    def test_a_damaged_line_is_refused_with_the_file_named(self, tmp_path, small_registry, line, error):
        path = tmp_path / "normalized.txt"
        path.write_text(self.GOOD + line)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{re.escape(error)}"):
            load_store(path, small_registry)

    def test_a_last_line_without_its_newline_is_refused(self, tmp_path, small_registry):
        path = tmp_path / "normalized.txt"
        path.write_text(self.GOOD + "b\tdyn/tw/photo/like/all/7d\t0.5")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: the last line has no newline"):
            load_store(path, small_registry)

    def test_a_zero_value_is_a_cell(self, tmp_path, small_registry):
        # a cell that holds 0.0 still fills its slot once
        path = tmp_path / "normalized.txt"
        path.write_text("a\tdyn/tw/photo/like/all/7d\t0.0\n")
        assert not load_store(path, small_registry).get("a", "tw").any()
        path.write_text("a\tdyn/tw/photo/like/all/7d\t0.0\n" * 2)
        with pytest.raises(ValueError, match="more than one line"):
            load_store(path, small_registry)


class TestStoreHandOver:
    """``load_store`` keeps what it parsed for the next reader of the same bytes."""

    LINE = "a\tdyn/tw/photo/like/all/7d\t0.5\n"

    @pytest.fixture
    def parses(self, monkeypatch):
        """The paths ``load_store`` parsed, from a state that holds no store."""
        parsed = []
        parse = features._parse_store
        monkeypatch.setattr(features, "_held", [])
        monkeypatch.setattr(features, "_parse_store", lambda path, registry: parsed.append(path) or parse(path, registry))
        return parsed

    def test_a_store_is_handed_over_once(self, tmp_path, small_registry, parses):
        path = tmp_path / "normalized.txt"
        path.write_text(self.LINE)
        first = load_store(path, small_registry)
        assert load_store(path, make_small_registry()) is first  # an equal registry
        assert features._held == []  # nothing holds it after its second reader
        third = load_store(path, small_registry)
        assert third is not first and parses == [path, path]
        assert third.vectors.keys() == first.vectors.keys()

    def test_other_bytes_or_another_registry_parse_again(self, tmp_path, small_registry, parses):
        path = tmp_path / "normalized.txt"
        path.write_text(self.LINE)
        load_store(path, small_registry)
        path.write_text(self.LINE.replace("0.5", "0.25"))
        assert load_store(path, small_registry).get("a", "tw").max() == 0.25
        assert load_store(path, replace(small_registry, cohorts=("all",))).get("a", "tw").max() == 0.25
        assert parses == [path] * 3

    def test_a_refused_file_is_not_held(self, tmp_path, small_registry, parses):
        path = tmp_path / "normalized.txt"
        path.write_text(self.LINE * 2)
        for _ in range(2):
            with pytest.raises(ValueError, match="more than one line"):
                load_store(path, small_registry)
        assert features._held == [] and parses == [path] * 2

    def test_the_vectors_are_read_only(self, tmp_path, small_registry, parses):
        path = tmp_path / "normalized.txt"
        path.write_text(self.LINE)
        vec = load_store(path, small_registry).get("a", "tw")
        with pytest.raises(ValueError, match="read-only"):
            vec[0] = 1.0


def test_dump_store_holds_a_store_for_its_readers_only(tmp_path, small_registry, monkeypatch):
    monkeypatch.setattr(features, "_held", [])
    table = table_of({("a", "dyn/tw/photo/like/all/7d"): 0.5})
    path = tmp_path / "normalized.txt"
    features.dump_store(table, path, small_registry, readers=2)
    held = features._held[0][1]
    assert load_store(path, small_registry) is held and load_store(path, small_registry) is held
    assert features._held == []  # dropped after its last reader
    assert load_store(path, small_registry) is not held  # and parsed again
    features.dump_store(table, path, small_registry, readers=0)
    assert features._held == []  # no reader: nothing held

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
    raw = {}
    for user, key, value in cells:
        raw[(user, key)] = raw.get((user, key), 0.0) + value
    table = table_of(raw)
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


def dump_lines(table):
    """What ``dump_table`` writes, one cell and one repr at a time."""
    order = sorted(range(len(table.value)), key=lambda i: (table.users[table.user[i]], table.keys[table.key[i]]))
    return [
        f"{lineio.encode_value(table.users[table.user[i]])}\t{table.keys[table.key[i]]}\t{table.value[i].item()!r}"
        for i in order
    ]


@given(
    cells=st.dictionaries(
        st.tuples(st.sampled_from(["a", "b", "c%d", "\u00e9t\u00e9", "a\tb"]), st.sampled_from(sorted(NETWORK_OF))),
        # subnormals included; the sampled values make repeats likely
        st.floats(min_value=0) | st.sampled_from([0.0, 5e-324, 1 / 3, 1.0]),
        max_size=40,
    ),
    negative_zero=st.booleans(),
)
def test_dump_table_writes_what_the_per_cell_loop_writes(tmp_path_factory, cells, negative_zero):
    table = table_of(cells)
    if negative_zero and len(table.value):
        table.value[0] = -0.0  # which must not print as the 0.0 it equals
    path = tmp_path_factory.mktemp("dump") / "table.txt"
    dump_table(table, path)
    assert path.read_text(encoding="utf-8").splitlines() == dump_lines(table)


def load_store_per_line(path, registry):
    """What ``load_store`` reads, one line and one vector at a time."""
    slots = {key: (network, index) for network in registry.networks for index, key in enumerate(registry.keys_for(network))}
    vectors, cells = {}, 0
    for cells, line in enumerate(lineio.read_lines(path), 1):
        user, key, value = line.split("\t")
        network, index = slots[key]
        number = float(value)
        assert 0 <= number < math.inf
        vec = vectors.setdefault((lineio.decode_value(user), network), np.full(len(registry.keys_for(network)), math.nan))
        vec[index] = number
    assert sum(np.count_nonzero(~np.isnan(vec)) for vec in vectors.values()) == cells
    for vec in vectors.values():
        vec[np.isnan(vec)] = 0.0
    return vectors


@given(
    cells=st.dictionaries(
        st.tuples(st.sampled_from(["a", "b", "c%d", "\u00e9t\u00e9", "a\tb", "d e"]), st.sampled_from(sorted(NETWORK_OF))),
        st.floats(min_value=0, allow_infinity=False) | st.sampled_from([0.0, 5e-324, 1 / 3, 1.0]),
        max_size=40,
    ),
    negative_zero=st.booleans(),
    chunk_hint=st.sampled_from([1, 100, lineio.CHUNK_HINT]),  # bytes of lines per chunk
)
def test_load_store_reads_what_the_per_line_loop_reads(tmp_path_factory, cells, negative_zero, chunk_hint):
    table = table_of(cells)
    if negative_zero and len(table.value):
        table.value[0] = -0.0
    path = tmp_path_factory.mktemp("store") / "normalized.txt"
    dump_table(table, path)
    features._held.clear()  # a parse of this file, not an earlier example's store
    with mock.patch.object(lineio, "CHUNK_HINT", chunk_hint):
        store = load_store(path, _registry)
    expected = load_store_per_line(path, _registry)
    assert store.vectors.keys() == expected.keys()
    assert all(store.vectors[pair].tobytes() == vec.tobytes() for pair, vec in expected.items())


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
        reg = FeatureRegistry.load(Path(__file__).resolve().parent.parent / "configs" / "registry.json")
        # 3 cohorts x 7 windows x 3 content types x 6 actions per dynamic network
        assert all(len(reg.dynamic_keys(n)) == 378 for n in reg.scorable_networks())
        assert len(reg.scorable_networks()) == 8
        # Wikipedia carries only graph and profile signals
        assert reg.keys_for("wk") == ("ll/wk/inlink_outlink_ratio", "ll/wk/inlinks", "ll/wk/pagerank")

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

    def test_names_that_differ_only_in_case_are_refused(self):
        # both would load as "tw", and one spec would be dropped
        data = {"networks": {"TW": {"actions": ["like"]}, "tw": {"actions": ["reply"]}}}
        with pytest.raises(ValueError, match=re.escape("['TW', 'tw']")):
            FeatureRegistry.from_dict(data)
        assert list(FeatureRegistry.from_dict({"networks": {"TW": {}}}).networks) == ["tw"]

    @pytest.mark.parametrize("data", [["networks"], [{"networks": {}}], "networks"])
    def test_a_registry_that_is_not_an_object_is_refused(self, data):
        # a list of strings would otherwise read as a list of unknown keys
        with pytest.raises(TypeError, match="^registry must be a JSON object"):
            FeatureRegistry.from_dict(data)

    @pytest.mark.parametrize("band", [0.0, -1.0, math.nan, math.inf])
    def test_peer_band_must_be_finite_and_above_zero(self, small_registry, band):
        # nan would fire no higher or peers cohort at all, inf would make every pair peers
        data = {**small_registry.to_dict(), "peer_band": band}
        with pytest.raises(ValueError, match="peer_band"):
            FeatureRegistry.from_dict(data)


# user ids that need escaping or hold a tab, on some networks only, each with
# some of their network's keys
ODD_USERS = ["a", "b", "c%d", "50%", "\u00e9t\u00e9", "a\tb", "d e"]
handed_cells = st.dictionaries(
    st.tuples(st.sampled_from(ODD_USERS), st.sampled_from(sorted(NETWORK_OF))),
    st.floats(min_value=0, max_value=1) | st.sampled_from([0.0, -0.0, 5e-324, 1 / 3, 1.0]),
    max_size=40,
)


@given(cells=handed_cells, idle=st.booleans())
def test_the_store_features_holds_is_the_parse_of_its_file(tmp_path_factory, cells, idle):
    table = table_of(cells)
    if idle:  # a user of the table without a cell, as an author on no dynamic network is
        table.users.append("idle")
    path = tmp_path_factory.mktemp("handed") / "normalized.txt"
    features.dump_store(table, path, _registry, readers=1)
    (_, held), = features._held
    features._held.clear()
    parsed = features._parse_store(path, _registry)
    assert list(held.vectors) == list(parsed.vectors)  # the same pairs, in the same order
    for pair, vec in parsed.vectors.items():
        assert held.vectors[pair].tobytes() == vec.tobytes()  # bitwise: -0.0 stays -0.0
        assert not held.vectors[pair].flags.writeable
