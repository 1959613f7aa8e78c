import random
import re
from collections import Counter
from datetime import date
from urllib.parse import quote

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from influence_engine import lineio
from influence_engine.events import (
    GraphEdge,
    InteractionEvent,
    PairwiseLabel,
    ProfileSnapshot,
    TimeWindow,
    validate_event,
)

from influence_engine.ingest import INPUT_FILES, load_batch

from conftest import columns_of, edge_columns_of

REF = 1_700_000_000


def ev(actor="a", author="b", network="tw", content="message", action="like", ts=REF - 100):
    return InteractionEvent(
        actor=actor,
        author=author,
        network=network,
        content_type=content,
        action=action,
        timestamp=ts,
    )


class TestUserId:
    """Ids are plain strings; the decoders reject an empty one."""

    def test_empty_profile_id_rejected(self):
        records = [
            (lineio.decode_event, lineio.encode_event(*ev(actor=""))),
            (lineio.decode_event, lineio.encode_event(*ev(author=""))),
            (lineio.decode_profile, lineio.encode_profile(ProfileSnapshot("", "tw", date(2023, 11, 1)))),
            (lineio.decode_edge, lineio.encode_edge(GraphEdge("", "b", "wk"))),
            (lineio.decode_edge, lineio.encode_edge(GraphEdge("a", "", "wk"))),
            (lineio.decode_label, lineio.encode_label(PairwiseLabel("tw", "", "b", 3, 1))),
            (lineio.decode_label, lineio.encode_label(PairwiseLabel("tw", "a", "", 3, 1))),
        ]
        for decode, line in records:
            with pytest.raises(ValueError):
                decode(line)


class TestValidateEvent:
    def test_self_reaction_rejected(self, small_registry):
        assert validate_event(ev(actor="a", author="a"), small_registry) == "self-reaction"

    def test_valid_event_passes_unchanged(self, small_registry):
        event = ev(network="tw", action="reshare", ts=1700000000)
        assert validate_event(event, small_registry) is None

    def test_unregistered_action_rejected(self, small_registry):
        # "reshare" is registered for tw but not fb in the fixture registry
        assert validate_event(ev(network="fb", action="reshare"), small_registry) == "unknown-action"

    def test_unknown_network_rejected(self, small_registry):
        assert validate_event(ev(network="myspace"), small_registry) == "unknown-network"

    def test_bad_timestamp_rejected(self, small_registry):
        assert validate_event(ev(ts=0), small_registry) == "bad-timestamp"

    def test_dynamicless_network_rejects_events(self, small_registry):
        assert validate_event(ev(network="wk"), small_registry) is not None


ids = st.text(alphabet="abcdefgh", min_size=1, max_size=4)
event_strategy = st.builds(
    ev,
    actor=ids,
    author=ids,
    network=st.sampled_from(["tw", "fb", "wk", "nope"]),
    content=st.sampled_from(["message", "photo", "gif"]),
    action=st.sampled_from(["comment", "like", "reshare", "superpoke"]),
    ts=st.integers(min_value=-10, max_value=REF),
)


REGISTRY = __import__("conftest").make_small_registry()


@given(event_strategy)
def test_validated_events_satisfy_invariants(event):
    if validate_event(event, REGISTRY) is not None:
        return
    spec = REGISTRY.networks[event.network]
    assert event.actor != event.author
    assert event.timestamp > 0
    assert event.content_type in spec.content_types
    assert event.action in spec.actions


@given(event_strategy)
def test_validation_is_deterministic(event):
    assert validate_event(event, REGISTRY) == validate_event(event, REGISTRY)


class TestTimeWindow:
    def test_unregistered_span_rejected(self):
        with pytest.raises(ValueError):
            TimeWindow(REF, 45)

    def test_half_open_bounds(self):
        window = TimeWindow(REF, 90)
        assert not window.contains(REF - 90 * 86400)  # exactly 90 days old
        assert window.contains(REF - 90 * 86400 + 1)
        assert window.contains(REF - 1)
        assert not window.contains(REF)


def profile_with(value: float) -> ProfileSnapshot:
    return ProfileSnapshot(
        user="a", network="tw", as_of=date(2023, 11, 1), numeric_attrs=(("followers", value),)
    )


class TestInvariantConstructors:
    """The records are plain tuples; their invariants are the decoders' checks."""

    def test_self_loop_edge_rejected(self):
        with pytest.raises(ValueError):
            lineio.decode_edge(lineio.encode_edge(GraphEdge(src="a", dst="a", network="tw")))

    def test_label_same_user_rejected(self):
        with pytest.raises(ValueError):
            lineio.decode_label(lineio.encode_label(PairwiseLabel("tw", "a", "a", 3, 1)))

    def test_negative_votes_rejected(self):
        for votes in ((-1, 3), (3, -1)):
            with pytest.raises(ValueError):
                lineio.decode_label(lineio.encode_label(PairwiseLabel("tw", "a", "b", *votes)))

    def test_negative_numeric_attr_rejected(self):
        with pytest.raises(ValueError):
            lineio.decode_profile(lineio.encode_profile(profile_with(-1.0)))

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "NaN", "infinity"])
    def test_non_finite_numeric_attr_rejected(self, text):
        line = "user=a\tnetwork=tw\tas_of=2023-11-01\tn:followers=" + text
        with pytest.raises(ValueError):
            lineio.decode_profile(line)

    def test_zero_and_large_numeric_attrs_accepted(self):
        for value in (0.0, -0.0, 1e308):
            assert lineio.decode_profile(lineio.encode_profile(profile_with(value))) == profile_with(value)


text_values = st.text(min_size=1, max_size=12).filter(lambda s: s.strip())


class TestLineCodecs:
    @given(
        actor=text_values,
        author=text_values,
        content=text_values,
        action=text_values,
        ts=st.integers(min_value=1, max_value=2**40),
    )
    def test_event_round_trip(self, actor, author, content, action, ts):
        event = InteractionEvent(actor, author, "tw", content, action, ts)
        assert lineio.decode_event(lineio.encode_event(*event)) == event

    @given(
        name=text_values,
        value=st.floats(min_value=0, allow_nan=False, allow_infinity=False),
        cat=text_values,
    )
    def test_profile_round_trip(self, name, value, cat):
        profile = ProfileSnapshot(
            user="u",
            network="fb",
            as_of=date(2023, 10, 5),
            numeric_attrs=((name, value),),
            categorical_attrs=(("badge", cat),),
        )
        assert lineio.decode_profile(lineio.encode_profile(profile)) == profile

    def test_edge_and_label_round_trip(self):
        edge = GraphEdge("a b", "c\td", "wk")
        assert lineio.decode_edge(lineio.encode_edge(edge)) == edge
        label = PairwiseLabel("tw", "x", "y", 5, 3)
        assert lineio.decode_label(lineio.encode_label(label)) == label

    def test_malformed_line_raises(self):
        with pytest.raises((ValueError, KeyError)):
            lineio.decode_event("actor=a\tgarbage")


# Any non-empty string a UTF-8 file can hold, with the characters the codec
# treats specially drawn often: the percent escape, the key separator, tab
# and newline, and the punctuation that quote() leaves alone.
SPECIAL = "%=~-_.\t\n"
unicode_values = st.text(
    alphabet=st.one_of(st.sampled_from(SPECIAL), st.characters(codec="utf-8")),
    min_size=1,
    max_size=12,
)
ascii_values = st.text(alphabet="AZaz09" + SPECIAL, min_size=1, max_size=12)
codec_values = st.one_of(unicode_values, ascii_values)


class TestCodecFastPaths:
    @given(st.one_of(st.text(), ascii_values))
    def test_enc_matches_quote(self, value):
        assert lineio.encode_value(value) == quote(value, safe="")

    @given(
        actor=codec_values,
        author=codec_values,
        network=codec_values,
        content=codec_values,
        action=codec_values,
        ts=st.integers(),
    )
    def test_event_round_trip(self, actor, author, network, content, action, ts):
        event = InteractionEvent(actor, author, network, content, action, ts)
        assert lineio.decode_event(lineio.encode_event(*event)) == event

    @given(src=codec_values, dst=codec_values, network=codec_values)
    def test_edge_round_trip(self, src, dst, network):
        assume(src != dst)
        edge = GraphEdge(src, dst, network)
        assert lineio.decode_edge(lineio.encode_edge(edge)) == edge

    @given(
        network=codec_values,
        a=codec_values,
        b=codec_values,
        votes=st.tuples(st.integers(min_value=0), st.integers(min_value=0)),
    )
    def test_label_round_trip(self, network, a, b, votes):
        assume(a != b)
        label = PairwiseLabel(network, a, b, *votes)
        assert lineio.decode_label(lineio.encode_label(label)) == label

    @given(
        user=codec_values,
        network=codec_values,
        as_of=st.dates(),
        numeric=st.lists(
            st.tuples(codec_values, st.floats(min_value=0, allow_nan=False, allow_infinity=False))
        ),
        categorical=st.lists(st.tuples(codec_values, codec_values)),
    )
    def test_profile_round_trip(self, user, network, as_of, numeric, categorical):
        profile = ProfileSnapshot(
            user=user,
            network=network,
            as_of=as_of,
            numeric_attrs=tuple(numeric),
            categorical_attrs=tuple(categorical),
        )
        assert lineio.decode_profile(lineio.encode_profile(profile)) == profile


LINE = lineio.encode_event("a", "b", "tw", "message", "like", 5) + "\n"
EDGE = lineio.encode_edge(GraphEdge("a", "b", "wk")) + "\n"
LABEL = lineio.encode_label(PairwiseLabel("tw", "a", "b", 3, 1)) + "\n"
DAMAGED = {
    "reordered": (lineio.read_event_columns, LINE + LINE.replace("actor=a\tauthor=b", "author=b\tactor=a")),
    "missing-field": (lineio.read_event_columns, LINE + LINE.replace("network=tw\t", "")),
    "extra-field": (lineio.read_event_columns, LINE + LINE.replace("\n", "\textra=1\n")),
    # a line short of its last field, then one that starts with it
    "shifted": (lineio.read_event_columns, LINE.replace("\ttimestamp=5", "") + "timestamp=5\t" + LINE),
    "empty-id": (lineio.read_event_columns, LINE + LINE.replace("author=b", "author=")),
    "timestamp-not-an-integer": (lineio.read_event_columns, LINE + LINE.replace("=5", "=5.0")),
    "self-loop-edge": (lineio.read_edges, EDGE + EDGE.replace("to=b", "to=a")),
    "edge-missing-field": (lineio.read_edges, EDGE + EDGE.replace("\tnetwork=wk", "")),
    "no-final-newline": (lineio.read_event_columns, LINE + LINE.rstrip("\n")),
    "label-reordered": (lineio.read_labels, LABEL + LABEL.replace("user_a=a\tuser_b=b", "user_b=b\tuser_a=a")),
    "label-extra-field": (lineio.read_labels, LABEL + LABEL.replace("\n", "\textra=1\n")),
    "label-blank-line": (lineio.read_labels, LABEL + "\n" + LABEL),
    "label-negative-votes": (lineio.read_labels, LABEL + LABEL.replace("votes_b=1", "votes_b=-1")),
    "label-votes-not-an-integer": (lineio.read_labels, LABEL + LABEL.replace("votes_a=3", "votes_a=3.0")),
    "label-one-user": (lineio.read_labels, LABEL + LABEL.replace("user_b=b", "user_b=a")),
    "label-empty-id": (lineio.read_labels, LABEL + LABEL.replace("user_a=a", "user_a=")),
}


class TestColumnReaders:
    """The strict readers of the event, edge and label files that ingest writes."""

    @given(
        events=st.lists(
            st.builds(InteractionEvent, *[codec_values] * 5, st.integers()), max_size=20
        ),
        edges=st.lists(
            st.builds(GraphEdge, codec_values, codec_values, codec_values), max_size=20
        ).map(lambda edges: [e for e in edges if e.src != e.dst]),
        labels=st.lists(
            st.builds(PairwiseLabel, *[codec_values] * 3, st.integers(0), st.integers(0)), max_size=20
        ).map(lambda labels: [l for l in labels if l.user_a != l.user_b]),
    )
    # without the explain phase, which takes minutes to report a broken reader
    @settings(phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink))
    def test_round_trip(self, tmp_path_factory, events, edges, labels):
        directory = tmp_path_factory.mktemp("columns")
        lineio.write_lines(directory / "events.txt", (lineio.encode_event(*e) for e in events))
        lineio.write_lines(directory / "edges.txt", map(lineio.encode_edge, edges))
        assert lineio.read_event_columns(directory / "events.txt") == columns_of(events)
        assert lineio.read_edges(directory / "edges.txt") == edge_columns_of(edges)
        lineio.write_lines(directory / "labels.txt", map(lineio.encode_label, labels))
        assert lineio.read_labels(directory / "labels.txt") == tuple(labels)

    def test_a_file_of_several_chunks(self, tmp_path):
        # plain ids first, so that chunks with and without escapes both occur
        rng = random.Random(7)

        def special():
            return "".join(rng.choices("ab%=~\t\n\u00e9\u6f22", k=rng.randint(1, 8)))

        plain = [ev(f"u{i}", f"v{i}", ts=rng.randrange(-2**40, 2**40)) for i in range(1500)]
        escaped = [ev(special(), special(), special(), special(), "like", i) for i in range(1500)]
        path = tmp_path / "events.txt"
        lineio.write_lines(path, (lineio.encode_event(*e) for e in plain + escaped))
        assert path.stat().st_size > 3 * lineio.CHUNK_HINT
        assert lineio.read_event_columns(path) == columns_of(plain + escaped)

    @given(
        record=st.sampled_from([  # (type, its keys, its encoder, its fields, its two ids or none)
            (InteractionEvent, InteractionEvent._fields, lambda e: lineio.encode_event(*e),
             [codec_values] * 5 + [st.integers()], ()),
            (GraphEdge, lineio.EDGE_KEYS, lineio.encode_edge, [codec_values] * 3, (0, 1)),
            (PairwiseLabel, PairwiseLabel._fields, lineio.encode_label,
             [codec_values] * 3 + [st.integers(0)] * 2, (1, 2)),
        ]),
        data=st.data(),
    )
    # without the explain phase, which takes minutes to report a broken reader
    @settings(phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink))
    def test_each_column_codes_its_distinct_values(self, tmp_path_factory, record, data):
        # the two ids of an edge or a label share one value list; every other
        # string column has its own
        kind, keys, encode, fields, ids = record
        records = data.draw(st.lists(st.builds(kind, *fields), max_size=20).map(
            lambda records: [r for r in records if not ids or r[ids[0]] != r[ids[1]]]
        ))
        path = tmp_path_factory.mktemp("coded") / "records.txt"
        lineio.write_lines(path, map(encode, records))
        columns = lineio._read_records(path, keys)
        for i, column in enumerate(columns):
            if isinstance(column, list):  # an int column: each line's int
                assert column == [r[i] for r in records]
                continue
            assert column.codes.dtype == np.intc
            assert [column.values[code] for code in column.codes] == [r[i] for r in records]
            values = {r[j] for r in records for j in (ids if i in ids else [i])}
            assert sorted(column.values) == sorted(values)  # each value once
        lists = {i: column.values for i, column in enumerate(columns) if not isinstance(column, list)}
        if ids:
            assert lists[ids[0]] is lists[ids[1]]
        assert len({id(values) for values in lists.values()}) == len(lists) - bool(ids)

    def test_each_distinct_token_is_checked_once(self, tmp_path, monkeypatch):
        # few distinct ids, some escaped, repeated over a file of several chunks
        ids = [f"u{i}" for i in range(40)] + [f"\u00e9 %{i}=" for i in range(10)]
        rng = random.Random(11)
        events = [ev(rng.choice(ids), rng.choice(ids), ts=i) for i in range(3000)]
        lineio.write_lines(tmp_path / "events.txt", (lineio.encode_event(*e) for e in events))
        assert (tmp_path / "events.txt").stat().st_size > 3 * lineio.CHUNK_HINT
        calls = Counter()  # (key, value) -> the calls of the key's check on the value
        for key in ("actor", "author", "timestamp"):
            check = lineio._CHECKS[key]
            monkeypatch.setitem(
                lineio._CHECKS, key, lambda value, key=key, check=check: calls.update([(key, value)]) or check(value)
            )
        assert lineio.read_event_columns(tmp_path / "events.txt") == columns_of(events)
        ids = {(key, getattr(e, key)) for e in events for key in ("actor", "author")}
        strings = {call: n for call, n in calls.items() if call[0] in ("actor", "author")}
        assert strings == dict.fromkeys(ids, 1)
        # an int column is checked on every line
        assert sum(n for (key, _), n in calls.items() if key == "timestamp") == len(events)

    @pytest.mark.parametrize("damage", list(DAMAGED))
    def test_a_damaged_file_raises(self, tmp_path, damage):
        reader, text = DAMAGED[damage]
        path = tmp_path / "damaged.txt"
        path.write_text(text)
        with pytest.raises(ValueError):
            reader(path)

    def test_the_undamaged_lines_read(self, tmp_path):
        (tmp_path / "events.txt").write_text(LINE * 2)
        (tmp_path / "edges.txt").write_text(EDGE * 2)
        assert lineio.read_event_columns(tmp_path / "events.txt") == columns_of([ev("a", "b", ts=5)] * 2)
        assert lineio.read_edges(tmp_path / "edges.txt") == (["a"] * 2, ["b"] * 2, ["wk"] * 2)
        (tmp_path / "labels.txt").write_text(LABEL * 2)
        assert lineio.read_labels(tmp_path / "labels.txt") == (PairwiseLabel("tw", "a", "b", 3, 1),) * 2


# one line per data-model violation, and the input file it would sit in
VIOLATIONS = {
    "empty-actor": ("events.txt", LINE.replace("actor=a", "actor=")),
    "empty-author": ("events.txt", LINE.replace("author=b", "author=")),
    "timestamp-not-an-integer": ("events.txt", LINE.replace("timestamp=5", "timestamp=5.0")),
    "empty-edge-source": ("edges.txt", EDGE.replace("from=a", "from=")),
    "empty-edge-target": ("edges.txt", EDGE.replace("to=b", "to=")),
    "self-loop-edge": ("edges.txt", EDGE.replace("to=b", "to=a")),
    "label-one-user": ("labels.txt", LABEL.replace("user_b=b", "user_b=a")),
    "label-empty-user": ("labels.txt", LABEL.replace("user_a=a", "user_a=")),
    "negative-vote": ("labels.txt", LABEL.replace("votes_b=1", "votes_b=-1")),
    "vote-not-an-integer": ("labels.txt", LABEL.replace("votes_a=3", "votes_a=3.0")),
}
READERS = {
    "events.txt": (lineio.decode_event, lineio.read_event_columns),
    "edges.txt": (lineio.decode_edge, lineio.read_edges),
    "labels.txt": (lineio.decode_label, lineio.read_labels),
}


@pytest.mark.parametrize("violation", list(VIOLATIONS))
def test_both_readers_refuse_the_same_records(tmp_path, small_registry, violation):
    """What the per-line decoder refuses on raw input, the strict reader
    refuses in ingest's own files, and ingest counts it as malformed."""
    name, line = VIOLATIONS[violation]
    decode, read = READERS[name]
    with pytest.raises(ValueError):
        decode(line)
    for other in INPUT_FILES:
        (tmp_path / other).write_text(line if other == name else "")
    with pytest.raises(ValueError, match=re.escape(str(tmp_path / name))):
        read(tmp_path / name)
    _, report = load_batch(tmp_path, REF, small_registry)
    assert report.malformed_lines == 1
