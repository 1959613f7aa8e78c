import math
import re
from collections import Counter, defaultdict
from datetime import date
from urllib.parse import unquote

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from influence_engine import lineio
from influence_engine.events import (
    MAX_WINDOW_DAYS,
    SECONDS_PER_DAY,
    GraphEdge,
    InteractionEvent,
    PairwiseLabel,
    ProfileSnapshot,
    TimeWindow,
    validate_event,
)
from influence_engine.ingest import (
    INPUT_FILES,
    IngestBatch,
    LoadReport,
    load_batch,
)
from influence_engine.pipeline import RunConfig, stage_ingest
from influence_engine.registry import FeatureRegistry, NetworkSpec

REF = 1_700_000_000


def ev(author, actor="z", ts=REF - 1000, network="tw", content="message", action="like"):
    return InteractionEvent(actor, author, network, content, action, ts)


def write_inputs(tmp_path, events=(), profiles=(), edges=(), labels=(), raw_event_lines=None):
    """Write the four input files to ``tmp_path`` and return it."""
    event_lines = [lineio.encode_event(*e) for e in events]
    if raw_event_lines:
        event_lines += list(raw_event_lines)
    lineio.write_lines(tmp_path / "events.txt", event_lines)
    lineio.write_lines(tmp_path / "profiles.txt", [lineio.encode_profile(p) for p in profiles])
    lineio.write_lines(tmp_path / "edges.txt", [lineio.encode_edge(e) for e in edges])
    lineio.write_lines(tmp_path / "labels.txt", [lineio.encode_label(l) for l in labels])
    return tmp_path


class TestLoadBatch:
    def test_event_91_days_old_excluded(self, tmp_path, small_registry):
        old = ev("a", ts=REF - 91 * SECONDS_PER_DAY)
        fresh = ev("a", ts=REF - 1)
        inputs = write_inputs(tmp_path, events=[old, fresh])
        batch, report = load_batch(inputs, REF, small_registry)
        assert len(batch.events) == 1
        assert report.expired_events == 1

    def test_boundary_is_half_open(self, tmp_path, small_registry):
        exactly = ev("a", ts=REF - 90 * SECONDS_PER_DAY)
        just_inside = ev("a", ts=REF - 90 * SECONDS_PER_DAY + 1)
        inputs = write_inputs(tmp_path, events=[exactly, just_inside])
        batch, report = load_batch(inputs, REF, small_registry)
        assert len(batch.events) == 1
        assert report.expired_events == 1

    def test_byte_identical_lines_deduplicate(self, tmp_path, small_registry):
        event = ev("a")
        inputs = write_inputs(tmp_path, events=[event, event])
        batch, report = load_batch(inputs, REF, small_registry)
        assert len(batch.events) == 1
        assert report.duplicate_events == 1

    def test_four_spellings_of_one_event_deduplicate(self, tmp_path, small_registry):
        # an event's canonical line is its dedup key, whatever spelling it came in
        line = lineio.encode_event(*ev("b", actor="a"))
        first, second, rest = line.split("\t", 2)
        spellings = [
            line,
            line.replace("actor=a", "actor=%61"),
            f"{second}\t{first}\t{rest}",
            line + "\r",  # write_lines adds the "\n"
        ]
        raw = write_inputs(tmp_path / "raw", raw_event_lines=spellings)
        small_registry.save(raw / "registry.json")
        _, report = load_batch(raw, REF, small_registry)
        assert (report.accepted_events, report.duplicate_events) == (1, 3)
        cfg = RunConfig(
            input_dir=raw, registry_path=raw / "registry.json", tree_path=raw / "tree.json", reference_time=REF
        )
        stage_ingest(cfg, tmp_path / "out")
        assert (tmp_path / "out" / "ingest" / "events.txt").read_text() == line + "\n"

    def test_grouping_by_author(self, tmp_path, small_registry):
        events = [
            ev("x", actor="p", ts=REF - 10),
            ev("x", actor="q", ts=REF - 20),
            ev("x", actor="r", ts=REF - 30),
            ev("y", actor="p", ts=REF - 10),
            ev("y", actor="q", ts=REF - 20),
        ]
        inputs = write_inputs(tmp_path, events=events)
        batch, _ = load_batch(inputs, REF, small_registry)
        assert Counter(lineio.decode_event(line).author for line in batch.events) == {"x": 3, "y": 2}

    def test_malformed_lines_skipped_and_counted(self, tmp_path, small_registry):
        inputs = write_inputs(
            tmp_path, events=[ev("a")], raw_event_lines=["not a record", "actor=only"]
        )
        batch, report = load_batch(inputs, REF, small_registry)
        assert len(batch.events) == 1
        assert report.malformed_lines == 2

    def test_bytes_not_utf8_make_one_malformed_line_in_every_file(self, tmp_path, small_registry):
        inputs = write_inputs(
            tmp_path,
            events=[ev("a"), ev("b")],
            profiles=[ProfileSnapshot("a", "tw", date(2023, 11, 1))] * 2,
            edges=[GraphEdge("a", "b", "wk")] * 2,
            labels=[PairwiseLabel("tw", "a", "b", 5, 1)] * 2,
        )
        for path in (inputs / name for name in INPUT_FILES):
            first, second = path.read_bytes().splitlines(keepends=True)
            path.write_bytes(first + second.replace(b"=", b"=\xff\xfe", 1))
        batch, report = load_batch(inputs, REF, small_registry)
        assert report.malformed_lines == 4
        assert len(batch.events) == 1
        assert (report.profiles, report.edges, report.labels) == (1, 1, 1)

    def test_rejections_counted_by_reason(self, tmp_path, small_registry):
        events = [ev("a", actor="a"), ev("b", network="nope")]
        inputs = write_inputs(tmp_path, events=events)
        _, report = load_batch(inputs, REF, small_registry)
        assert report.rejected["self-reaction"] == 1
        assert report.rejected["unknown-network"] == 1
        assert "rejected.self-reaction=1" in report.summary_line()

    def test_latest_profile_at_or_before_reference_wins(self, tmp_path, small_registry):
        def prof(day, followers):
            return ProfileSnapshot(
                user="a",
                network="tw",
                as_of=date(2023, 11, day),
                numeric_attrs=(("followers", followers),),
            )

        # reference date for REF is 2023-11-14 UTC
        inputs = write_inputs(tmp_path, profiles=[prof(1, 5.0), prof(10, 7.0), prof(20, 9.0)])
        batch, report = load_batch(inputs, REF, small_registry)
        assert batch.profiles == [lineio.encode_profile(prof(10, 7.0))]
        assert lineio.decode_profile(batch.profiles[0]).numeric_attrs == (("followers", 7.0),)
        assert report.stale_profiles == 1
        assert "profile-tie" not in report.rejected  # an older snapshot is no tie

    def test_same_day_copies_beyond_the_kept_one_count_as_profile_ties(self, tmp_path, small_registry):
        def prof(user, day, followers):
            return ProfileSnapshot(user, "tw", date(2023, 11, day), numeric_attrs=(("followers", followers),))

        # a: three on its kept day, one of them twice, and an older one;
        # b: a tie on an older day only; c: one snapshot
        profiles = [prof("a", 12, 1.0), prof("a", 13, 2.0), prof("a", 13, 4.0), prof("a", 13, 3.0),
                    prof("a", 13, 3.0), prof("b", 10, 1.0), prof("b", 10, 2.0), prof("b", 11, 0.5),
                    prof("c", 13, 1.0)]
        loaded = [
            load_batch(write_inputs(tmp_path / order, profiles=ordered), REF, small_registry)
            for order, ordered in (("given", profiles), ("reversed", profiles[::-1]))
        ]
        assert loaded[0] == loaded[1]
        batch, report = loaded[0]
        assert batch.profiles == sorted(map(lineio.encode_profile, (prof("a", 13, 4.0), prof("b", 11, 0.5),
                                                                    prof("c", 13, 1.0))))
        assert report.rejected == {"profile-tie": 3}
        assert "rejected.profile-tie=3" in report.summary_line()

    def test_the_batch_is_four_sorted_lists_of_canonical_lines(self, tmp_path, small_registry):
        raw = write_inputs(
            tmp_path / "raw",
            events=[ev("b"), ev("a"), ev("b")],
            profiles=[ProfileSnapshot("b", "fb", date(2023, 11, 1)), ProfileSnapshot("a", "tw", date(2023, 11, 1))],
            edges=[GraphEdge("c", "a", "wk"), GraphEdge("a", "b", "wk")],
            labels=[PairwiseLabel("tw", "b", "a", 1, 5), PairwiseLabel("fb", "a", "b", 5, 1)] * 2,
        )
        with (raw / "labels.txt").open("a") as fh:  # a label in another spelling
            fh.write("votes_b=1\tvotes_a=5\tuser_b=b\tuser_a=a\tnetwork=fb\n")
        batch, report = load_batch(raw, REF, small_registry)
        assert batch._fields == tuple(name.removesuffix(".txt") for name in INPUT_FILES)
        decoders = (lineio.decode_event, lineio.decode_profile, lineio.decode_edge, lineio.decode_label)
        encoders = (lambda e: lineio.encode_event(*e), lineio.encode_profile, lineio.encode_edge, lineio.encode_label)
        for lines, decode, encode in zip(batch, decoders, encoders):
            assert type(lines) is list and lines == sorted(lines)
            assert [encode(decode(line)) for line in lines] == lines
        assert list(map(len, batch)) == [2, 2, 2, 5]  # labels are not deduplicated
        small_registry.save(raw / "registry.json")
        cfg = RunConfig(
            input_dir=raw, registry_path=raw / "registry.json", tree_path=raw / "tree.json", reference_time=REF
        )
        stage_ingest(cfg, tmp_path / "out")
        for name, lines in zip(INPUT_FILES, batch):
            assert (tmp_path / "out" / "ingest" / name).read_text() == "".join(line + "\n" for line in lines)

    def test_duplicate_edges_keep_the_first_copy(self, tmp_path, small_registry):
        a_b, c_b = GraphEdge("a", "b", "wk"), GraphEdge("c", "b", "wk")
        inputs = write_inputs(tmp_path, edges=[a_b, c_b, a_b])
        batch, report = load_batch(inputs, REF, small_registry)
        assert batch.edges == [lineio.encode_edge(a_b), lineio.encode_edge(c_b)]
        assert report.edges == 2
        assert report.rejected == {"duplicate-edge": 1}
        assert "rejected.duplicate-edge=1" in report.summary_line()
        _, clean = load_batch(write_inputs(tmp_path / "clean", edges=[a_b, c_b]), REF, small_registry)
        assert "duplicate-edge" not in clean.summary_line()

    def test_bare_carriage_return_does_not_end_a_line(self, tmp_path, small_registry):
        inputs = write_inputs(tmp_path)
        line = lineio.encode_event(*ev("a"))
        (inputs / "events.txt").write_bytes(b"junk\r" + line.encode() + b"\n")
        batch, report = load_batch(inputs, REF, small_registry)
        assert (report.malformed_lines, report.accepted_events) == (1, 0)
        assert batch.events == []

    def test_missing_file_is_fatal(self, tmp_path, small_registry):
        with pytest.raises(FileNotFoundError):
            load_batch(tmp_path, REF, small_registry)

    def test_idempotent(self, tmp_path, small_registry):
        inputs = write_inputs(tmp_path, events=[ev("a"), ev("b")])
        first, _ = load_batch(inputs, REF, small_registry)
        second, _ = load_batch(inputs, REF, small_registry)
        assert first == second


# One events.txt line as written to disk: a valid record with an LF or CRLF
# ending, a record cut short, junk without line breaks, or a valid record with
# bytes that are not UTF-8 spliced in (surrogateescape writes them raw).
valid_lines = st.builds(
    ev,
    author=st.sampled_from("abc"),
    actor=st.sampled_from("abz"),
    ts=st.integers(min_value=REF - 100 * SECONDS_PER_DAY, max_value=REF + 10),
    network=st.sampled_from(["tw", "fb", "wk", "nope"]),
    action=st.sampled_from(["like", "reshare", "superpoke"]),
).map(lambda event: lineio.encode_event(*event))
junk_chars = st.characters(codec="utf-8", exclude_characters="\r\n")
raw_lines = st.one_of(
    st.tuples(valid_lines, st.sampled_from(["\n", "\r\n"])).map("".join),
    st.tuples(valid_lines, st.floats(min_value=0.05, max_value=0.95)).map(
        lambda lf: lf[0][: int(len(lf[0]) * lf[1])] + "\n"
    ),
    st.text(alphabet=junk_chars, min_size=1).map(lambda junk: junk + "\n"),
    st.tuples(
        valid_lines, st.integers(min_value=0, max_value=60), st.sampled_from(["\udcff\udcfe", "\udcc3"])
    ).map(lambda lib: lib[0][: lib[1]] + lib[2] + lib[0][lib[1]:] + "\n"),
)


@given(lines=st.lists(raw_lines, max_size=20))
def test_dirty_event_lines_are_counted_never_raised(tmp_path_factory, lines):
    from conftest import make_small_registry

    registry = make_small_registry()
    dirty = write_inputs(tmp_path_factory.mktemp("dirty"))
    with open(dirty / "events.txt", "w", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        fh.write("".join(lines))
    batch, report = load_batch(dirty, REF, registry)
    accounted = (
        report.accepted_events
        + report.expired_events
        + report.duplicate_events
        + report.malformed_lines
        + sum(report.rejected.values())
    )
    assert accounted == len(lines)

    # a CRLF ending reads exactly like an LF one
    clean = write_inputs(tmp_path_factory.mktemp("clean"))
    with open(clean / "events.txt", "w", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        fh.write("".join(line.replace("\r\n", "\n") for line in lines))
    assert load_batch(clean, REF, registry) == (batch, report)


# Raw profiles, edges and labels over a few users and networks, so that stale,
# superseded, unknown-network, self-loop, negative and non-finite records occur.
users = st.sampled_from(["a", "b", "c", ""])
networks = st.sampled_from(["tw", "fb", "wk", "nope"])
profile_lines = st.builds(
    ProfileSnapshot,
    user=users,
    network=networks,
    as_of=st.dates(min_value=date(2023, 11, 12), max_value=date(2023, 11, 16)),
    numeric_attrs=st.lists(
        st.tuples(st.sampled_from(["followers", "fans", "other"]), st.floats()), max_size=2
    ).map(tuple),
    categorical_attrs=st.lists(
        st.tuples(st.just("education_level"), st.sampled_from(["BS", "PhD", "wizard"])), max_size=2
    ).map(tuple),
).map(lineio.encode_profile)
edge_lines = st.builds(GraphEdge, src=users, dst=users, network=networks).map(lineio.encode_edge)
label_lines = st.builds(
    PairwiseLabel,
    network=networks,
    user_a=users,
    user_b=users,
    votes_a=st.integers(min_value=-1, max_value=5),
    votes_b=st.integers(min_value=-1, max_value=5),
).map(lineio.encode_label)


def with_repeats(lines: list[str]) -> list[str]:
    return lines + lines[: len(lines) // 2]


@given(
    events=st.lists(raw_lines, max_size=20).map(with_repeats),
    profiles=st.lists(profile_lines, max_size=12).map(with_repeats),
    edges=st.lists(edge_lines, max_size=12).map(with_repeats),
    labels=st.lists(label_lines, max_size=8).map(with_repeats),
)
def test_strict_reader_of_ingest_output_equals_load_batch(
    tmp_path_factory, events, profiles, edges, labels
):
    from conftest import columns_of, edge_columns_of, make_small_registry

    registry = make_small_registry()
    raw = tmp_path_factory.mktemp("raw")
    with open(raw / "events.txt", "w", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        fh.write("".join(events))
    lineio.write_lines(raw / "profiles.txt", profiles)
    lineio.write_lines(raw / "edges.txt", edges)
    lineio.write_lines(raw / "labels.txt", labels)
    registry.save(raw / "registry.json")
    cfg = RunConfig(
        input_dir=raw, registry_path=raw / "registry.json", tree_path=raw / "tree.json", reference_time=REF
    )
    out = tmp_path_factory.mktemp("out")
    stage_ingest(cfg, out)

    ingested = out / "ingest"
    checked, report = load_batch(ingested, REF, registry)
    # the strict readers that features and train use read what load_batch accepts
    events = list(map(lineio.decode_event, checked.events))
    assert lineio.read_event_columns(ingested / "events.txt") == columns_of(events)
    profiles = map(lineio.decode_profile, lineio.read_lines(ingested / "profiles.txt"))
    assert list(profiles) == list(map(lineio.decode_profile, checked.profiles))
    edges = list(map(lineio.decode_edge, checked.edges))
    assert lineio.read_edges(ingested / "edges.txt") == edge_columns_of(edges)
    assert lineio.read_labels(ingested / "labels.txt") == tuple(map(lineio.decode_label, checked.labels))
    # what ingest wrote passes every check that the strict readers skip
    assert report.accepted_events == len(checked.events)
    assert report.expired_events == report.duplicate_events == report.malformed_lines == 0
    assert report.stale_profiles == 0 and not report.rejected


@given(
    events=st.lists(valid_lines, max_size=8),
    profiles=st.lists(profile_lines, max_size=6),
    edges=st.lists(edge_lines, max_size=6),
    labels=st.lists(label_lines, max_size=6),
)
def test_crlf_files_read_like_lf_files(tmp_path_factory, events, profiles, edges, labels):
    from conftest import make_small_registry

    loaded = []
    for ending in ("\n", "\r\n"):
        directory = tmp_path_factory.mktemp("endings")
        for name, lines in zip(INPUT_FILES, (events, profiles, edges, labels)):
            (directory / name).write_bytes("".join(line + ending for line in lines).encode())
        loaded.append(load_batch(directory, REF, make_small_registry()))
    assert loaded[0] == loaded[1]


# -- the canonical-line fast path against the per-line reference --------------

def reference_records(path, decode, report):
    """Every non-empty line decoded, as ingest did before its fast path."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                line.encode("utf-8")
                yield decode(line)
            except (ValueError, KeyError):
                report.malformed_lines += 1


def reference_load_batch(directory, registry):
    """``load_batch`` of a directory without profiles or labels, one line at a
    time: every event is decoded, validated and encoded again."""
    report = LoadReport()
    window = TimeWindow(REF, MAX_WINDOW_DAYS)
    lines, kept = set(), 0
    for event in reference_records(directory / "events.txt", lineio.decode_event, report):
        reason = validate_event(event, registry)
        if reason is not None:
            report.rejected[reason] += 1
        elif not window.contains(event.timestamp):
            report.expired_events += 1
        else:
            kept += 1
            lines.add(lineio.encode_event(*event))
    report.accepted_events, report.duplicate_events = len(lines), kept - len(lines)
    return IngestBatch(sorted(lines), [], [], []), report


def respell(line, how):
    """``line`` as it is, in another spelling of the same record, with a
    timestamp that ``int()`` reads alike, or with bytes that are not UTF-8."""
    tokens = line.split("\t")
    key, value = tokens[0].split("=", 1)
    timestamp = tokens[-1].removeprefix("timestamp=")
    if how == "escape" and value[:1].isalnum():  # a plain character, %-escaped
        tokens[0] = f"{key}=%{ord(value[0]):02X}{value[1:]}"
    elif how == "swap":
        tokens[0], tokens[1] = tokens[1], tokens[0]
    elif how == "unescape":  # an "=" inside a value, as in "actor=a=b"
        tokens = [token.replace("%3D", "=") for token in tokens]
    elif how == "not utf-8":
        tokens[0] = f"{key}=\udcff\udcfe{value}"
    elif tokens[-1].startswith("timestamp=") and how in TIMESTAMPS:
        tokens[-1] = "timestamp=" + TIMESTAMPS[how](timestamp)
    return "\t".join(tokens)


# spellings of a timestamp that int() reads as the same number
TIMESTAMPS = {
    "leading zero": lambda t: "0" + t,
    "plus": lambda t: "+" + t,
    "underscore": lambda t: t[:-1] + "_" + t[-1] if t[-2:].isdigit() else t,
    "space": lambda t: " " + t,
    "arabic-indic": lambda t: t.translate({ord("0") + i: 0x660 + i for i in range(10)}),
}
DAY = SECONDS_PER_DAY
ids = st.sampled_from(["a", "b", "c", "a-b.c~_9", "a=b", "", "\u00e9"])
spellings = st.sampled_from(["as is"] * 5 + ["escape", "swap", "unescape", "not utf-8", *TIMESTAMPS])
in_window = st.integers(min_value=REF - 90 * DAY + 1, max_value=REF - 1)
edges_of_window = st.sampled_from([REF - 90 * DAY, REF - 90 * DAY + 1, REF - 1, REF])
# half of them valid but for the window, so that each spelling often meets an
# event the fast path may take
canonical_events = st.one_of(
    st.builds(
        InteractionEvent,
        st.sampled_from(["a", "b", "a=b"]),
        st.sampled_from(["b", "c"]),
        st.just("tw"),
        st.sampled_from(["message", "photo"]),
        st.sampled_from(["like", "comment", "reshare"]),
        st.one_of(in_window, in_window, edges_of_window),
    ),
    st.builds(
        InteractionEvent,
        actor=ids,
        author=ids,
        network=st.sampled_from(["tw", "fb", "wk", "nope", ""]),
        content_type=st.sampled_from(["message", "photo", "video"]),
        action=st.sampled_from(["like", "comment", "reshare", "superpoke"]),
        timestamp=st.one_of(in_window, edges_of_window, st.sampled_from([0, -5])),
    ),
).map(lambda event: lineio.encode_event(*event))


def raw_file(canonical_lines):
    """The text of a raw file: respelt lines with LF or CRLF endings, some
    repeated, and maybe no newline after the last."""
    ending = st.sampled_from(["\n"] * 3 + ["\r\n"])
    line = st.builds(lambda line, how, end: respell(line, how) + end, canonical_lines, spellings, ending)
    text = st.lists(line, max_size=16).map(with_repeats).map("".join)
    return st.builds(lambda text, cut: text.removesuffix("\n") if cut else text, text, st.booleans())


def tricky_lines():
    """Lines that look canonical but are not, or whose event the fast path
    must leave to the decoder: each spelling, each reject reason, both ends of
    the window, a timestamp too long for int(), a CRLF ending and a last line
    without its newline."""
    line = lineio.encode_event(*ev("b", actor="a"))
    lines = [line] + [respell(line, how) for how in ("escape", "swap", "not utf-8", *TIMESTAMPS)]
    lines.append(lineio.encode_event(*ev("b", actor="a=b")).replace("%3D", "="))
    for event in (ev("a", actor="a"), ev("b", network=""), ev("b", action="superpoke"), ev("b", ts=0)):
        lines.append(lineio.encode_event(*event))
    for timestamp in (REF - 90 * DAY, REF - 90 * DAY + 1, REF - 1, REF):
        lines.append(lineio.encode_event(*ev("c", ts=timestamp)))
    lines.append(line.replace(f"={REF - 1000}", "=" + "1" * 5000))  # too long for int()
    return "\n".join(lines) + "\r\n" + line


@given(events=raw_file(canonical_events))
@example(events=tricky_lines())
# without the explain phase, like the other slow Hypothesis tests
@settings(max_examples=200, phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink))
def test_fast_path_equals_the_per_line_reference(tmp_path_factory, events):
    from conftest import make_small_registry

    registry = make_small_registry()
    raw = write_inputs(tmp_path_factory.mktemp("mixed"))
    (raw / "events.txt").write_text(events, encoding="utf-8", errors="surrogateescape", newline="")
    assert load_batch(raw, REF, registry) == reference_load_batch(raw, registry)


# -- the edge fast path against the per-line reference ------------------------

def reference_edge_batch(directory, registry):
    """``load_batch`` of a directory that holds only edges, one line at a time:
    every edge is decoded, checked against the registry and encoded again."""
    report = LoadReport()
    lines = []
    for line in lineio.read_lines(directory / "edges.txt", errors="surrogateescape"):
        try:
            line.encode("utf-8")
            edge = lineio.decode_edge(line)
        except (ValueError, KeyError):
            report.malformed_lines += 1
            continue
        if edge.network in registry.networks:
            lines.append(lineio.encode_edge(edge))
        else:
            report.rejected["unknown-network"] += 1
    unique = sorted(set(lines))
    if len(lines) > len(unique):
        report.rejected["duplicate-edge"] = len(lines) - len(unique)
    report.edges = len(unique)
    return IngestBatch([], [], unique, []), report


# mostly canonical edges between distinct ids on a registered network, and
# self-loops, empty ids, ids that need escaping and unknown or empty networks
canonical_edges = st.one_of(
    st.builds(GraphEdge, st.sampled_from("abc"), st.sampled_from("bcd"), st.sampled_from(["tw", "wk"])),
    st.builds(GraphEdge, ids, ids, st.sampled_from(["tw", "fb", "wk", "nope", ""])),
).map(lineio.encode_edge)
edge_spellings = st.sampled_from(["as is"] * 5 + ["escape", "swap", "unescape", "not utf-8"])


def raw_edge_file(canonical_lines):
    """The text of a raw edge file: respelt lines ending in LF, CRLF or a bare
    CR (which joins a line to the next), some repeated, maybe no last newline."""
    ending = st.sampled_from(["\n"] * 4 + ["\r\n", "\r"])
    line = st.builds(lambda line, how, end: respell(line, how) + end, canonical_lines, edge_spellings, ending)
    text = st.lists(line, max_size=16).map(with_repeats).map("".join)
    return st.builds(lambda text, cut: text.removesuffix("\n") if cut else text, text, st.booleans())


def tricky_edge_lines():
    """Canonical-looking edge lines that the fast path must leave to the decoder,
    next to ones it may take, each kind at least once."""
    line = lineio.encode_edge(GraphEdge("a", "b", "wk"))
    lines = [line] + [respell(line, how) for how in ("escape", "swap", "unescape", "not utf-8")]
    for edge in (("a", "a", "wk"), ("", "b", "wk"), ("a", "", "wk"), ("a", "b", "nope"), ("a", "b", "")):
        lines.append(lineio.encode_edge(GraphEdge(*edge)))
    lines.append(line.replace("to=b", "to=b\rc"))  # a bare CR inside a value
    return "\n".join(lines + lines[:3]) + "\r\n" + line


@given(edges=raw_edge_file(canonical_edges))
@example(edges=tricky_edge_lines())
@settings(max_examples=200, phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink))
def test_edge_fast_path_equals_the_per_line_reference(tmp_path_factory, edges):
    from conftest import make_small_registry

    registry = make_small_registry()
    raw = write_inputs(tmp_path_factory.mktemp("edges"))
    (raw / "edges.txt").write_text(edges, encoding="utf-8", errors="surrogateescape", newline="")
    assert load_batch(raw, REF, registry) == reference_edge_batch(raw, registry)


# -- the profile and label fast paths against the per-line reference -----------

def reference_records_of(path, decode, report):
    """Each record of a raw file, decoded line by line as ingest did before its
    fast paths; a line that is not UTF-8 or does not decode counts as malformed."""
    for line in lineio.read_lines(path, errors="surrogateescape"):
        try:
            line.encode("utf-8")
            yield decode(line)
        except (ValueError, KeyError):
            report.malformed_lines += 1


def reference_profile_batch(directory, registry):
    """``load_batch`` of a directory that holds only profiles, one line at a
    time: every profile is decoded, checked against the registry and the
    reference date, and encoded again; of two kept snapshots taken on one day
    the larger line wins, and the kept day's others count as ties. One whose
    repeated attribute adds up to inf counts as an overflow."""
    report = LoadReport()
    ref_date = TimeWindow(REF, MAX_WINDOW_DAYS).reference_date()
    latest, ties = {}, Counter()
    for profile in reference_records_of(directory / "profiles.txt", lineio.decode_profile, report):
        if profile.network not in registry.networks or profile.as_of > ref_date:
            report.stale_profiles += 1
            continue
        sums = defaultdict(float)
        for name, value in profile.numeric_attrs:
            sums[name] += value
        if math.inf in sums.values():
            report.rejected["profile-overflow"] += 1
            continue
        key = (profile.user, profile.network)
        snapshot = (profile.as_of, lineio.encode_profile(profile))
        kept = latest.setdefault(key, snapshot)
        if snapshot[0] > kept[0]:
            ties.pop(key, None)
        elif snapshot[0] == kept[0] and kept is not snapshot:
            ties[key] += 1
        latest[key] = max(kept, snapshot)
    if ties:
        report.rejected["profile-tie"] = sum(ties.values())
    report.profiles = len(latest)
    return IngestBatch([], sorted(line for _, line in latest.values()), [], []), report


def reference_label_batch(directory, registry):
    """``load_batch`` of a directory that holds only labels, one line at a
    time: every label is decoded, checked against the registry and encoded again."""
    report = LoadReport()
    lines = []
    for label in reference_records_of(directory / "labels.txt", lineio.decode_label, report):
        if label.network in registry.networks:
            lines.append(lineio.encode_label(label))
        else:
            report.rejected["unknown-network"] += 1
    report.labels = len(lines)
    return IngestBatch([], [], [], sorted(lines)), report


def respell_token(line, key, spell):
    """``line`` with the value of its first ``key`` token passed through ``spell``."""
    tokens = line.split("\t")
    for i, token in enumerate(tokens):
        name, sep, value = token.partition("=")
        if sep and (name == key or key == "n:" and name.startswith("n:")):
            tokens[i] = f"{name}={spell(value)}"
            break
    return "\t".join(tokens)


# spellings of a profile line: each one a valid record spelt another way, or
# one the decoder refuses, so that the fast path must leave it to the decoder
PROFILE_SPELLINGS = {
    "escape": lambda line: respell_token(line, "user", lambda v: f"%{ord(v[0]):02X}{v[1:]}" if v[:1].isalnum() else v),
    "swap": lambda line: "\t".join([*reversed(line.split("\t")[:2]), *line.split("\t")[2:]]),
    "c: first": lambda line: "\t".join(
        sorted(line.split("\t"), key=lambda token: {"n": 2, "c": 1}.get(token[:1], 0) if token[1:2] == ":" else 0)
    ),
    "not utf-8": lambda line: respell_token(line, "user", lambda v: "\udcff\udcfe" + v),
    **{
        f"value {value}": lambda line, value=value: respell_token(line, "n:", lambda v: value)
        for value in ("1e2", "0.10", "-0.0", "1e999", "nan", "1.0e+16", "9007199254740993.0")
    },
    **{
        f"date {day}": lambda line, day=day: respell_token(line, "as_of", lambda v: day)
        for day in ("2023-02-30", "20231114", "2023-11-15", "0000-01-01")
    },
}
numbers = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 0.1, 100.0, 1e16, 5e-324, 1e300]),
    st.floats(min_value=0, allow_infinity=False),
    st.floats(),
)
# half of them lines the fast path may take, so that each spelling often meets
# one; the others with ids and keys that need escaping, unknown networks,
# dates after the reference day and values the decoder refuses
profiles_to_respell = st.one_of(
    st.builds(
        ProfileSnapshot,
        user=st.sampled_from("abcdef"),
        network=st.sampled_from(["tw", "fb"]),
        as_of=st.dates(min_value=date(2023, 11, 10), max_value=date(2023, 11, 14)),
        numeric_attrs=st.lists(st.tuples(st.sampled_from(["followers", "fans"]), numbers), min_size=1, max_size=3)
        .map(tuple),
        categorical_attrs=st.lists(st.tuples(st.just("education_level"), st.sampled_from(["BS", "PhD"])), max_size=1)
        .map(tuple),
    ),
    st.builds(
        ProfileSnapshot,
        user=st.sampled_from(["a", "b", "a-b.c~_9", "a=b", "", "é"]),
        network=st.sampled_from(["tw", "fb", "wk", "nope", ""]),
        as_of=st.dates(min_value=date(2023, 11, 12), max_value=date(2023, 11, 16)),
        numeric_attrs=st.lists(  # a repeated attribute is one record: its values add up
            st.tuples(st.sampled_from(["followers", "fans", "a b", ""]), numbers), max_size=3
        ).map(tuple),
        categorical_attrs=st.lists(
            st.tuples(st.sampled_from(["education_level", "x:y"]), st.sampled_from(["BS", "PhD", "", "a b"])),
            max_size=2,
        ).map(tuple),
    ),
).map(lineio.encode_profile)


def raw_text(canonical_lines, spellings):
    """The text of a raw file: lines as they are or respelt, ending in LF, CRLF
    or a bare CR (which joins a line to the next), some repeated, maybe no
    newline after the last."""
    how = st.sampled_from(["as is"] * len(spellings) + sorted(spellings))
    ending = st.sampled_from(["\n"] * 4 + ["\r\n", "\r"])
    line = st.builds(lambda line, how, end: spellings.get(how, str)(line) + end, canonical_lines, how, ending)
    text = st.lists(line, max_size=16).map(with_repeats).map("".join)
    return st.builds(lambda text, cut: text.removesuffix("\n") if cut else text, text, st.booleans())


def tricky_profile_lines():
    """Each spelling of a profile line, each for its own user, so that each is
    kept or refused on its own, next to lines the fast path may take: a
    tie and a superseded snapshot."""
    profile = ProfileSnapshot("a", "tw", date(2023, 11, 13), (("followers", 10.0), ("fans", 2.5)), (("x", "BS"),))
    line = lineio.encode_profile(profile)
    lines = [line] + [
        spell(lineio.encode_profile(profile._replace(user=f"u{i}"))) for i, spell in enumerate(PROFILE_SPELLINGS.values())
    ]
    lines += [
        lineio.encode_profile(profile._replace(numeric_attrs=(("followers", 11.0),))),  # a tie
        lineio.encode_profile(profile._replace(as_of=date(2023, 11, 12))),  # superseded
        lineio.encode_profile(profile._replace(network="nope")),
        line.replace("as_of=", "as_of=\r"),
    ]
    big = lineio.encode_profile(profile._replace(user="big", numeric_attrs=(("followers", 1e308),) * 2))
    lines += [big, respell_token(big.replace("user=big", "user=big2"), "n:", lambda v: "1e308")]  # overflows
    return "\n".join(lines) + "\r\n" + line


@given(profiles=raw_text(profiles_to_respell, PROFILE_SPELLINGS))
@example(profiles=tricky_profile_lines())
@settings(max_examples=200, phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink))
def test_profile_fast_path_equals_the_per_line_reference(tmp_path_factory, profiles):
    from conftest import make_small_registry

    registry = make_small_registry()
    raw = write_inputs(tmp_path_factory.mktemp("profiles"))
    (raw / "profiles.txt").write_text(profiles, encoding="utf-8", errors="surrogateescape", newline="")
    assert load_batch(raw, REF, registry) == reference_profile_batch(raw, registry)



def written_profiles():
    """Profile lines as a file that ingest wrote holds them, next to ones it
    never writes: a numeric value out of range, a -0.0 and a damaged line."""
    line = lineio.encode_profile(ProfileSnapshot("a", "tw", date(2023, 11, 13), (("followers", 10.0),), (("x", "BS"),)))
    return [line, line.replace("=10.0", "=-0.0"), line.replace("=10.0", "=1e+999"), line.partition("\t")[2]]


@given(lines=st.lists(st.builds(
    lambda line, how: PROFILE_SPELLINGS.get(how, str)(line), profiles_to_respell,
    st.sampled_from(["as is"] * 4 + sorted(set(PROFILE_SPELLINGS) - {"not utf-8"})),
), min_size=1, max_size=8))
@example(lines=written_profiles()[:2])
@example(lines=written_profiles())
def test_read_profiles_reads_what_decode_profile_reads(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("written") / "profiles.txt"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    try:
        expected = list(map(lineio.decode_profile, lines))
    except ValueError:
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            list(lineio.read_profiles(path))
    else:  # as reprs, so that -0.0 is not 0.0
        assert list(map(repr, lineio.read_profiles(path))) == list(map(repr, expected))

LABEL_SPELLINGS = {
    "escape": lambda line: respell_token(line, "user_a", lambda v: f"%{ord(v[0]):02X}{v[1:]}" if v[:1].isalnum() else v),
    "swap": lambda line: "\t".join([*reversed(line.split("\t")[:2]), *line.split("\t")[2:]]),
    "not utf-8": lambda line: respell_token(line, "user_b", lambda v: v + "\udcc3"),
    "self": lambda line: respell_token(line, "user_b", lambda v: line.split("\t")[1].partition("=")[2]),
    **{
        f"votes {votes}": lambda line, votes=votes: respell_token(line, "votes_a", lambda v: votes)
        for votes in ("+5", "05", "-1", " 5", "1" * 20)
    },
}
labels_to_respell = st.one_of(
    st.builds(
        PairwiseLabel,
        network=st.sampled_from(["tw", "fb"]),
        user_a=st.sampled_from("ab"),
        user_b=st.sampled_from("cd"),
        votes_a=st.integers(min_value=0, max_value=5),
        votes_b=st.integers(min_value=0, max_value=5),
    ),
    st.builds(
        PairwiseLabel,
        network=st.sampled_from(["tw", "fb", "wk", "nope", ""]),
        user_a=st.sampled_from(["a", "b", "a=b", "", "é"]),
        user_b=st.sampled_from(["b", "c", "a"]),
        votes_a=st.integers(min_value=0, max_value=10**19),
        votes_b=st.integers(min_value=0, max_value=5),
    ),
).map(lineio.encode_label)


def tricky_label_lines():
    """Each spelling of one label line next to the line itself."""
    line = lineio.encode_label(PairwiseLabel("tw", "a", "b", 5, 1))
    lines = [line] + [spell(line) for spell in LABEL_SPELLINGS.values()]
    lines += [lineio.encode_label(PairwiseLabel(*label)) for label in (("nope", "a", "b", 1, 0), ("tw", "a", "a", 1, 0))]
    return "\n".join(lines + lines[:2]) + "\r\n" + line.replace("user_b=", "user_b=\r")


@given(labels=raw_text(labels_to_respell, LABEL_SPELLINGS))
@example(labels=tricky_label_lines())
@settings(max_examples=200, phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink))
def test_label_fast_path_equals_the_per_line_reference(tmp_path_factory, labels):
    from conftest import make_small_registry

    registry = make_small_registry()
    raw = write_inputs(tmp_path_factory.mktemp("labels"))
    (raw / "labels.txt").write_text(labels, encoding="utf-8", errors="surrogateescape", newline="")
    assert load_batch(raw, REF, registry) == reference_label_batch(raw, registry)


# -- the fast paths under registries whose names need escaping ------------------

# names that need escaping or are regex metacharacters, next to plain ones that
# a pattern of them could match by mistake
NAMES = ["a b", "x%y", ".", "a+", "(", "x", "ax", "aa", ""]
names = st.sampled_from(NAMES)
drawn_registries = st.dictionaries(
    names, st.tuples(*[st.lists(names, unique=True, max_size=3).map(tuple)] * 2), max_size=3
).map(lambda specs: FeatureRegistry(networks={  # a network may have no content types or no actions
    name: NetworkSpec(name, content_types, actions) for name, (content_types, actions) in specs.items()
}))
odd_ids = st.sampled_from(["a", "b", "a b"])
BREAKS = frozenset("\t\n\r")


def literal(line):
    """``line`` with each value unescaped, but for one that would then hold a
    tab or a line break: the same record, spelt as a raw file may spell it."""
    tokens = []
    for token in line.split("\t"):
        key, _, value = token.partition("=")
        plain = unquote(value)
        tokens.append(f"{key}={value if BREAKS & set(plain) else plain}")
    return "\t".join(tokens)


def odd_text(lines):
    """Lines, each kept, unescaped or respelt."""
    spelt = st.sampled_from(["as is", "as is", "literal", "escape", "swap"])
    line = st.builds(lambda line, how: literal(line) if how == "literal" else respell(line, how), lines, spelt)
    return st.lists(line, max_size=12).map(with_repeats).map(lambda lines: "".join(l + "\n" for l in lines))


@st.composite
def registry_and_files(draw):
    """A drawn registry, and the raw event, edge and label files of records
    mostly on its names."""
    registry = draw(drawn_registries)
    combos = [(n, c, a) for n, spec in registry.networks.items() for c in spec.content_types for a in spec.actions]
    # a registered (network, content type, action), maybe with one name swapped for any other
    combo = st.builds(
        lambda combo, at, name: tuple(name if i == at else value for i, value in enumerate(combo)),
        st.sampled_from(combos) if combos else st.tuples(names, names, names), st.sampled_from([None, 0, 1, 2]), names,
    )
    network = st.sampled_from(sorted(registry.networks)) | names if registry.networks else names
    events = st.builds(lambda a, b, combo, t: lineio.encode_event(a, b, *combo, t), odd_ids, odd_ids, combo, in_window)
    edges = st.builds(GraphEdge, odd_ids, odd_ids, network).map(lineio.encode_edge)
    labels = st.builds(PairwiseLabel, network, odd_ids, odd_ids, st.just(1), st.just(0)).map(lineio.encode_label)
    files = {"events.txt": events, "edges.txt": edges, "labels.txt": labels}
    return registry, {name: draw(odd_text(lines)) for name, lines in files.items()}


def odd_lines():
    """Lines that a pattern without ``re.escape``, without the own-encoding
    filter, or without the lookahead on the second id would take."""
    event = lineio.encode_event("a", "b", ".", ".", "x", REF - 1000)
    return {
        "events.txt": "".join(line + "\n" for line in (
            event,  # taken
            event.replace("content_type=.", "content_type=x"),  # "." is not any character
            event.replace("content_type=.", "content_type=a b"),  # an unescaped "a b"
            event.replace("author=b", "author=a"),  # a self-reaction
        )),
        "edges.txt": "".join(
            f"from=a\tto={b}\tnetwork={network}\n" for network, b in ((".", "b"), ("x", "b"), ("a b", "b"), (".", "a"))
        ),
        "labels.txt": "".join(
            f"network={network}\tuser_a=a\tuser_b={b}\tvotes_a=1\tvotes_b=0\n" for network, b in
            ((".", "b"), ("x", "b"), ("a b", "b"), (".", "a"))
        ),
    }


@given(case=registry_and_files())
@example(case=(FeatureRegistry(networks={
    ".": NetworkSpec(".", (".",), ("x",)), "a b": NetworkSpec("a b", ("a b",), ("x",)),
}), odd_lines()))
@settings(max_examples=200, phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink))
def test_fast_paths_equal_the_per_line_reference_under_any_registry(tmp_path_factory, case):
    registry, files = case
    for name, reference in (
        ("events.txt", reference_load_batch),
        ("edges.txt", reference_edge_batch),
        ("labels.txt", reference_label_batch),
    ):
        raw = write_inputs(tmp_path_factory.mktemp("odd"))
        (raw / name).write_text(files[name], encoding="utf-8")
        assert load_batch(raw, REF, registry) == reference(raw, registry)
