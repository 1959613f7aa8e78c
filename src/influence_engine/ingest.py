"""Batch loading: validation, trailing-window filtering and dedup.

Every accepted record is kept as its canonical line, and those of events
and edges are their dedup keys. For each of the four inputs, a raw line that
already is one and passes its checks (``lineio.canonical_patterns``, compiled
from the registry once per batch, and ``canonical_profiles``) is kept as it
is; any other is decoded, checked and encoded again, so that each reason to
reject it counts.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import NamedTuple

from . import lineio
from .events import MAX_WINDOW_DAYS, TimeWindow, validate_event
from .registry import FeatureRegistry


# the files of an input directory, in the order the manifest hashes them
INPUT_FILES = ("events.txt", "profiles.txt", "edges.txt", "labels.txt")


@dataclass
class LoadReport:
    accepted_events: int = 0
    expired_events: int = 0
    duplicate_events: int = 0
    malformed_lines: int = 0
    rejected: Counter = field(default_factory=Counter)
    profiles: int = 0
    stale_profiles: int = 0
    edges: int = 0
    labels: int = 0

    def summary_line(self) -> str:
        parts = [
            f"accepted={self.accepted_events}",
            f"expired={self.expired_events}",
            f"duplicates={self.duplicate_events}",
            f"malformed={self.malformed_lines}",
            f"profiles={self.profiles}",
            f"stale_profiles={self.stale_profiles}",
            f"edges={self.edges}",
            f"labels={self.labels}",
        ]
        parts += [f"rejected.{reason}={n}" for reason, n in sorted(self.rejected.items())]
        return "load_report\t" + "\t".join(parts)


class IngestBatch(NamedTuple):
    """What ingest accepted for one scoring run: the sorted canonical lines of
    each input, in ``INPUT_FILES`` order."""

    events: list[str]  # valid, in the window, once
    profiles: list[str]  # the latest snapshot per (user, network)
    edges: list[str]  # on a registered network, once
    labels: list[str]  # on a registered network; repeated votes are merged later


def _decoded(line: str, decode, report: LoadReport):
    """The record a raw line holds, or None, counted as malformed, when the
    line is not UTF-8 or does not decode."""
    try:
        if not line.isascii():
            line.encode("utf-8")  # UnicodeEncodeError on an escaped byte
        return decode(line)
    except (ValueError, KeyError):
        report.malformed_lines += 1
        return None


def read_events(
    path: Path, window: TimeWindow, canonical, registry: FeatureRegistry, report: LoadReport
) -> list[str]:
    """The canonical line of each valid, in-window event, once, sorted; a raw
    line that ``canonical`` matches in full is kept as it is if in the window."""
    lines: dict[str, None] = {}  # a dict, not a set, so that the sort gets them in arrival order
    kept = 0
    for line in lineio.read_lines(path, errors="surrogateescape"):
        if (match := canonical.fullmatch(line)) and window.contains(int(match["t"])):
            kept += 1
            lines[line] = None
            continue
        if (event := _decoded(line, lineio.decode_event, report)) is None:
            continue
        reason = validate_event(event, registry)
        if reason is not None:
            report.rejected[reason] += 1
            continue
        if not window.contains(event.timestamp):
            report.expired_events += 1
            continue
        kept += 1
        lines[lineio.encode_event(*event)] = None
    report.accepted_events = len(lines)
    report.duplicate_events = kept - len(lines)
    return sorted(lines)


def _overflows(numeric_attrs) -> bool:
    """Whether a repeated attribute's values, each finite and >= 0, add up to
    inf in line order from 0.0, as the features stage adds them."""
    sums: Counter = Counter()
    for name, value in numeric_attrs:
        sums[name] += value
    return math.inf in sums.values()


def read_profiles(path: Path, ref_date: date, registry: FeatureRegistry, report: LoadReport) -> list[str]:
    """The canonical line of the latest snapshot per (user, network) taken by
    ``ref_date``, sorted; of two taken on one day, the larger line, whatever
    the line order. The kept day's other snapshots count as ``profile-tie``,
    and a snapshot whose repeated attribute sums to inf as ``profile-overflow``."""
    ref_day = ref_date.isoformat()  # ISO dates order as their days do
    latest: dict[tuple[str, str], tuple[str, str]] = {}  # -> (as_of, line)
    ties: Counter = Counter()  # (user, network) -> its kept day's snapshots beyond one
    for line, match in lineio.canonical_profiles(lineio.read_lines(path, errors="surrogateescape")):
        if match and match[2] in registry.networks and match[3] <= ref_day:
            key, snapshot = (match[1], match[2]), (match[3], line)
            # a value of 1e300 or more holds "e+3"; fewer than about 1e8 smaller ones never add up to inf
            numeric = lineio.decode_profile(line).numeric_attrs if "e+3" in match[4] else ()
        elif (profile := _decoded(line, lineio.decode_profile, report)) is None:
            continue
        elif profile.network not in registry.networks or profile.as_of > ref_date:
            report.stale_profiles += 1
            continue
        else:
            key = (profile.user, profile.network)
            snapshot = (profile.as_of.isoformat(), lineio.encode_profile(profile))
            numeric = profile.numeric_attrs
        if _overflows(numeric):
            report.rejected["profile-overflow"] += 1
            continue
        kept = latest.get(key, snapshot)
        if snapshot[0] > kept[0]:
            del ties[key]  # a Counter ignores a key it does not hold
        elif snapshot[0] == kept[0] and kept is not snapshot:
            ties[key] += 1
        latest[key] = max(kept, snapshot)
    if ties:
        report.rejected["profile-tie"] = sum(ties.values())
    report.profiles = len(latest)
    return sorted(line for _, line in latest.values())


def _read_registered(path: Path, canonical, decode, encode, registry: FeatureRegistry, report: LoadReport):
    """The canonical line of each record of a file on a registered network. A
    raw line that ``canonical`` matches in full is kept as it is; any other is
    decoded, checked and encoded again."""
    lines, others = [], []
    for line in lineio.read_lines(path, errors="surrogateescape"):
        (lines if canonical.fullmatch(line) else others).append(line)
    for line in others:
        if (record := _decoded(line, decode, report)) is None:
            continue
        if record.network not in registry.networks:
            report.rejected["unknown-network"] += 1
            continue
        lines.append(encode(record))
    return lines


def read_edges(path: Path, canonical, registry: FeatureRegistry, report: LoadReport) -> list[str]:
    """The canonical line of each edge on a registered network, once, sorted."""
    lines = _read_registered(path, canonical, lineio.decode_edge, lineio.encode_edge, registry, report)
    unique = sorted(dict.fromkeys(lines))  # deduplicated in arrival order, which the sort takes faster
    if len(lines) > len(unique):
        report.rejected["duplicate-edge"] = len(lines) - len(unique)
    report.edges = len(unique)
    return unique


def load_batch(
    directory: str | Path, reference_time: int, registry: FeatureRegistry
) -> tuple[IngestBatch, LoadReport]:
    """Read the ``INPUT_FILES`` of ``directory`` into one immutable batch.

    Unreadable files are fatal; malformed lines are counted and skipped so a
    single dirty record cannot kill a run.
    """
    events, profiles, edges, labels = (Path(directory) / name for name in INPUT_FILES)
    report = LoadReport()
    window = TimeWindow(reference_time, MAX_WINDOW_DAYS)
    event, edge, label = lineio.canonical_patterns(registry)
    batch = IngestBatch(
        events=read_events(events, window, event, registry, report),
        profiles=read_profiles(profiles, window.reference_date(), registry, report),
        edges=read_edges(edges, edge, registry, report),
        labels=sorted(_read_registered(labels, label, lineio.decode_label, lineio.encode_label, registry, report)),
    )
    report.labels = len(batch.labels)
    return batch, report
