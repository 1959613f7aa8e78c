"""Normalized data model shared by every stage of the scoring pipeline."""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, datetime, timezone
from typing import NamedTuple

SECONDS_PER_DAY = 86400

# Trailing-window lengths (days) available for dynamic feature aggregation.
WINDOW_DAYS = (3, 7, 14, 21, 30, 60, 90)

MAX_WINDOW_DAYS = WINDOW_DAYS[-1]


class InteractionEvent(NamedTuple):
    """One reaction: ``actor`` reacted to content authored by ``author``.

    Records are plain tuples of strings and numbers, so an event is its own
    dedup key. The ``lineio`` decoders reject a record the data model
    forbids, such as an empty id or a self-loop edge.
    """

    actor: str
    author: str
    network: str
    content_type: str
    action: str
    timestamp: int  # seconds since epoch, UTC


class CodedColumn:
    """A column as its distinct values, each once, and per line the index of
    its value; it iterates, and compares equal, as its values per line."""

    def __init__(self, values: list, codes):
        self.values, self.codes = values, codes  # codes: an array of one C int per line

    def __iter__(self):
        return map(self.values.__getitem__, self.codes.tolist())

    def __eq__(self, other):
        return list(self) == list(other) if isinstance(other, (CodedColumn, list)) else NotImplemented


class EventColumns(NamedTuple):
    """Events as six aligned columns, one per ``InteractionEvent`` field: the
    strings coded, the timestamps as ints."""

    actor: CodedColumn
    author: CodedColumn
    network: CodedColumn
    content_type: CodedColumn
    action: CodedColumn
    timestamp: list[int]


class ProfileSnapshot(NamedTuple):
    user: str
    network: str
    as_of: date
    numeric_attrs: tuple[tuple[str, float], ...] = ()
    categorical_attrs: tuple[tuple[str, str], ...] = ()


class GraphEdge(NamedTuple):
    src: str
    dst: str
    network: str


class PairwiseLabel(NamedTuple):
    """One human judgment comparing two users on one network."""

    network: str
    user_a: str
    user_b: str
    votes_a: int
    votes_b: int


@dataclass(frozen=True)
class TimeWindow:
    """Half-open trailing window [reference_time - span, reference_time)."""

    reference_time: int
    span_days: int

    def __post_init__(self):
        if self.span_days not in WINDOW_DAYS:
            raise ValueError(f"span_days must be one of {WINDOW_DAYS}")

    @property
    def start(self) -> int:
        return self.reference_time - self.span_days * SECONDS_PER_DAY

    def contains(self, timestamp: int) -> bool:
        # an event exactly span_days old is already outside the window
        return self.start < timestamp < self.reference_time

    def reference_date(self) -> date:
        return datetime.fromtimestamp(self.reference_time, tz=timezone.utc).date()


REJECT_UNKNOWN_NETWORK = "unknown-network"
REJECT_UNKNOWN_ACTION = "unknown-action"
REJECT_UNKNOWN_CONTENT = "unknown-content"
REJECT_SELF_REACTION = "self-reaction"
REJECT_BAD_TIMESTAMP = "bad-timestamp"


def validate_event(raw: InteractionEvent, registry) -> str | None:
    """Check one event against the dimension registry: the reason code of a
    rejected event, or ``None`` for a valid one.

    Rejections are values, never exceptions: a dirty log line must not be
    able to abort a batch.
    """
    if raw.actor == raw.author:
        return REJECT_SELF_REACTION
    if raw.timestamp <= 0:
        return REJECT_BAD_TIMESTAMP
    spec = registry.networks.get(raw.network)
    if spec is None:
        return REJECT_UNKNOWN_NETWORK
    if raw.content_type not in spec.content_types:
        return REJECT_UNKNOWN_CONTENT
    if raw.action not in spec.actions:
        return REJECT_UNKNOWN_ACTION
    return None
