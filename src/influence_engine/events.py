"""Normalized data model shared by every stage of the scoring pipeline."""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, datetime, timezone
from operator import itemgetter
from typing import Collection, NamedTuple

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


class EventColumns(NamedTuple):
    """Events as six aligned lists, one per ``InteractionEvent`` field."""

    actor: list[str]
    author: list[str]
    network: list[str]
    content_type: list[str]
    action: list[str]
    timestamp: list[int]

    @classmethod
    def of(cls, events: Collection[InteractionEvent]) -> "EventColumns":
        return cls._make(list(map(itemgetter(i), events)) for i in range(len(cls._fields)))


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


@dataclass(frozen=True)
class Rejection:
    """A rejected record with a machine-readable reason code."""

    reason: str
    detail: str = ""


REJECT_UNKNOWN_NETWORK = "unknown-network"
REJECT_UNKNOWN_ACTION = "unknown-action"
REJECT_UNKNOWN_CONTENT = "unknown-content"
REJECT_SELF_REACTION = "self-reaction"
REJECT_BAD_TIMESTAMP = "bad-timestamp"


def validate_event(raw: InteractionEvent, registry) -> InteractionEvent | Rejection:
    """Check one event against the dimension registry.

    Rejections are values, never exceptions: a dirty log line must not be
    able to abort a batch.
    """
    if raw.actor == raw.author:
        return Rejection(REJECT_SELF_REACTION, raw.actor)
    if raw.timestamp <= 0:
        return Rejection(REJECT_BAD_TIMESTAMP, str(raw.timestamp))
    spec = registry.networks.get(raw.network)
    if spec is None:
        return Rejection(REJECT_UNKNOWN_NETWORK, raw.network)
    if raw.content_type not in spec.content_types:
        return Rejection(REJECT_UNKNOWN_CONTENT, f"{raw.network}:{raw.content_type}")
    if raw.action not in spec.actions:
        return Rejection(REJECT_UNKNOWN_ACTION, f"{raw.network}:{raw.action}")
    return raw
