"""Line-oriented text codecs for every record type.

One record per line, tab-separated ``key=value`` tokens, values
percent-encoded so that arbitrary strings round-trip bit-exactly.
Numeric attribute values use ``repr(float)`` which round-trips exactly.
A decoder raises ``ValueError`` or ``KeyError`` on a line that breaks the
data model: an empty user id, a self-loop edge, a label comparing one user
with itself, a negative vote count, or a numeric attribute that is negative
or not finite.

The column readers of ingest's own files, unlike the per-line decoders, also
require each line to hold exactly its encoder's fields in its order.
"""

from __future__ import annotations

import math
import re
from datetime import date
from itertools import repeat
from pathlib import Path
from typing import Iterable, Iterator
from urllib.parse import quote, unquote

from .events import EventColumns, GraphEdge, InteractionEvent, PairwiseLabel, ProfileSnapshot


# the characters quote(..., safe="") leaves as they are
_UNQUOTED = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.-~")
_PLAIN = "[" + re.escape("".join(sorted(_UNQUOTED))) + "]"  # one character of them


def encode_value(value: str) -> str:
    return value if _UNQUOTED.issuperset(value) else quote(value, safe="")


def decode_value(value: str) -> str:
    return unquote(value) if "%" in value else value


def _fields(line: str) -> dict[str, str]:
    out = {}
    for token in line.rstrip("\n").split("\t"):
        key, sep, value = token.partition("=")
        if not sep or not key:
            raise ValueError(f"malformed token {token!r}")
        out[key] = value
    if "%" in line:  # only an escaped value needs decoding
        out = {key: decode_value(value) for key, value in out.items()}
    return out


# -- events ----------------------------------------------------------------

def encode_event(
    actor: str, author: str, network: str, content_type: str, action: str, timestamp: int
) -> str:
    """One event's canonical line: ``encode_event(*event)``."""
    return "\t".join(
        [
            f"actor={encode_value(actor)}",
            f"author={encode_value(author)}",
            f"network={encode_value(network)}",
            f"content_type={encode_value(content_type)}",
            f"action={encode_value(action)}",
            f"timestamp={timestamp}",
        ]
    )


# A line this matches in full is ``encode_event(*decode_event(line))``: no value
# needs escaping, and the timestamp is a positive int's repr, short enough for
# int() (a longer one is left to the decoder). Groups: the event's fields.
CANONICAL_EVENT = re.compile(
    f"actor=({_PLAIN}+)\tauthor=({_PLAIN}+)\tnetwork=({_PLAIN}*)"
    f"\tcontent_type=({_PLAIN}*)\taction=({_PLAIN}*)\ttimestamp=([1-9][0-9]{{0,18}})"
)


def decode_event(line: str) -> InteractionEvent:
    f = _fields(line)
    if not (f["actor"] and f["author"]):
        raise ValueError("empty user id")
    return InteractionEvent(
        actor=f["actor"],
        author=f["author"],
        network=f["network"],
        content_type=f["content_type"],
        action=f["action"],
        timestamp=int(f["timestamp"]),
    )


# -- profiles --------------------------------------------------------------

def encode_profile(profile: ProfileSnapshot) -> str:
    tokens = [
        f"user={encode_value(profile.user)}",
        f"network={encode_value(profile.network)}",
        f"as_of={profile.as_of.isoformat()}",
    ]
    tokens += [f"n:{encode_value(k)}={float(v)!r}" for k, v in profile.numeric_attrs]
    tokens += [f"c:{encode_value(k)}={encode_value(v)}" for k, v in profile.categorical_attrs]
    return "\t".join(tokens)


def decode_profile(line: str) -> ProfileSnapshot:
    numeric = []
    categorical = []
    plain = {}
    for token in line.rstrip("\n").split("\t"):
        key, sep, value = token.partition("=")
        if not sep or not key:
            raise ValueError(f"malformed token {token!r}")
        if key.startswith("n:"):
            number = float(value)
            if not 0 <= number < math.inf:  # nan fails both comparisons
                raise ValueError(f"numeric attr {key!r} must be finite and >= 0")
            numeric.append((decode_value(key[2:]), number))
        elif key.startswith("c:"):
            categorical.append((decode_value(key[2:]), decode_value(value)))
        else:
            plain[key] = decode_value(value)
    if not plain["user"]:
        raise ValueError("empty user id")
    return ProfileSnapshot(
        user=plain["user"],
        network=plain["network"],
        as_of=date.fromisoformat(plain["as_of"]),
        numeric_attrs=tuple(numeric),
        categorical_attrs=tuple(categorical),
    )


# -- graph edges -----------------------------------------------------------

def encode_edge(edge: GraphEdge) -> str:
    return "\t".join(
        [
            f"from={encode_value(edge.src)}",
            f"to={encode_value(edge.dst)}",
            f"network={encode_value(edge.network)}",
        ]
    )


def decode_edge(line: str) -> GraphEdge:
    f = _fields(line)
    if not (f["from"] and f["to"]) or f["from"] == f["to"]:
        raise ValueError("an edge joins two distinct, non-empty user ids")
    return GraphEdge(src=f["from"], dst=f["to"], network=f["network"])


# -- pairwise labels -------------------------------------------------------

def encode_label(label: PairwiseLabel) -> str:
    return "\t".join(
        [
            f"network={encode_value(label.network)}",
            f"user_a={encode_value(label.user_a)}",
            f"user_b={encode_value(label.user_b)}",
            f"votes_a={label.votes_a}",
            f"votes_b={label.votes_b}",
        ]
    )


def decode_label(line: str) -> PairwiseLabel:
    f = _fields(line)
    label = PairwiseLabel(
        network=f["network"],
        user_a=f["user_a"],
        user_b=f["user_b"],
        votes_a=int(f["votes_a"]),
        votes_b=int(f["votes_b"]),
    )
    if not (label.user_a and label.user_b) or label.user_a == label.user_b:
        raise ValueError("a label compares two distinct, non-empty user ids")
    if label.votes_a < 0 or label.votes_b < 0:
        raise ValueError("vote counts must be >= 0")
    return label


# -- files -----------------------------------------------------------------

# bytes of whole lines that a column reader takes at a time: enough that each
# chunk costs a few passes in C, few enough that a chunk's strings stay small
CHUNK_HINT = 1 << 16


def _read_columns(path: str | Path, keys: tuple[str, ...]) -> list[list[str]]:
    """One list of decoded values per key, in file order, from a file whose
    every line holds exactly ``keys``, in that order, as ``key=value``
    tokens. Any other line, or a last line without its newline, raises
    ``ValueError``."""
    prefixes = [f"{key}=" for key in keys]
    width = len(keys)
    columns: list[list[str]] = [[] for _ in keys]
    with Path(path).open("r", encoding="utf-8") as fh:
        while lines := fh.readlines(CHUNK_HINT):
            # a line short of a field next to one with a field too many would
            # still line up by position, so each line's tabs are counted
            tabs = set(map(str.count, lines, repeat("\t")))
            if tabs != {width - 1} or not lines[-1].endswith("\n"):
                raise ValueError(f"{path}: a line does not hold {width} fields and a newline")
            text = "".join(lines)
            tokens = text.replace("\n", "\t").split("\t")
            tokens.pop()  # the empty string after the last newline
            escaped = "%" in text
            for start, (column, prefix) in enumerate(zip(columns, prefixes)):
                values = tokens[start::width]
                if not all(map(str.startswith, values, repeat(prefix))):
                    raise ValueError(f"{path}: a line does not hold {keys} in that order")
                values = map(str.removeprefix, values, repeat(prefix))
                column.extend(map(decode_value, values) if escaped else values)
    return columns


def read_event_columns(path: str | Path) -> EventColumns:
    """The events of a file of ``encode_event`` lines, read strictly; an
    empty user id or a timestamp that is not an integer raises."""
    actor, author, network, content_type, action, timestamp = _read_columns(
        path, InteractionEvent._fields  # the keys encode_event writes
    )
    if not (all(actor) and all(author)):
        raise ValueError(f"{path}: empty user id")
    return EventColumns(actor, author, network, content_type, action, list(map(int, timestamp)))


def read_edges(path: str | Path) -> tuple[GraphEdge, ...]:
    """The edges of a file of ``encode_edge`` lines, read strictly."""
    src, dst, network = _read_columns(path, ("from", "to", "network"))
    if not (all(src) and all(dst)) or any(map(str.__eq__, src, dst)):
        raise ValueError(f"{path}: an edge joins two distinct, non-empty user ids")
    return tuple(map(GraphEdge, src, dst, network))


def read_labels(path: str | Path) -> tuple[PairwiseLabel, ...]:
    """The labels of a file of ``encode_label`` lines, read strictly; a vote
    count that is not an integer >= 0, or a label that does not compare two
    distinct, non-empty user ids, raises."""
    network, user_a, user_b, votes_a, votes_b = _read_columns(path, PairwiseLabel._fields)
    votes_a, votes_b = list(map(int, votes_a)), list(map(int, votes_b))
    if not (all(user_a) and all(user_b)) or any(map(str.__eq__, user_a, user_b)):
        raise ValueError(f"{path}: a label compares two distinct, non-empty user ids")
    if min(votes_a + votes_b, default=0) < 0:
        raise ValueError(f"{path}: vote counts must be >= 0")
    return tuple(map(PairwiseLabel, network, user_a, user_b, votes_a, votes_b))


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def read_lines(path: str | Path, errors: str = "strict") -> Iterator[str]:
    """Non-empty lines of a UTF-8 file, without their line ending; with
    ``errors="surrogateescape"`` a byte that is not UTF-8 reads as a lone
    surrogate instead of raising. Lines end at LF only: a CR right before
    the LF is dropped, and a bare CR stays inside its line."""
    with Path(path).open("r", encoding="utf-8", errors=errors, newline="\n") as fh:
        for line in fh:
            line = line.rstrip("\r\n")
            if line:
                yield line
