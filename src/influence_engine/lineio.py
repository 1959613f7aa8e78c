"""Line-oriented text codecs for every record type.

One record per line, tab-separated ``key=value`` tokens, values
percent-encoded so that arbitrary strings round-trip bit-exactly.
Numeric attribute values use ``repr(float)`` which round-trips exactly.

Events, edges and labels each have one key list, in the order their encoder
writes (``InteractionEvent._fields``, ``EDGE_KEYS``, ``PairwiseLabel._fields``),
and one data-model check that both of their readers apply: the per-line
decoder, which takes the tokens of a raw line in any order, and the strict
column reader of ingest's own files, which requires exactly the keys in their
order and returns aligned columns (events, edges) or records (labels).
``CANONICAL_EVENT`` and ``CANONICAL_EDGE`` match a raw line that already is
its record's encoding, so that ingest can keep it without decoding it. The
data model forbids an empty user id, a self-loop edge, a label
comparing one user with itself, a timestamp or vote count that is not an
integer, a negative vote count, a numeric profile attribute that is
negative or not finite, and a key given twice (a profile attribute may be:
its values add up). A decoder raises ``ValueError`` or ``KeyError`` on a
line that breaks it, a strict reader ``ValueError`` naming the file.
"""

from __future__ import annotations

import hashlib
import math
import re
from datetime import date
from itertools import islice, repeat
from pathlib import Path
from typing import Iterable, Iterator
from urllib.parse import quote, unquote

from .events import EventColumns, GraphEdge, InteractionEvent, PairwiseLabel, ProfileSnapshot

EDGE_KEYS = ("from", "to", "network")  # a GraphEdge's src, dst and network

# the characters quote(..., safe="") leaves as they are
_UNQUOTED = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.-~")
_PLAIN = "[" + re.escape("".join(sorted(_UNQUOTED))) + "]"  # one character of them


def encode_value(value: str) -> str:
    return value if _UNQUOTED.issuperset(value) else quote(value, safe="")


def decode_value(value: str) -> str:
    return unquote(value) if "%" in value else value


def _tokens(line: str) -> Iterator[tuple[str, str]]:
    """The ``(key, value)`` pairs of a line, values still escaped."""
    for token in line.rstrip("\n").split("\t"):
        key, sep, value = token.partition("=")
        if not sep or not key:
            raise ValueError(f"malformed token {token!r}")
        yield key, value


# the str.format templates of the lines that hold each record's keys in order
_EVENT_LINE, _EDGE_LINE, _LABEL_LINE = (
    "\t".join(f"{key}={{}}" for key in keys)
    for keys in (InteractionEvent._fields, EDGE_KEYS, PairwiseLabel._fields)
)

# A line this matches in full is ``encode_event(*decode_event(line))``: no value
# needs escaping, and the timestamp is a positive int's repr, short enough for
# int() (a longer one is left to the decoder). Groups: the event's fields.
CANONICAL_EVENT = re.compile(
    _EVENT_LINE.format(*[f"({_PLAIN}+)"] * 2, *[f"({_PLAIN}*)"] * 3, "([1-9][0-9]{0,18})")
)
# Likewise ``encode_edge(decode_edge(line))`` when its ids differ. Groups: src, dst, network.
CANONICAL_EDGE = re.compile(_EDGE_LINE.format(*[f"({_PLAIN}+)"] * 2, f"({_PLAIN}*)"))


# -- the data model --------------------------------------------------------

# One check per record type, on the shape its strict reader returns: events
# and edges as columns (the features stage takes them so), a label as one
# record. It types the decoded values, or raises ValueError.

def _event_columns(actor, author, network, content_type, action, timestamp) -> EventColumns:
    if not (all(actor) and all(author)):
        raise ValueError("empty user id")
    return EventColumns(actor, author, network, content_type, action, list(map(int, timestamp)))


def _edge_columns(src: list[str], dst: list[str], network: list[str]) -> tuple[list[str], ...]:
    if not (all(src) and all(dst)) or any(map(str.__eq__, src, dst)):
        raise ValueError("an edge joins two distinct, non-empty user ids")
    return src, dst, network


def _label(network: str, user_a: str, user_b: str, votes_a: str, votes_b: str) -> PairwiseLabel:
    if not (user_a and user_b) or user_a == user_b:
        raise ValueError("a label compares two distinct, non-empty user ids")
    votes_a, votes_b = int(votes_a), int(votes_b)
    if votes_a < 0 or votes_b < 0:
        raise ValueError("vote counts must be >= 0")
    return PairwiseLabel(network, user_a, user_b, votes_a, votes_b)


def _values(line: str, keys: tuple[str, ...]) -> list[str]:
    """The decoded values of ``keys`` on a line that holds them in any order;
    a missing key raises ``KeyError``, a key given twice ``ValueError``."""
    tokens = list(_tokens(line))
    fields = dict(tokens)
    if len(fields) < len(tokens):
        raise ValueError("a key is given twice")
    if "%" in line:  # only an escaped value needs decoding
        fields = {key: decode_value(value) for key, value in fields.items()}
    return [fields[key] for key in keys]


# -- events ----------------------------------------------------------------

def encode_event(*fields) -> str:
    """One event's canonical line: ``encode_event(*event)``."""
    return _EVENT_LINE.format(*map(encode_value, fields[:5]), fields[5])


def decode_event(line: str) -> InteractionEvent:
    # the event check takes columns: here, columns of one value each
    columns = _event_columns(*([value] for value in _values(line, InteractionEvent._fields)))
    return InteractionEvent(*(column[0] for column in columns))


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
    numeric, categorical, plain = [], [], {}
    for key, value in _tokens(line):
        if key.startswith("n:"):
            number = float(value)
            if not 0 <= number < math.inf:  # nan fails both comparisons
                raise ValueError(f"numeric attr {key!r} must be finite and >= 0")
            numeric.append((decode_value(key[2:]), number))
        elif key.startswith("c:"):
            categorical.append((decode_value(key[2:]), decode_value(value)))
        elif key in plain:
            raise ValueError(f"key {key!r} is given twice")
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


# -- graph edges and pairwise labels ---------------------------------------

def encode_edge(edge: GraphEdge) -> str:
    return _EDGE_LINE.format(encode_value(edge.src), encode_value(edge.dst), encode_value(edge.network))


def decode_edge(line: str) -> GraphEdge:
    (src,), (dst,), (network,) = _edge_columns(*([value] for value in _values(line, EDGE_KEYS)))
    return GraphEdge(src, dst, network)


def encode_label(label: PairwiseLabel) -> str:
    return _LABEL_LINE.format(*map(encode_value, label[:3]), *label[3:])


def decode_label(line: str) -> PairwiseLabel:
    return _label(*_values(line, PairwiseLabel._fields))


# -- files -----------------------------------------------------------------

# bytes of whole lines that a column reader takes at a time: enough that each
# chunk costs a few passes in C, few enough that a chunk's strings stay small
CHUNK_HINT = 1 << 16
# the keys whose values a record check turns into ints, each its own object
_INT_KEYS = frozenset({"timestamp", "votes_a", "votes_b"})


def read_chunks(path: str | Path, width: int) -> Iterator[list[str]]:
    """The fields of each chunk of whole lines of a file, in file order, all the
    lines of a chunk in one flat list. A line not of ``width`` tab-separated
    fields, or a last line without its newline, raises ``ValueError``."""
    with Path(path).open("r", encoding="utf-8") as fh:
        while lines := fh.readlines(CHUNK_HINT):
            # a line short of a field next to one with a field too many would
            # still line up by position, so each line's tabs are counted
            if set(map(str.count, lines, repeat("\t"))) != {width - 1} or not lines[-1].endswith("\n"):
                for line in lines:
                    fields = line.rstrip("\n").count("\t") + 1
                    if fields != width:
                        many = "too many" if fields > width else "not enough"
                        raise ValueError(f"{many} values: a line holds {fields} fields, not {width}")
                raise ValueError("the last line has no newline")
            tokens = "".join(lines).replace("\n", "\t").split("\t")
            tokens.pop()  # the empty string after the last newline
            del lines  # so that a chunk's text is held once while its reader works
            yield tokens


def _read_checked(path: str | Path, keys: tuple[str, ...], check):
    """``check`` applied to one list of decoded values per key, from a file whose
    every line holds exactly ``keys`` in that order. Any other line, a last line
    without its newline, or a record ``check`` refuses raises ``ValueError``.

    Equal values of the read, in any of its columns except those that ``check``
    turns into ints, are one shared object, and each distinct token of such a
    column is checked and decoded once."""
    width = len(keys)
    columns: list[list[str]] = [[] for _ in keys]
    shared: dict[str, str] = {}  # a value -> its one object in this read
    # per column, each token seen -> its value; None for a column of ints
    memos = [None if key in _INT_KEYS else {} for key in keys]
    try:
        for tokens in read_chunks(path, width):
            for start, (column, key, memo) in enumerate(zip(columns, keys, memos)):
                values = tokens[start::width]
                prefix = f"{key}="
                new = values if memo is None else set(values).difference(memo)
                if not all(map(str.startswith, new, repeat(prefix))):
                    raise ValueError(f"a line does not hold {keys} in that order")
                if memo is None:  # an int's digits, which are never escaped
                    column.extend(map(str.removeprefix, values, repeat(prefix)))
                else:
                    for token in new:
                        value = decode_value(token.removeprefix(prefix))
                        memo[token] = shared.setdefault(value, value)
                    column.extend(map(memo.__getitem__, values))
        return check(*columns)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def read_event_columns(path: str | Path) -> EventColumns:
    """The events of a file of ``encode_event`` lines, read strictly."""
    return _read_checked(path, InteractionEvent._fields, _event_columns)


def read_edges(path: str | Path) -> tuple[list[str], ...]:
    """The ``src``, ``dst`` and ``network`` columns of a file of ``encode_edge``
    lines, read strictly."""
    return _read_checked(path, EDGE_KEYS, _edge_columns)


def read_labels(path: str | Path) -> tuple[PairwiseLabel, ...]:
    """The labels of a file of ``encode_label`` lines, read strictly."""
    return _read_checked(path, PairwiseLabel._fields, lambda *columns: tuple(map(_label, *columns)))


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = iter(lines)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        # one write per bounded chunk of lines, each ending in its newline
        while chunk := list(islice(lines, 4096)):
            chunk.append("")
            fh.write("\n".join(chunk))


def sha256(path: str | Path) -> str:
    """The hex sha256 of a file's bytes."""
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:  # by chunks: a whole output file would raise the run's peak RSS
        while chunk := fh.read(1 << 16):
            digest.update(chunk)
    return digest.hexdigest()


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
