"""Line-oriented text codecs for every record type, and the strict column reader.

One record per line, tab-separated ``key=value`` tokens, values
percent-encoded so that arbitrary strings round-trip bit-exactly.
Numeric attribute values use ``repr(float)`` which round-trips exactly.

Events, edges and labels each have one key list, in the order their encoder
writes (``InteractionEvent._fields``, ``EDGE_KEYS``, ``PairwiseLabel._fields``),
and one data model, stated once as a check per key and the rule that the two
ids of an edge or a label differ. Both of their readers apply it: the per-line
decoder, which takes the tokens of a raw line in any order, and the strict
reader of ingest's own files, which requires exactly the keys in their order.
``read_columns`` is the one strict reader, of those files and of the feature
dumps: a chunk of whole lines at a time, it returns each string column coded
(``CodedColumn``), each distinct token checked and decoded once, and each int
column as one int per line; the two ids of an edge or a label share one value
list, so the check that they differ compares codes. ``read_written_lines``
reads the engine's other files and refuses a blank line, which ``read_lines``,
the reader of raw input, skips. The patterns that ``canonical_patterns``
compiles from a registry, and ``canonical_profiles`` (over
``CANONICAL_PROFILE``), take a raw line that already is its record's
encoding, so that ingest can keep it without decoding it, and
``read_profiles`` reads a profile off its match. ``parse_once`` hands the
value that a writer (``hold``) or a parse of a file holds to the next
readers of the same bytes. The data model forbids an empty user id, a
self-loop edge, a label comparing one user with itself, a timestamp or vote
count that is not an integer, a negative vote count, a numeric profile
attribute that is negative or not finite, and a key given twice (a profile
attribute may be: its values add up). A decoder raises ``ValueError`` or
``KeyError`` on a line that breaks it, a strict reader ``ValueError`` naming
the file.
"""

from __future__ import annotations

import hashlib
import math
import re
from contextlib import contextmanager
from datetime import date
from itertools import islice, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence
from urllib.parse import quote, unquote

import numpy as np

from .events import CodedColumn, EventColumns, GraphEdge, InteractionEvent, PairwiseLabel, ProfileSnapshot
from .registry import FeatureRegistry

EDGE_KEYS = ("from", "to", "network")  # a GraphEdge's src, dst and network

# the characters quote(..., safe="") leaves as they are
_UNQUOTED = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.-~")
_PLAIN = "[" + re.escape("".join(sorted(_UNQUOTED))) + "]"  # one character of them


def encode_value(value: str) -> str:
    return value if _UNQUOTED.issuperset(value) else quote(value, safe="")


def decode_value(value: str) -> str:
    return unquote(value) if "%" in value else value


@contextmanager
def naming(path: str | Path) -> Iterator[None]:
    """Re-raise a ``ValueError`` of its block as one that names ``path``."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def parse_once(held: list, path: str | Path, parse: Callable, *key):
    """``parse(path, *key)``, its ``ValueError`` naming ``path``, unless
    ``held``, a reader's own list, holds a value for the same file bytes and an
    equal ``key``: one ``((file digest, *key), value)`` entry per call it is
    held for. Such a call takes an entry without a parse, and the last one
    leaves nothing held. Any other call drops what is held before it parses,
    so that a reader never holds two values, and holds its parse for one more."""
    digest = sha256(path)
    if held and held[0][0] == (digest, *key):
        return held.pop()[1]
    held.clear()
    with naming(path):
        value = parse(path, *key)
    held.append(((digest, *key), value))
    return value


def hold(held: list, path: str | Path, value, readers: int, *key) -> None:
    """Hold ``value``, what a writer just wrote to ``path``, in ``held`` for the
    next ``readers`` calls of ``parse_once`` on those bytes and an equal ``key``."""
    held[:] = [((sha256(path), *key), value)] * readers if readers else []


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


def _either(patterns: list[str]) -> str:
    """A pattern that matches what one of ``patterns`` matches; nothing if there are none."""
    return f"(?:{'|'.join(patterns)})" if patterns else "(?!)"


def _names(names: Iterable[str]) -> str:
    """A pattern that matches each of ``names`` that is its own encoding, and nothing else."""
    return _either([re.escape(name) for name in names if encode_value(name) == name])


def canonical_patterns(registry: FeatureRegistry) -> tuple[re.Pattern, re.Pattern, re.Pattern]:
    """The patterns of the event, edge and label lines that are their record's
    encoding (``encode_event(*decode_event(line))`` and likewise), of a record
    that ``registry`` accepts: two ids that differ, no value to escape (a name
    that is not its own encoding matches no line), a registered network, an
    event's content type and action of its network, vote counts that are
    non-negative ints' reprs, and a timestamp (group ``t``) that is a positive
    int's repr short enough for int(); a longer one is left to the decoder."""
    a, b = f"(?P<a>{_PLAIN}+)", f"(?!(?P=a)\t){_PLAIN}+"  # two ids, the second not the first
    combos = _either([  # each network with its content types and actions, as an event line holds them
        f"{_names([network])}\tcontent_type={_names(spec.content_types)}\taction={_names(spec.actions)}"
        for network, spec in registry.networks.items()
    ])
    return (
        re.compile(f"actor={a}\tauthor={b}\tnetwork={combos}\ttimestamp=(?P<t>[1-9][0-9]{{0,18}})"),
        re.compile(_EDGE_LINE.format(a, b, _names(registry.networks))),
        re.compile(_LABEL_LINE.format(_names(registry.networks), a, b, *["(?:0|[1-9][0-9]{0,18})"] * 2)),
    )


# A line this matches in full, and that ``canonical_profiles`` then takes, is
# ``encode_profile(decode_profile(line))``: no key or value needs escaping, and
# the numeric attributes come before the categorical ones. Groups: user,
# network, as_of, and the numeric tokens, each after its tab.
CANONICAL_PROFILE = re.compile(
    f"user=({_PLAIN}+)\tnetwork=({_PLAIN}*)\tas_of=([0-9]{{4}}-[0-9]{{2}}-[0-9]{{2}})"
    f"((?:\tn:{_PLAIN}+=[0-9]+(?:\\.[0-9]+)?(?:e[-+][0-9]+)?)*)(?:\tc:{_PLAIN}+={_PLAIN}*)*"
)
_NUMBER = re.compile("=([^\t]*)")  # the value of a numeric token
# the key and value of each numeric, or categorical, token of a canonical line
_NUMERIC, _CATEGORICAL = (re.compile(f"\t{kind}:([^=]*)=([^\t]*)") for kind in "nc")


class _Verdicts(dict):
    """Each value looked up -> ``check(value)``, each distinct value checked once."""

    def __init__(self, check: Callable[[str], bool]):
        super().__init__()
        self.check = check

    def __missing__(self, value: str) -> bool:
        verdict = self[value] = self.check(value)
        return verdict


def _iso_date(value: str) -> bool:
    try:
        return date.fromisoformat(value).isoformat() == value
    except ValueError:  # such as 2023-02-30
        return False


def canonical_profiles(lines: Iterable[str]) -> Iterator[tuple[str, re.Match | None]]:
    """Each line with its ``CANONICAL_PROFILE`` match if it is its profile's
    encoding: also its date exists, and each numeric value ``v`` is
    ``repr(float(v))``. Else None. A file repeats its dates and values, so
    each distinct one is checked once."""
    dates, numbers = _Verdicts(_iso_date), _Verdicts(lambda value: repr(float(value)) == value)
    for line in lines:
        match = CANONICAL_PROFILE.fullmatch(line)
        taken = match and dates[match[3]] and all(map(numbers.__getitem__, _NUMBER.findall(match[4])))
        yield line, match if taken else None


# -- the data model --------------------------------------------------------

def _user_id(value: str) -> str:
    if not value:
        raise ValueError("empty user id")
    return value


def _count(value: str) -> int:
    if (count := int(value)) < 0:
        raise ValueError("vote counts must be >= 0")
    return count


# The data model of events, edges and labels, which both of their readers apply
# (and of a profile's user): per key, the check that types its decoded value or
# raises ValueError (a key left out holds any string), and per record type the
# places of the two ids that must differ.
_CHECKS = {
    **dict.fromkeys(("actor", "author", "from", "to", "user_a", "user_b", "user"), _user_id),
    "timestamp": int, "votes_a": _count, "votes_b": _count,
}
_INT_KEYS = frozenset({"timestamp", "votes_a", "votes_b"})  # never escaped: each line's own int
_DISTINCT = {EDGE_KEYS: (0, 1), PairwiseLabel._fields: (1, 2)}


def _record(line: str, keys: tuple[str, ...]) -> list:
    """The checked values of ``keys`` on a line that holds them in any order; a
    missing key raises ``KeyError``, a key given twice or a value the data
    model refuses ``ValueError``."""
    tokens = list(_tokens(line))
    fields = dict(tokens)
    if len(fields) < len(tokens):
        raise ValueError("a key is given twice")
    values = [_CHECKS.get(key, str)(decode_value(fields[key])) for key in keys]
    if (ids := _DISTINCT.get(keys)) and values[ids[0]] == values[ids[1]]:
        raise ValueError(f"{keys[ids[0]]} and {keys[ids[1]]} hold one id")
    return values


# -- events ----------------------------------------------------------------

def encode_event(*fields) -> str:
    """One event's canonical line: ``encode_event(*event)``."""
    return _EVENT_LINE.format(*map(encode_value, fields[:5]), fields[5])


def decode_event(line: str) -> InteractionEvent:
    return InteractionEvent(*_record(line, InteractionEvent._fields))


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
    try:
        user, network, as_of = plain["user"], plain["network"], plain["as_of"]
    except KeyError as exc:
        raise ValueError(f"no {exc} key") from None
    return ProfileSnapshot(
        user=_user_id(user),
        network=network,
        as_of=date.fromisoformat(as_of),
        numeric_attrs=tuple(numeric),
        categorical_attrs=tuple(categorical),
    )


# -- graph edges and pairwise labels ---------------------------------------

def encode_edge(edge: GraphEdge) -> str:
    return _EDGE_LINE.format(encode_value(edge.src), encode_value(edge.dst), encode_value(edge.network))


def decode_edge(line: str) -> GraphEdge:
    return GraphEdge(*_record(line, EDGE_KEYS))


def encode_label(label: PairwiseLabel) -> str:
    return _LABEL_LINE.format(*map(encode_value, label[:3]), *label[3:])


def decode_label(line: str) -> PairwiseLabel:
    return PairwiseLabel(*_record(line, PairwiseLabel._fields))


# -- files -----------------------------------------------------------------

# bytes of whole lines that a column reader takes at a time: enough that each
# chunk costs a few passes in C, few enough that a chunk's strings stay small
CHUNK_HINT = 1 << 16


class _Coder(dict):
    """Each token looked up -> the code of its value in ``values`` (value -> code,
    maybe shared), each distinct token prefix-checked and converted once."""

    def __init__(self, prefix: str, convert, values: dict):
        super().__init__()
        self.prefix, self.convert, self.values = prefix, convert, values

    def __missing__(self, token: str) -> int:
        if not token.startswith(self.prefix):
            raise ValueError(f"a line does not hold its {self.prefix!r} token in place")
        value = self.convert(token[len(self.prefix):])
        code = self[token] = self.values.setdefault(value, len(self.values))
        return code


def read_columns(path: str | Path, fields: Sequence[tuple[str, Callable, str | None]]) -> list:
    """The columns of a file whose every line holds one token per field, in the
    order of ``fields``. A field is ``(prefix, convert, group)``: each of its
    tokens starts with ``prefix``, and ``convert`` turns the rest into its
    value or raises ``ValueError``. A field of group ``None`` comes back as a
    list of each line's value, any other as a ``CodedColumn`` converted once per
    distinct token, whose value list its group shares. A line not of one token
    per field, a token without its prefix, or a last line without its newline
    raises ``ValueError``."""
    width = len(fields)
    values = {g: {} for *_, g in fields if g is not None}  # per group g: value -> code
    coders = [None if g is None else _Coder(prefix, convert, values[g]) for prefix, convert, g in fields]
    columns = [[] if coder is None else bytearray() for coder in coders]  # codes grow in place
    with Path(path).open("r", encoding="utf-8") as fh:
        while lines := fh.readlines(CHUNK_HINT):
            # a line short of a field next to one with a field too many would
            # still line up by position, so each line's tabs are counted
            if set(map(str.count, lines, repeat("\t"))) != {width - 1} or not lines[-1].endswith("\n"):
                for line in lines:
                    if (n := line.rstrip("\n").count("\t") + 1) != width:
                        many = "too many" if n > width else "not enough"
                        raise ValueError(f"{many} values: a line holds {n} fields, not {width}")
                raise ValueError("the last line has no newline")
            tokens = "".join(lines).replace("\n", "\t").split("\t")
            del lines  # so that a chunk's text is held once while its fields are read
            for start, ((prefix, convert, _), coder, column) in enumerate(zip(fields, coders, columns)):
                field = tokens[start:-1:width]  # the last token: the empty string after the last newline
                if coder is not None:
                    column += np.fromiter(map(coder.__getitem__, field), np.intc, len(field)).tobytes()
                elif all(map(str.startswith, field, repeat(prefix))):
                    column.extend(map(convert, map(str.removeprefix, field, repeat(prefix))))
                else:
                    raise ValueError(f"a line does not hold its {prefix!r} token in place")
    lists = {g: list(codes) for g, codes in values.items()}
    return [
        column if g is None else CodedColumn(lists[g], np.frombuffer(column, np.intc))
        for (*_, g), column in zip(fields, columns)
    ]


def _read_records(path: str | Path, keys: tuple[str, ...]) -> list:
    """Per key, the column of a file whose every line holds exactly ``keys`` in
    that order, under the data model: an int key's as a list, any other's coded,
    the two ids of a record into one value list. Any other file raises
    ``ValueError`` naming it."""
    ids = _DISTINCT.get(keys, ())
    fields = [
        (f"{key}=", _CHECKS[key], None) if key in _INT_KEYS
        else (f"{key}=", lambda value, check=_CHECKS.get(key, str): check(decode_value(value)),
              keys[ids[0]] if i in ids else key)
        for i, key in enumerate(keys)
    ]
    with naming(path):
        columns = read_columns(path, fields)
        if ids and (columns[ids[0]].codes == columns[ids[1]].codes).any():
            raise ValueError(f"{keys[ids[0]]} and {keys[ids[1]]} hold one id")
    return columns


def read_event_columns(path: str | Path) -> EventColumns:
    """The events of a file of ``encode_event`` lines, read strictly."""
    return EventColumns(*_read_records(path, InteractionEvent._fields))


def read_edges(path: str | Path) -> tuple[CodedColumn, ...]:
    """The ``src``, ``dst`` and ``network`` columns of a file of ``encode_edge``
    lines, read strictly."""
    return tuple(_read_records(path, EDGE_KEYS))


def read_labels(path: str | Path) -> tuple[PairwiseLabel, ...]:
    """The labels of a file of ``encode_label`` lines, read strictly."""
    return tuple(map(PairwiseLabel, *_read_records(path, PairwiseLabel._fields)))


def read_profiles(path: str | Path) -> Iterator[ProfileSnapshot]:
    """The profiles of a file of ``encode_profile`` lines, one at a time: a line
    that ``canonical_profiles`` takes is read off its match, any other is
    decoded. A line that does not decode, or a blank one, raises ``ValueError``
    naming the file."""
    with naming(path):
        for line, match in canonical_profiles(read_written_lines(path)):
            yield decode_profile(line) if match is None else ProfileSnapshot(
                match[1], match[2], date.fromisoformat(match[3]),
                tuple([(key, float(value)) for key, value in _NUMERIC.findall(match[4])]),
                tuple(_CATEGORICAL.findall(line, match.end(4))),
            )


def read_written_lines(path: str | Path) -> Iterator[str]:
    """The lines of a file that ``write_lines`` wrote; a blank line raises ``ValueError``."""
    with Path(path).open("r", encoding="utf-8", newline="\n") as fh:
        for line in fh:
            if not (line := line.removesuffix("\n")):
                raise ValueError("a blank line")
            yield line


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
    """Non-empty lines of a raw UTF-8 file, without their line ending; with
    ``errors="surrogateescape"`` a byte that is not UTF-8 reads as a lone
    surrogate instead of raising. Lines end at LF only: a CR right before
    the LF is dropped, and a bare CR stays inside its line."""
    with Path(path).open("r", encoding="utf-8", errors=errors, newline="\n") as fh:
        for line in fh:
            line = line.rstrip("\r\n")
            if line:
                yield line
