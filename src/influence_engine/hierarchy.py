"""Hierarchical score assembly over the network/community tree.

Leaves score a user via the learned non-negative dot product; internal
levels fold child scores into a new feature vector and combine them,
typically with the weight-normalized L2 combiner. The root score scaled
by 100 is the final influence score.

The tree is walked once for all users, in post-order, each node scored over
its network's vectors or its children's score columns, one ``leaf_score`` or
``l2_combine`` per row; ``score_user`` is the walk over one user.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import Mapping

import numpy as np

from . import lineio
from .features import FeatureStore
from .graph import GRAPH_STATS
from .registry import json_known, json_list, json_typed
from .training import WeightVector

COMBINER_SUPERVISED = "supervised-dot"
COMBINER_L2 = "l2-norm"


@dataclass(frozen=True)
class ScoreNode:
    node_id: str
    combiner: str
    children: tuple["ScoreNode", ...] = ()
    network: str | None = None  # leaves only
    heuristic_basis: str | None = None  # internal nodes with derived weights
    explicit_weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.combiner not in (COMBINER_SUPERVISED, COMBINER_L2):
            raise ValueError(f"unknown combiner {self.combiner!r}")
        if self.is_leaf:
            if not self.network:
                raise ValueError(f"leaf node {self.node_id!r} needs a network")
            if self.combiner != COMBINER_SUPERVISED:  # a leaf is always scored with leaf_score
                raise ValueError(f"leaf node {self.node_id!r} must use {COMBINER_SUPERVISED!r}")
        elif self.explicit_weights is not None:
            w = self.explicit_weights
            if len(w) != len(self.children):
                raise ValueError("explicit weights length must match children count")
            if not (all(0 <= x < np.inf for x in w) and any(w)):  # refuses nan and inf too
                raise ValueError(f"weights of {self.node_id!r} must be finite, >= 0, not all 0")
        if self.heuristic_basis not in (None, *GRAPH_STATS):
            raise ValueError(f"heuristic_basis {self.heuristic_basis!r} is not one of {GRAPH_STATS}")

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def leaf_networks(self) -> list[str]:
        return [node.network for node in self.walk() if node.is_leaf]

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def post_order(self):
        for child in self.children:
            yield from child.post_order()
        yield self


# the keys a node of a tree's JSON object may hold
_NODE_KEYS = ("node_id", "combiner", "children", "network", "heuristic_basis", "weights")


def parse_tree(data: dict) -> ScoreNode:
    """The tree a JSON object describes; node ids are unique and the top one is
    "root". A value of the wrong JSON type, or a key outside ``_NODE_KEYS``,
    raises ``TypeError`` naming its key, such as ``children.0.node_id``."""
    def node(d: dict, at: str) -> ScoreNode:
        json_known(at, json_typed(at.rstrip(".") or "tree", d, dict), _NODE_KEYS)
        kids = json_typed(at + "children", d.get("children", []), list)
        children = tuple(node(kid, f"{at}children.{i}.") for i, kid in enumerate(kids))

        def text(key, default=None):  # the default where the key is absent or null
            return default if d.get(key) is None else json_typed(at + key, d[key], str)

        return ScoreNode(
            node_id=json_typed(at + "node_id", d["node_id"], str),
            combiner=text("combiner", COMBINER_L2 if children else COMBINER_SUPERVISED),
            children=children,
            network=text("network"),
            heuristic_basis=text("heuristic_basis"),
            explicit_weights=json_list(at + "weights", d["weights"], int, float) if "weights" in d else None,
        )

    tree = node(data, "")
    if tree.node_id != "root":
        raise ValueError('top-level node must have node_id "root"')
    ids = [n.node_id for n in tree.walk()]
    repeated = sorted({i for i in ids if ids.count(i) > 1})
    if repeated:  # child scores are keyed by node id: a node would read its namesake's
        raise ValueError(f"node_id repeated in the tree: {repeated}")
    if broken := sorted({i for i in ids if set(i) & set(" =\t\n")}):  # snapshot.txt holds "id=score id=score"
        raise ValueError(f"node_id holds a space, '=', a tab or a newline: {broken}")
    return tree


def load_tree(path: str | Path) -> ScoreNode:
    try:
        return parse_tree(json.loads(Path(path).read_text()))
    except TypeError as exc:
        raise TypeError(f"tree {path}: {exc}") from None


# -- combiners -------------------------------------------------------------

def leaf_score(f: np.ndarray, w: np.ndarray, total: float | None = None) -> float:
    """Weight-sum-normalized dot product, in [0,1] for f in [0,1]^n, w >= 0;
    ``total`` is ``float(np.sum(w))``, for a caller that has it already."""
    if f.shape != w.shape:
        raise ValueError("feature and weight vectors are misaligned")
    total = float(np.sum(w)) if total is None else total
    if total == 0.0:
        return 0.0
    return float(f @ w) / total


def l2_combine(f: np.ndarray, w: np.ndarray, norm: float | None = None) -> float:
    """||f * w||_2 / ||w||_2 with * element-wise, the numerator as
    ``np.linalg.norm`` takes it; in [0,1] for f in [0,1]^n; ``norm`` is ||w||_2,
    for a caller that has it already."""
    if f.shape != w.shape:
        raise ValueError("feature and weight vectors are misaligned")
    norm = float(np.linalg.norm(w)) if norm is None else norm
    if norm == 0.0:
        raise ValueError("combiner weights must not be all zero")
    x = f * w
    return math.sqrt(float(x.dot(x))) / norm


def heuristic_weights(node: ScoreNode, stats: Mapping[str, Mapping[str, float]]) -> np.ndarray:
    """Per-child weights proportional to a graph statistic, max-normalized.

    ``stats`` maps network name -> {graph_size, avg_node_degree}; an internal
    child contributes the sum over its descendant leaf networks. If it is 0 for
    every child, they weigh the same, with a ``heuristic-basis-zero`` warning.
    """
    basis = node.heuristic_basis or "graph_size"
    values = []
    for child in node.children:
        total = 0.0
        for network in child.leaf_networks():
            net_stats = stats.get(network)
            if net_stats is None or basis not in net_stats:
                raise ValueError(f"missing {basis!r} statistic for network {network!r}")
            total += net_stats[basis]
        values.append(total)
    top = max(values)
    if top <= 0:
        print(f"warning\theuristic-basis-zero\tnode={node.node_id}")
        return np.ones(len(values))
    return np.array(values) / top


def node_weights(
    node: ScoreNode, stats: Mapping[str, Mapping[str, float]]
) -> np.ndarray:
    if node.explicit_weights is not None:
        return np.asarray(node.explicit_weights, dtype=float)
    return heuristic_weights(node, stats)


# -- evaluation ------------------------------------------------------------

@dataclass(frozen=True)
class ScoreEntry:
    overall: float  # [0,100]
    raw_root: float  # [0,1]
    node_scores: tuple[tuple[str, float], ...]


@dataclass
class ScoreSnapshot:
    as_of: date
    entries: dict[str, ScoreEntry] = field(default_factory=dict)

    def overall(self, user: str) -> float | None:
        entry = self.entries.get(user)
        return entry.overall if entry else None

    def prior_scores(self) -> dict[str, float]:
        return {user: entry.overall for user, entry in self.entries.items()}


def _score(tree: ScoreNode, users: list[str], rows: dict, models: Mapping[str, WeightVector],
           stats: Mapping[str, Mapping[str, float]], weights: dict) -> dict[str, ScoreEntry]:
    """The entry of each of ``users`` that the root reaches, in their order;
    ``rows`` maps a network to its users' indices and vectors. A node's weights
    and their sum go into ``weights`` once some user reaches it."""
    columns = {}  # node id -> (whom it reaches, their scores; 0.0 for the others)
    for node in tree.post_order():
        if node.is_leaf:
            at, vectors = rows.get(node.network, ((), ()))
        else:
            at = np.flatnonzero(np.logical_or.reduce([columns[c.node_id][0] for c in node.children]))
            vectors = np.column_stack([columns[c.node_id][1] for c in node.children])[at]
        present, scores = columns[node.node_id] = np.zeros(len(users), dtype=bool), np.zeros(len(users))
        if not len(at):
            continue
        if node.node_id not in weights:
            w = models[node.network].weights if node.is_leaf else node_weights(node, stats)
            weights[node.node_id] = (w, float(np.sum(w)))
        w, total = weights[node.node_id]
        present[at] = True
        if node.combiner == COMBINER_SUPERVISED:
            scores[at] = [leaf_score(f, w, total) for f in vectors]
        else:
            norm = float(np.linalg.norm(w))
            scores[at] = [l2_combine(f, w, norm) for f in vectors]
    nodes = [(node_id, present.tolist(), scores.tolist()) for node_id, (present, scores) in sorted(columns.items())]
    root = columns[tree.node_id][1].tolist()
    return {
        users[i]: ScoreEntry(100.0 * root[i], root[i], tuple((n, s[i]) for n, on, s in nodes if on[i]))
        for i in np.flatnonzero(columns[tree.node_id][0]).tolist()
    }


def score_user(user: str, tree: ScoreNode, store: FeatureStore, models: Mapping[str, WeightVector],
               stats: Mapping[str, Mapping[str, float]], weights: dict | None = None) -> ScoreEntry | None:
    """Bottom-up evaluation for one user; None when the user is on no leaf.
    ``weights`` caches each node's weights and their sum by node id from one
    call to the next."""
    rows = {network: ([0], [f]) for network in tree.leaf_networks() if (f := store.get(user, network)) is not None}
    return _score(tree, [user], rows, models, stats, {} if weights is None else weights).get(user)


def score_population(tree: ScoreNode, store: FeatureStore, models: Mapping[str, WeightVector],
                     stats: Mapping[str, Mapping[str, float]], as_of: date) -> ScoreSnapshot:
    """``score_user`` of every user of ``store``, each node scored for all at once."""
    users = store.users()
    code = dict(zip(users, range(len(users))))
    rows: dict[str, tuple[list, list]] = {}
    for (user, network), f in store.vectors.items():
        at, vectors = rows.setdefault(network, ([], []))
        at.append(code[user])
        vectors.append(f)
    return ScoreSnapshot(as_of, _score(tree, users, rows, models, stats, {}))


# -- snapshot files --------------------------------------------------------

def save_snapshot(snapshot: ScoreSnapshot, path: str | Path, readers: int = 0) -> None:
    """Write ``snapshot`` and hold it for the next ``readers`` calls of
    ``load_snapshot`` on those bytes."""
    lines = [f"as_of={snapshot.as_of.isoformat()}"]
    for user in sorted(snapshot.entries):
        entry = snapshot.entries[user]
        nodes = " ".join(f"{nid}={repr(s)}" for nid, s in entry.node_scores)
        lines.append(f"{lineio.encode_value(user)}\t{entry.overall!r}\t{entry.raw_root!r}\t{nodes}")
    lineio.write_lines(path, lines)
    lineio.hold(_held, path, snapshot, readers)


def _parse_snapshot(path: str | Path) -> ScoreSnapshot:
    lines = list(lineio.read_written_lines(path))
    if not lines or not lines[0].startswith("as_of="):
        raise ValueError("the as_of header is missing")
    snapshot = ScoreSnapshot(as_of=date.fromisoformat(lines[0].split("=", 1)[1]))
    for line in lines[1:]:
        user, overall, raw, nodes = line.split("\t")
        tokens = (token.partition("=") for token in nodes.split(" ") if token)
        node_scores = tuple((node_id, float(score)) for node_id, _, score in tokens)
        snapshot.entries[lineio.decode_value(user)] = ScoreEntry(
            overall=float(overall), raw_root=float(raw), node_scores=node_scores
        )
    return snapshot


# the snapshot last parsed or saved, as one ((file digest,), snapshot) per call
# it is held for, until its last reader or the next reader of other bytes
_held: list = []


def load_snapshot(path: str | Path) -> ScoreSnapshot:
    """A ``save_snapshot`` file; a damaged one raises ``ValueError`` naming it.

    A snapshot that ``save_snapshot`` holds for these bytes is taken without a
    parse, so that evaluate and simulate in an ``all`` run parse nothing; a
    snapshot parsed is held for the next call with the same bytes, so that
    evaluate and simulate run apart in one process parse it once."""
    return lineio.parse_once(_held, path, _parse_snapshot)
