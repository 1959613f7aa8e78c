"""Graph-derived long-lasting signals: PageRank and degree ratios."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping

from .events import GraphEdge


@dataclass(frozen=True)
class PageRankResult:
    scores: dict[str, float]
    iterations: int
    converged: bool


def pagerank(
    edges: Iterable[tuple[str, str]],
    nodes: Iterable[str] = (),
    damping: float = 0.85,
    tol: float = 1e-9,
    max_iter: int = 200,
) -> PageRankResult:
    """Damped random-walk fixed point over a directed graph.

    Dangling nodes redistribute their mass uniformly over all nodes.
    Convergence is measured in L1 between successive iterates.
    """
    if not 0.0 < damping < 1.0:
        raise ValueError("damping must be in (0,1)")
    out_neighbors: dict[str, list[str]] = defaultdict(list)
    node_set = set(nodes)
    for src, dst in edges:
        out_neighbors[src].append(dst)
        node_set.add(src)
        node_set.add(dst)
    if not node_set:
        raise ValueError("pagerank needs a non-empty node set")

    order = sorted(node_set)
    n = len(order)
    rank = {u: 1.0 / n for u in order}
    base = (1.0 - damping) / n
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        dangling = sum(rank[u] for u in order if not out_neighbors[u])
        nxt = {u: base + damping * dangling / n for u in order}
        for u in order:
            outs = out_neighbors[u]
            if outs:
                share = damping * rank[u] / len(outs)
                for v in outs:
                    nxt[v] += share
        delta = sum(abs(nxt[u] - rank[u]) for u in order)
        rank = nxt
        if delta < tol:
            converged = True
            break
    return PageRankResult(scores=rank, iterations=iterations, converged=converged)


def edges_by_network(edges: Iterable[GraphEdge]) -> dict[str, list[tuple[str, str]]]:
    grouped: dict[str, list[tuple[str, str]]] = defaultdict(list)
    for e in edges:
        grouped[e.network].append((e.src, e.dst))
    return grouped


def degree_stats(edge_pairs: Iterable[tuple[str, str]]) -> tuple[dict[str, int], dict[str, int]]:
    """In-degree and out-degree per node."""
    indeg: dict[str, int] = defaultdict(int)
    outdeg: dict[str, int] = defaultdict(int)
    for src, dst in edge_pairs:
        outdeg[src] += 1
        indeg[dst] += 1
    return dict(indeg), dict(outdeg)


def inlink_outlink_ratio(indeg: Mapping[str, int], outdeg: Mapping[str, int]) -> dict[str, float]:
    # nodes with no outlinks keep their raw in-degree (ratio against 1)
    users = set(indeg) | set(outdeg)
    return {u: indeg.get(u, 0) / max(outdeg.get(u, 0), 1) for u in users}


def graph_summary(edge_pairs: list[tuple[str, str]]) -> dict[str, float]:
    """Per-network statistics used for heuristic combiner weights."""
    nodes = {u for pair in edge_pairs for u in pair}
    size = len(nodes)
    avg_degree = (2.0 * len(edge_pairs) / size) if size else 0.0
    return {"graph_size": float(size), "avg_node_degree": avg_degree}
