"""Graph signals: PageRank over a directed graph, and the names of the
per-network statistics that heuristic combiner weights rest on. PageRank is
one iteration over int node codes, ``pagerank_codes``; ``pagerank`` codes
named nodes in name order for it, as the features stage codes its nodes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

GRAPH_STATS = ("graph_size", "avg_node_degree")  # the heuristic bases, per network


@dataclass(frozen=True)
class PageRankResult:
    scores: dict[str, float]
    iterations: int
    converged: bool


def pagerank_codes(
    src: np.ndarray, dst: np.ndarray, n: int, damping: float = 0.85, tol: float = 1e-9, max_iter: int = 200
) -> tuple[np.ndarray, int, bool]:
    """Damped random-walk fixed point over the directed edges ``src[i] ->
    dst[i]`` between nodes ``0..n-1``: (rank per node, iterations, converged).

    Dangling nodes redistribute their mass uniformly over all nodes.
    Convergence is measured in L1 between successive iterates.
    """
    if not 0.0 < damping < 1.0:
        raise ValueError("damping must be in (0,1)")
    if not n:
        raise ValueError("pagerank needs a non-empty node set")
    # The edges are stably sorted by source, so np.add.at adds to each node in a
    # dict loop's order over the nodes in code order (Page et al. 1998). Sums are
    # sequential cumsums, not np.sum (pairwise): the builtin sum of floats is
    # sequential up to Python 3.11 and compensated (Neumaier) from 3.12, so cumsum
    # matches such a loop on 3.10/3.11 and stays the same on later versions.
    by_source = np.argsort(src, kind="stable")
    src, dst = src[by_source], dst[by_source]
    outdeg = np.bincount(src, minlength=n)
    dangling_nodes = outdeg == 0
    rank = np.full(n, 1.0 / n)
    base = (1.0 - damping) / n
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        dangling = np.cumsum(rank[dangling_nodes])[-1] if dangling_nodes.any() else 0.0
        nxt = np.full(n, base + damping * dangling / n)
        np.add.at(nxt, dst, (damping * rank / np.maximum(outdeg, 1))[src])
        delta = np.cumsum(np.abs(nxt - rank))[-1]
        rank = nxt
        if delta < tol:
            converged = True
            break
    return rank, iterations, converged


def pagerank(edges: Iterable[tuple[str, str]], nodes: Iterable[str] = (), damping: float = 0.85,
             tol: float = 1e-9, max_iter: int = 200) -> PageRankResult:
    """``pagerank_codes`` over named nodes: the edges' ends and ``nodes``,
    coded in name order."""
    pairs = list(edges)
    order = sorted(set(nodes).union(*zip(*pairs)))
    code = {u: i for i, u in enumerate(order)}
    src = np.array([code[s] for s, _ in pairs], dtype=np.intp)
    dst = np.array([code[d] for _, d in pairs], dtype=np.intp)
    rank, iterations, converged = pagerank_codes(src, dst, len(order), damping, tol, max_iter)
    return PageRankResult(dict(zip(order, rank.tolist())), iterations, converged)
