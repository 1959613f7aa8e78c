"""Ranking-quality metrics: exponential-gain nDCG and rank correlation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import lineio


@dataclass(frozen=True)
class ReferenceRanking:
    """An external ideal ordering: contiguous ranks starting at 1."""

    name: str
    ordered_entities: tuple[str, ...]
    external_scores: tuple[float | None, ...] = ()

    def __post_init__(self):
        if len(set(self.ordered_entities)) != len(self.ordered_entities):
            raise ValueError("duplicate entity in reference ranking")


def relevance_assignment(reference: ReferenceRanking, p: int) -> dict[str, float]:
    """rel(entity) = p / ideal rank; the top entity gets rel = p."""
    if p < 1 or p > len(reference.ordered_entities):
        raise ValueError("cutoff p must be within the reference length")
    return {e: p / (i + 1) for i, e in enumerate(reference.ordered_entities)}


def dcg(rels_in_order: Sequence[float], p: int) -> float:
    """Sum over positions 1..p of (2^rel - 1) / log2(position + 1)."""
    if len(rels_in_order) < p:
        raise ValueError("need at least p relevance values")
    return sum(
        (2.0 ** rel - 1.0) / math.log2(i + 1)
        for i, rel in enumerate(rels_in_order[:p], start=1)
    )


def ndcg(reference: ReferenceRanking, evaluated_order: Sequence[str], p: int) -> float:
    missing = set(reference.ordered_entities) - set(evaluated_order)
    if missing:
        raise ValueError(f"evaluated order is missing reference entities: {sorted(missing)}")
    rel = relevance_assignment(reference, p)
    unknown = [e for e in evaluated_order if e not in rel]
    if unknown:
        raise ValueError(f"entities without a reference rank: {unknown}")
    evaluated_rels = [rel[e] for e in evaluated_order]
    ideal_rels = [rel[e] for e in reference.ordered_entities]
    ideal = dcg(ideal_rels, p)
    return dcg(evaluated_rels, p) / ideal


def average_ranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks; tied values share the mean of the ranks they span."""
    _, group, size = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(size)
    return 0.5 * (ends + (ends - size) + 1)[group]


class TooFewUsers(ValueError):
    """``rank_correlation``'s refusal: fewer than 10 users in both maps."""


def rank_correlation(scores: Mapping[str, float], latent: Mapping[str, float]) -> float:
    """Spearman rank correlation over users present in both maps.

    Refuses fewer than 10 users: the statistic is meaningless that small.
    A constant side, or a nan value, has no rank order: the result is nan.
    """
    common = sorted(set(scores) & set(latent))
    if len(common) < 10:
        raise TooFewUsers(f"need at least 10 shared users, have {len(common)}")
    a = [scores[u] for u in common]
    b = [latent[u] for u in common]
    if len(set(a)) == 1 or len(set(b)) == 1 or np.isnan(a + b).any():
        return math.nan
    ra, rb = average_ranks(a), average_ranks(b)
    if len(set(a)) == len(a) and len(set(b)) == len(b):
        # tie-free case: the rank-difference formula is exact, so perfect
        # agreement and perfect reversal come out as exactly +/-1.0
        n = len(common)
        d_sq = float(sum((x - y) ** 2 for x, y in zip(ra, rb)))
        return 1.0 - 6.0 * d_sq / (n * (n * n - 1))
    # with ties, Spearman's rho is the Pearson correlation of the ranks
    return float(np.corrcoef(ra, rb)[1, 0])


# -- fixture files ---------------------------------------------------------

def load_reference(path: str | Path) -> ReferenceRanking:
    """Lines of ``rank<TAB>entity<TAB>external-score`` (score optional); a
    damaged line raises ``ValueError`` naming the file."""
    entities = []
    scores = []
    expected = 1
    with lineio.naming(path):
        for line in lineio.read_lines(path):
            rank, entity, *score = line.split("\t")
            if int(rank) != expected:
                raise ValueError(f"ranks must be contiguous from 1; saw {rank} at position {expected}")
            expected += 1
            entities.append(entity)
            scores.append(float(score[0]) if score and score[0] else None)
        return ReferenceRanking(
            name=Path(path).stem,
            ordered_entities=tuple(entities),
            external_scores=tuple(scores),
        )


def order_by_external_scores(reference: ReferenceRanking) -> list[str]:
    """Entities sorted by their attached external scores, descending;
    ties broken by entity name for determinism."""
    if any(s is None for s in reference.external_scores):
        raise ValueError("reference has entities without external scores")
    paired = list(zip(reference.ordered_entities, reference.external_scores))
    paired.sort(key=lambda es: (-es[1], es[0]))
    return [e for e, _ in paired]
