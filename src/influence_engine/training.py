"""Per-network supervised weight fitting from pairwise judgments."""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import lineio
from .events import PairwiseLabel
from .features import FeatureStore
from .nnls import NNLSResult, nnls
from .registry import FeatureRegistry

MIN_VOTE_MARGIN = 2


@dataclass(frozen=True)
class CleanPair:
    network: str
    winner: str
    loser: str
    margin: int

    def __post_init__(self):
        if self.winner == self.loser:
            raise ValueError("winner and loser must differ")
        if self.margin < MIN_VOTE_MARGIN:
            raise ValueError(f"margin must be >= {MIN_VOTE_MARGIN}")


@dataclass(frozen=True)
class WeightVector:
    network: str
    weights: np.ndarray
    registry_hash: str
    converged: bool = True
    iterations: int = 0
    residual_norm: float = 0.0

    def __post_init__(self):
        if np.any(self.weights < 0):
            raise ValueError("weights must be non-negative")


@dataclass
class ModelReport:
    network: str
    pairwise_accuracy: float
    f1: float
    train_pairs: int
    eval_pairs: int
    skipped_pairs: int
    solver_iterations: int
    residual_norm: float
    converged: bool

    def summary_line(self) -> str:
        return (
            f"model\tnetwork={self.network}"
            f"\taccuracy={self.pairwise_accuracy:.6f}\tf1={self.f1:.6f}"
            f"\ttrain_pairs={self.train_pairs}\teval_pairs={self.eval_pairs}"
            f"\tskipped={self.skipped_pairs}\titerations={self.solver_iterations}"
            f"\tresidual={self.residual_norm:.6g}\tconverged={int(self.converged)}"
        )


def preprocess_labels(labels: Iterable[PairwiseLabel]) -> list[CleanPair]:
    """Merge repeated judgments of the same unordered pair, then keep only
    pairs with a clear winner: vote margin of at least 2."""
    totals: dict[tuple[str, str, str], list[int]] = defaultdict(lambda: [0, 0])
    for label in labels:
        a, b = label.user_a, label.user_b
        if a <= b:
            key, va, vb = (label.network, a, b), label.votes_a, label.votes_b
        else:
            key, va, vb = (label.network, b, a), label.votes_b, label.votes_a
        totals[key][0] += va
        totals[key][1] += vb

    pairs = []
    for (network, a, b), (va, vb) in sorted(totals.items()):
        margin = abs(va - vb)
        if margin < MIN_VOTE_MARGIN:
            continue
        winner, loser = (a, b) if va > vb else (b, a)
        pairs.append(CleanPair(network=network, winner=winner, loser=loser, margin=margin))
    return pairs


def build_design(
    pairs: Sequence[CleanPair], store: FeatureStore, network: str
) -> tuple[np.ndarray, np.ndarray, int]:
    """One row per pair: f(winner) - f(loser), target 1. Pairs with a missing
    feature vector are skipped and counted."""
    rows = []
    skipped = 0
    for pair in pairs:
        fw = store.get(pair.winner, network)
        fl = store.get(pair.loser, network)
        if fw is None or fl is None:
            skipped += 1
            continue
        rows.append(fw - fl)
    if rows:
        X = np.vstack(rows)
        y = np.ones(len(rows))
    else:
        X = np.zeros((0, 0))
        y = np.zeros(0)
    return X, y, skipped


def nnls_solve(
    X: np.ndarray,
    y: np.ndarray,
    network: str,
    registry_hash: str,
    max_iter: int | None = None,
) -> WeightVector:
    if X.shape[0] < 1:
        raise ValueError("cannot train on an empty design matrix")
    result: NNLSResult = nnls(X, y, max_iter=max_iter)
    return WeightVector(
        network=network,
        weights=result.x,
        registry_hash=registry_hash,
        converged=result.converged,
        iterations=result.iterations,
        residual_norm=result.residual_norm,
    )


def _pair_scores(w: WeightVector, pair: CleanPair, store: FeatureStore):
    fw = store.get(pair.winner, w.network)
    fl = store.get(pair.loser, w.network)
    if fw is None or fl is None:
        return None
    return float(fw @ w.weights), float(fl @ w.weights)


def evaluate_model(
    w: WeightVector,
    pairs: Sequence[CleanPair],
    store: FeatureStore,
    train_pairs: int = 0,
    skipped: int = 0,
) -> ModelReport:
    """Holdout evaluation.

    Accuracy: winner scored strictly above loser, ties worth 0.5.
    F1: binary task "first-listed user is the winner", every pair included
    in both orderings; ties predict negative.
    """
    correct = 0.0
    evaluated = 0
    tp = fp = fn = 0
    for pair in pairs:
        scores = _pair_scores(w, pair, store)
        if scores is None:
            skipped += 1
            continue
        sw, sl = scores
        evaluated += 1
        if sw > sl:
            correct += 1.0
            tp += 1  # (winner, loser) ordering predicted positive
        elif sw == sl:
            correct += 0.5
            fn += 1  # tie: both orderings predicted negative
        else:
            fn += 1
            fp += 1  # (loser, winner) ordering predicted positive
    accuracy = correct / evaluated if evaluated else 0.0
    f1 = (2 * tp / (2 * tp + fp + fn)) if (2 * tp + fp + fn) else 0.0
    return ModelReport(
        network=w.network,
        pairwise_accuracy=accuracy,
        f1=f1,
        train_pairs=train_pairs,
        eval_pairs=evaluated,
        skipped_pairs=skipped,
        solver_iterations=w.iterations,
        residual_norm=w.residual_norm,
        converged=w.converged,
    )


def split_pairs(
    pairs: Sequence[CleanPair], holdout_fraction: float, seed: int
) -> tuple[list[CleanPair], list[CleanPair]]:
    """Deterministic seeded 80/20-style split by pair."""
    shuffled = list(pairs)
    random.Random(seed).shuffle(shuffled)
    cut = int(round(len(shuffled) * (1.0 - holdout_fraction)))
    return shuffled[:cut], shuffled[cut:]


def train_network(
    pairs: Sequence[CleanPair],
    store: FeatureStore,
    registry: FeatureRegistry,
    network: str,
    holdout_fraction: float = 0.2,
    seed: int = 0,
) -> tuple[WeightVector, ModelReport]:
    net_pairs = [p for p in pairs if p.network == network]
    train, holdout = split_pairs(net_pairs, holdout_fraction, seed)
    X, y, skipped = build_design(train, store, network)
    w = nnls_solve(X, y, network, registry.registry_hash(network))
    report = evaluate_model(w, holdout, store, train_pairs=len(y), skipped=skipped)
    return w, report


# -- model files -----------------------------------------------------------

def save_model(w: WeightVector, registry: FeatureRegistry, path: str | Path) -> None:
    keys = registry.keys_for(w.network)
    if len(keys) != len(w.weights):
        raise ValueError("weight vector does not match registry size")
    lines = [
        f"network={w.network}",
        f"registry_hash={w.registry_hash}",
        f"converged={int(w.converged)}",
        f"iterations={w.iterations}",
        f"residual_norm={repr(w.residual_norm)}",
    ]
    lines += [f"w\t{key}\t{float(v)!r}" for key, v in zip(keys, w.weights)]
    lineio.write_lines(path, lines)


def load_model(path: str | Path, registry: FeatureRegistry) -> WeightVector:
    header: dict[str, str] = {}
    weights: dict[str, float] = {}
    for line in lineio.read_lines(path):
        if line.startswith("w\t"):
            _, key, value = line.split("\t")
            weights[key] = float(value)
        else:
            k, _, v = line.partition("=")
            header[k] = v
    network = header["network"]
    expected_hash = registry.registry_hash(network)
    if header["registry_hash"] != expected_hash:
        raise ValueError(
            f"model file {path} was trained against a different feature registry "
            f"({header['registry_hash']} != {expected_hash})"
        )
    keys = registry.keys_for(network)
    vector = np.array([weights.get(k, 0.0) for k in keys])
    return WeightVector(
        network=network,
        weights=vector,
        registry_hash=header["registry_hash"],
        converged=bool(int(header.get("converged", "1"))),
        iterations=int(header.get("iterations", "0")),
        residual_norm=float(header.get("residual_norm", "0.0")),
    )
