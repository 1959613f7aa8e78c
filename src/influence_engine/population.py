"""Synthetic population with known latent influence, plus the
perk-campaign spread simulator used to validate score quality.

Every user carries a latent influence level L drawn log-normally; audience
size and reaction volume both grow with L, so a correct pipeline must
recover the L ordering from the event log alone. ``generate_population``
draws the levels and audience sizes first, then samples each audience and
membership; ``draw_campaign_population`` draws only the first part, which is
all that ``run_campaign`` reads.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping, NamedTuple

import numpy as np

from . import lineio
from .events import (
    MAX_WINDOW_DAYS,
    SECONDS_PER_DAY,
    GraphEdge,
    InteractionEvent,
    PairwiseLabel,
    ProfileSnapshot,
    TimeWindow,
)
from .hierarchy import ScoreSnapshot
from .registry import FeatureRegistry, NetworkSpec


@dataclass(frozen=True)
class PopulationParams:
    n_users: int = 1000
    networks: tuple[str, ...] = ("tw", "fb", "ig")
    lognormal_mu: float = 2.5
    lognormal_sigma: float = 1.0
    mean_reactions_per_user: float = 50.0
    membership_prob: float = 0.85
    mean_audience: float = 30.0
    max_audience: int = 200
    edges_per_user: int = 10
    label_pairs: int = 2000
    label_flip_rate: float = 0.0
    label_margin_gate: float = 0.3  # min |ln La - ln Lb| for a judgment to exist
    reference_time: int = 1_700_000_000

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "PopulationParams":
        data = dict(data)
        data["networks"] = tuple(data["networks"])
        return cls(**data)


class CampaignPopulation(NamedTuple):
    """What ``run_campaign`` reads of a population: its users, their latent
    levels and each user's audience size, as ``generate_population`` draws
    them, but without sampling any audience."""

    users: tuple[str, ...]
    latent: dict[str, float]
    audience_sizes: tuple[int, ...]  # per user, in ``users`` order


@dataclass
class SyntheticPopulation:
    params: PopulationParams
    seed: int
    users: tuple[str, ...]
    latent: dict[str, float]
    audiences: dict[str, tuple[str, ...]]
    memberships: dict[str, tuple[str, ...]]

    @property
    def audience_sizes(self) -> tuple[int, ...]:
        return tuple(len(self.audiences[u]) for u in self.users)


def desk_registry(networks: tuple[str, ...]) -> FeatureRegistry:
    """Compact registry for desk-scale synthetic runs."""
    specs = {
        name: NetworkSpec(
            name=name,
            content_types=("message", "photo"),
            actions=("comment", "like", "reshare"),
            longlasting_attrs=("followers", "friends"),
        )
        for name in networks
    }
    return FeatureRegistry(networks=specs)


def desk_tree(networks: tuple[str, ...]) -> dict:
    return {
        "node_id": "root",
        "combiner": "l2-norm",
        "heuristic_basis": "graph_size",
        "children": [
            {"node_id": n, "combiner": "supervised-dot", "network": n} for n in networks
        ],
    }


def draw_campaign_population(params: PopulationParams, seed: int | np.random.Generator) -> CampaignPopulation:
    """The users, latent levels and audience sizes of ``generate_population(params,
    seed)``, the first things it draws, without its audiences or memberships. A
    level L is drawn log-normally; the audience size, ``max(1,
    min(round(mean_audience * L / mean L), max_audience, n - 1))``, grows with
    it, and the other users can fill it. A ``Generator`` is drawn from as it is."""
    n = params.n_users
    if n < 2:  # an audience is drawn from the other users, so there must be some
        raise ValueError(f"a population needs at least 2 users, not {n}")
    users = tuple(f"u{i:05d}" for i in range(n))
    latent = np.random.default_rng(seed).lognormal(params.lognormal_mu, params.lognormal_sigma, n).tolist()
    mean_latent = float(np.mean(latent))
    sizes = tuple(max(1, min(round(params.mean_audience * level / mean_latent), params.max_audience, n - 1))
                  for level in latent)
    return CampaignPopulation(users, dict(zip(users, latent)), sizes)


def generate_population(params: PopulationParams, seed: int) -> SyntheticPopulation:
    rng = np.random.default_rng(seed)
    users, latent, sizes = draw_campaign_population(params, rng)
    audiences = {}
    memberships = {}
    indices = np.arange(len(users))
    for i, (u, size) in enumerate(zip(users, sizes)):
        others = np.concatenate([indices[:i], indices[i + 1:]])
        chosen = rng.choice(others, size=size, replace=False)
        audiences[u] = tuple(users[j] for j in sorted(chosen))
        member = tuple(
            net for net in params.networks if rng.random() < params.membership_prob
        )
        if not member:
            member = (params.networks[int(rng.integers(len(params.networks)))],)
        memberships[u] = member

    return SyntheticPopulation(
        params=params,
        seed=seed,
        users=users,
        latent=latent,
        audiences=audiences,
        memberships=memberships,
    )


def generate_events(pop: SyntheticPopulation) -> list[InteractionEvent]:
    params = pop.params
    rng = np.random.default_rng((pop.seed, 1))
    mean_latent = float(np.mean([pop.latent[u] for u in pop.users]))
    window_seconds = MAX_WINDOW_DAYS * SECONDS_PER_DAY
    registry = desk_registry(params.networks)
    events = []
    for u in pop.users:
        rate = params.mean_reactions_per_user * pop.latent[u] / mean_latent
        count = int(rng.poisson(rate))
        audience = pop.audiences[u]
        nets = pop.memberships[u]
        for _ in range(count):
            network = nets[int(rng.integers(len(nets)))]
            spec = registry.networks[network]
            events.append(
                InteractionEvent(
                    actor=audience[int(rng.integers(len(audience)))],
                    author=u,
                    network=network,
                    content_type=spec.content_types[int(rng.integers(len(spec.content_types)))],
                    action=spec.actions[int(rng.integers(len(spec.actions)))],
                    timestamp=int(params.reference_time - 1 - rng.integers(window_seconds)),
                )
            )
    return events


def generate_profiles(pop: SyntheticPopulation) -> list[ProfileSnapshot]:
    rng = np.random.default_rng((pop.seed, 2))
    as_of = TimeWindow(pop.params.reference_time, MAX_WINDOW_DAYS).reference_date()
    profiles = []
    for u in pop.users:
        followers = float(len(pop.audiences[u]))
        for network in pop.memberships[u]:
            profiles.append(
                ProfileSnapshot(
                    user=u,
                    network=network,
                    as_of=as_of,
                    numeric_attrs=(
                        ("followers", followers),
                        # uncorrelated noise signal the model should down-weight
                        ("friends", float(rng.integers(10, 500))),
                    ),
                )
            )
    return profiles


def generate_edges(pop: SyntheticPopulation) -> list[GraphEdge]:
    edges = []
    member_sets = {u: set(pop.memberships[u]) for u in pop.users}
    for u in pop.users:
        for network in pop.memberships[u]:
            emitted = 0
            for follower in pop.audiences[u]:
                if emitted >= pop.params.edges_per_user:
                    break
                if network in member_sets[follower]:
                    edges.append(GraphEdge(src=follower, dst=u, network=network))
                    emitted += 1
    return edges


def generate_labels(pop: SyntheticPopulation) -> list[PairwiseLabel]:
    params = pop.params
    rng = np.random.default_rng((pop.seed, 3))
    by_network: dict[str, list[str]] = {net: [] for net in params.networks}
    for u in pop.users:
        for net in pop.memberships[u]:
            by_network[net].append(u)

    labels = []
    attempts = 0
    max_attempts = params.label_pairs * 50
    while len(labels) < params.label_pairs and attempts < max_attempts:
        attempts += 1
        network = params.networks[int(rng.integers(len(params.networks)))]
        members = by_network[network]
        if len(members) < 2:
            continue
        i, j = rng.choice(len(members), size=2, replace=False)
        a, b = members[int(i)], members[int(j)]
        la, lb = pop.latent[a], pop.latent[b]
        if abs(math.log(la) - math.log(lb)) < params.label_margin_gate:
            continue
        winner_is_a = la > lb
        if rng.random() < params.label_flip_rate:
            winner_is_a = not winner_is_a
        va, vb = (5, 1) if winner_is_a else (1, 5)
        labels.append(PairwiseLabel(network=network, user_a=a, user_b=b, votes_a=va, votes_b=vb))
    return labels


def write_dataset(pop: SyntheticPopulation, directory: str | Path) -> Path:
    """Materialize the full desk-scale input set in one directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lineio.write_lines(directory / "events.txt", (lineio.encode_event(*e) for e in generate_events(pop)))
    lineio.write_lines(directory / "profiles.txt", (lineio.encode_profile(p) for p in generate_profiles(pop)))
    lineio.write_lines(directory / "edges.txt", (lineio.encode_edge(e) for e in generate_edges(pop)))
    lineio.write_lines(directory / "labels.txt", (lineio.encode_label(l) for l in generate_labels(pop)))
    lineio.write_lines(
        directory / "latent.txt",
        (f"{u}\t{repr(pop.latent[u])}" for u in pop.users),
    )
    desk_registry(pop.params.networks).save(directory / "registry.json")
    (directory / "tree.json").write_text(json.dumps(desk_tree(pop.params.networks), indent=2) + "\n")
    (directory / "population.json").write_text(
        json.dumps({"seed": pop.seed, "params": pop.params.to_dict()}, indent=2) + "\n"
    )
    return directory


def load_latent(path: str | Path) -> dict[str, float]:
    """A ``write_dataset`` latent file: a user and a float per line; a damaged
    line raises ``ValueError`` naming the file."""
    out = {}
    with lineio.naming(path):
        for line in lineio.read_lines(path):
            user, value = line.split("\t")
            out[user] = float(value)
    return out


def load_campaign_population(path: str | Path) -> CampaignPopulation:
    """``draw_campaign_population`` of a ``write_dataset`` population.json; a
    damaged file raises ``ValueError`` naming it."""
    with lineio.naming(path):
        data = json.loads(Path(path).read_text())
        try:
            return draw_campaign_population(PopulationParams.from_dict(data["params"]), data["seed"])
        except (KeyError, TypeError) as exc:  # a key missing, unknown or of the wrong type
            raise ValueError(f"not a population descriptor: {exc!r}") from None


# -- perk-campaign spread simulation ---------------------------------------

@dataclass(frozen=True)
class CampaignParams:
    score_range: tuple[float, float] = (10.0, 80.0)
    bin_width: float = 10.0
    post_prob: float = 0.25
    logistic_slope: float = 1.5
    logistic_center: float | None = None  # defaults to the latent log-mean


@dataclass(frozen=True)
class CampaignBin:
    lo: float
    hi: float
    targeted: int
    posts: int
    mean_reactions: float | None  # None when the bin holds no posts

    @property
    def log_mean(self) -> float | None:
        if self.mean_reactions is None or self.mean_reactions <= 0:
            return None
        return math.log(self.mean_reactions)


@dataclass
class CampaignResult:
    records: tuple[tuple[str, float, bool, int], ...]  # (user, score, posted, reactions)
    bins: tuple[CampaignBin, ...]
    monotone_fraction: float
    slope: float
    p_one_sided: float

    def report_lines(self) -> list[str]:
        lines = [
            "campaign\t"
            f"targeted={len(self.records)}"
            f"\tposts={sum(1 for r in self.records if r[2])}"
            f"\treactions={sum(r[3] for r in self.records)}"
            f"\tmonotone_fraction={self.monotone_fraction:.4f}"
            f"\tslope={self.slope:.6f}\tp_one_sided={self.p_one_sided:.3e}"
        ]
        for b in self.bins:
            mean = "absent" if b.mean_reactions is None else f"{b.mean_reactions:.4f}"
            log_mean = "absent" if b.log_mean is None else f"{b.log_mean:.4f}"
            lines.append(
                f"bin\tlo={b.lo:g}\thi={b.hi:g}\ttargeted={b.targeted}"
                f"\tposts={b.posts}\tmean_reactions={mean}\tlog_mean={log_mean}"
            )
        return lines


def run_campaign(
    pop: SyntheticPopulation | CampaignPopulation,
    scores: ScoreSnapshot | Mapping[str, float],
    params: CampaignParams,
    seed: int,
) -> CampaignResult:
    """Target scored users with a perk and count simulated audience reactions.

    Each audience member of a posting user reacts independently with a
    logistic-in-log-latent probability, so mean reactions grow roughly
    exponentially with latent influence.
    """
    score_map = scores.prior_scores() if isinstance(scores, ScoreSnapshot) else dict(scores)
    lo, hi = params.score_range
    center = params.logistic_center
    if center is None:
        center = float(np.mean([math.log(v) for v in pop.latent.values()]))

    records = []
    for idx, (u, audience) in enumerate(zip(pop.users, pop.audience_sizes)):
        score = score_map.get(u)
        if score is None or not lo <= score <= hi:
            continue
        rng = np.random.default_rng((seed, idx))  # per-user stream: order-independent
        posted = bool(rng.random() < params.post_prob)
        reactions = 0
        if posted:
            p = 1.0 / (1.0 + math.exp(-params.logistic_slope * (math.log(pop.latent[u]) - center)))
            reactions = int(rng.binomial(audience, p))
        records.append((u, float(score), posted, reactions))

    bins = []
    edge = lo
    while edge < hi:
        top = min(edge + params.bin_width, hi)
        targeted = [r for r in records if edge <= r[1] < top or (top == hi and r[1] == hi)]
        posts = [r for r in targeted if r[2]]
        mean = float(np.mean([r[3] for r in posts])) if posts else None
        bins.append(CampaignBin(lo=edge, hi=top, targeted=len(targeted), posts=len(posts), mean_reactions=mean))
        edge = top

    present = [b for b in bins if b.mean_reactions is not None]
    adjacent = list(zip(present, present[1:]))
    if adjacent:
        good = sum(1 for a, b in adjacent if b.mean_reactions >= a.mean_reactions)
        monotone_fraction = good / len(adjacent)
    else:
        monotone_fraction = 1.0

    xs = [(b.lo + b.hi) / 2 for b in present if b.log_mean is not None]
    ys = [b.log_mean for b in present if b.log_mean is not None]
    if len(xs) >= 3 and len(set(ys)) > 1:
        # least squares on the bin midpoints, t-tested against a zero slope
        ssxm, ssxym, _, ssym = np.cov(xs, ys, bias=1).flat
        slope = float(ssxym / ssxm)
        r = min(max(ssxym / math.sqrt(ssxm * ssym), -1.0), 1.0)
        df = len(xs) - 2
        t = abs(r) * math.sqrt(df / ((1.0 - r + 1e-20) * (1.0 + r + 1e-20)))
        tail = student_t_tail(t, df)
        p_one_sided = tail if slope > 0 else 1.0 - tail
    else:
        # too few bins, or all at one level: no evidence of an upward trend
        slope, p_one_sided = 0.0, 1.0

    return CampaignResult(
        records=tuple(records),
        bins=tuple(bins),
        monotone_fraction=monotone_fraction,
        slope=slope,
        p_one_sided=p_one_sided,
    )


def student_t_tail(t: float, df: int) -> float:
    """P(T > t) = 0.5 * I_x(df/2, 1/2) at x = df / (df + t^2), for t >= 0;
    1 - x is formed directly so that small t keeps its precision."""
    x, y = df / (df + t * t), t * t / (df + t * t)
    if y == 0.0:
        return 0.5
    if x < (df + 2.0) / (df + 5.0):  # x < (a + 1) / (a + b + 2) for a = df/2, b = 1/2
        return 0.5 * _incomplete_beta(df / 2.0, 0.5, x, y)
    return 0.5 - 0.5 * _incomplete_beta(0.5, df / 2.0, y, x)


def _incomplete_beta(a: float, b: float, x: float, y: float) -> float:
    """Regularized I_x(a, b) for y = 1 - x and x < (a + 1) / (a + b + 2),
    where its continued fraction converges fast (modified Lentz)."""
    log_front = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log(y)
    f, c, d = 2.0, 2.0, 1.0  # after the fraction's first term, whose numerator is 1
    for i in range(1, 300):
        m = i // 2
        if i % 2:
            num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        else:
            num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        d = 1.0 / (1.0 + num * d)
        c = 1.0 + num / c
        f *= c * d
        if abs(1.0 - c * d) < 1e-16:
            break
    return math.exp(log_front) / a * (f - 1.0)
