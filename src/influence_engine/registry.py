"""Run-time registry of networks, dimensions, and the frozen feature space.

The registry is the single source of truth for which feature keys exist for
each network; every feature vector, weight vector, and model file is aligned
to the key ordering frozen here. A feature key is its canonical string, and
this module is the only one that builds it:

  dyn/<network>/<content>/<action>/<cohort>/<window>d
  ll/<network>/<attr>
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .events import WINDOW_DAYS

DEFAULT_COHORTS = ("all", "higher", "peers")
DEFAULT_PEER_BAND = 5.0

# the long-lasting attributes that the features stage derives from the edges
GRAPH_ATTRS = frozenset({"pagerank", "inlinks", "inlink_outlink_ratio"})

# a key is its canonical string: a name holding one of these could make two
# keys alike or break a tab-separated line
_KEY_BREAKERS = "/\t\n"


def dynamic_key(network: str, content: str, action: str, cohort: str, window: int) -> str:
    return f"dyn/{network}/{content}/{action}/{cohort}/{window}d"


def longlasting_key(network: str, attr: str) -> str:
    return f"ll/{network}/{attr}"


@dataclass(frozen=True)
class NetworkSpec:
    name: str
    content_types: tuple[str, ...] = ()
    actions: tuple[str, ...] = ()
    longlasting_attrs: tuple[str, ...] = ()
    dynamic: bool = True


@dataclass(frozen=True)
class FeatureRegistry:
    networks: dict[str, NetworkSpec]
    cohorts: tuple[str, ...] = DEFAULT_COHORTS
    windows: tuple[int, ...] = WINDOW_DAYS
    ordinal_maps: dict[str, tuple[str, ...]] = field(default_factory=dict)
    peer_band: float = DEFAULT_PEER_BAND

    def __post_init__(self):
        names = [("cohort", c) for c in self.cohorts]
        for name, spec in self.networks.items():
            if name != name.lower():
                raise ValueError(f"network names are lowercase: {name!r}")
            if name != spec.name:
                raise ValueError(f"network key {name!r} != spec name {spec.name!r}")
            names.append(("network", name))
            names += [("content type", c) for c in spec.content_types]
            names += [("action", a) for a in spec.actions]
            names += [("long-lasting attribute", a) for a in spec.longlasting_attrs]
        for what, value in names:
            if any(ch in value for ch in _KEY_BREAKERS):
                raise ValueError(f"{what} name {value!r} holds '/', a tab or a newline")
        for w in self.windows:
            if w not in WINDOW_DAYS:
                raise ValueError(f"window {w} not in supported set {WINDOW_DAYS}")
        if not (math.isfinite(self.peer_band) and self.peer_band > 0):
            raise ValueError(f"peer_band must be finite and above 0, not {self.peer_band!r}")

    # -- feature space -----------------------------------------------------

    def dynamic_keys(self, network: str) -> list[str]:
        spec = self.networks[network]
        if not spec.dynamic:
            return []
        return sorted(
            dynamic_key(network, c, a, coh, w)
            for c in spec.content_types
            for a in spec.actions
            for coh in self.cohorts
            for w in self.windows
        )

    def keys_for(self, network: str) -> tuple[str, ...]:
        """Frozen total ordering of the network's feature space."""
        attrs = self.networks[network].longlasting_attrs
        return tuple(sorted(self.dynamic_keys(network) + [longlasting_key(network, a) for a in attrs]))

    def registry_hash(self, network: str) -> str:
        payload = "\n".join(self.keys_for(network))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def scorable_networks(self) -> list[str]:
        """Networks that carry dynamic features (leaf candidates)."""
        return sorted(n for n, s in self.networks.items() if s.dynamic)

    def ordinal_value(self, attr_name: str, category: str) -> float:
        """Ordinal rank of a categorical value: 1-based position, unknown -> 0."""
        ordered = self.ordinal_maps.get(attr_name, ())
        try:
            return float(ordered.index(category) + 1)
        except ValueError:
            return 0.0

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "cohorts": list(self.cohorts),
            "windows": list(self.windows),
            "peer_band": self.peer_band,
            "ordinal_maps": {k: list(v) for k, v in sorted(self.ordinal_maps.items())},
            "networks": {
                name: {
                    "content_types": list(spec.content_types),
                    "actions": list(spec.actions),
                    "longlasting_attrs": list(spec.longlasting_attrs),
                    "dynamic": spec.dynamic,
                }
                for name, spec in sorted(self.networks.items())
            },
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def from_dict(cls, data: dict) -> "FeatureRegistry":
        # a value of the wrong JSON type raises rather than being read another
        # way: a string as a list of characters, "false" as true; a misspelt
        # key raises rather than leaving its setting at the default
        keys = ("networks", "cohorts", "windows", "ordinal_maps", "peer_band")
        json_known("", json_typed("registry", data, dict), keys)
        lowered = [name.lower() for name in json_typed("networks", data["networks"], dict)]
        if len(set(lowered)) < len(lowered):
            clashing = sorted(n for n in data["networks"] if lowered.count(n.lower()) > 1)
            raise ValueError(f"network names differ only in case: {clashing}")
        networks = {}
        for name, nd in data["networks"].items():
            key = f"networks.{name}"
            json_known(f"{key}.", json_typed(key, nd, dict), ("dynamic", *_NETWORK_LISTS))
            networks[name.lower()] = NetworkSpec(
                name=name.lower(),
                dynamic=json_typed(f"{key}.dynamic", nd.get("dynamic", True), bool),
                **{k: json_list(f"{key}.{k}", nd.get(k, [])) for k in _NETWORK_LISTS},
            )
        ordinal_maps = json_typed("ordinal_maps", data.get("ordinal_maps", {}), dict)
        return cls(
            networks=networks,
            cohorts=json_list("cohorts", data.get("cohorts", list(DEFAULT_COHORTS))),
            windows=json_list("windows", data.get("windows", list(WINDOW_DAYS)), int),
            ordinal_maps={k: json_list(f"ordinal_maps.{k}", v) for k, v in ordinal_maps.items()},
            peer_band=float(json_typed("peer_band", data.get("peer_band", DEFAULT_PEER_BAND), int, float)),
        )

    @classmethod
    def load(cls, path: str | Path) -> "FeatureRegistry":
        try:
            return cls.from_dict(json.loads(Path(path).read_text()))
        except TypeError as exc:
            raise TypeError(f"registry {path}: {exc}") from None


# the keys of a network's JSON object that hold a list of names
_NETWORK_LISTS = ("content_types", "actions", "longlasting_attrs")

_JSON_TYPES = {(dict,): "object", (list,): "list", (bool,): "bool", (str,): "string",
               (int,): "integer", (int, float): "number"}


def json_typed(key: str, value, *kinds: type):
    """``value`` if its type is one of ``kinds``, else a ``TypeError`` naming ``key``."""
    # type(), not isinstance(): a bool is an int to isinstance
    if type(value) not in kinds:
        raise TypeError(f"{key} must be a JSON {_JSON_TYPES[kinds]}, not {value!r}")
    return value


def json_list(key: str, values, *kinds: type) -> tuple:
    """A JSON list of values of ``kinds`` (strings by default), as a tuple."""
    return tuple(json_typed(f"{key} entry", v, *kinds or (str,)) for v in json_typed(key, values, list))


def json_known(at: str, data: dict, known) -> None:
    """A ``TypeError`` naming each key of ``data`` outside ``known``; ``at`` is
    the key path of ``data`` with its trailing dot, "" at the top."""
    unknown = sorted(set(data).difference(known))
    if unknown:
        raise TypeError(f"unknown key {', '.join(at + key for key in unknown)}")
