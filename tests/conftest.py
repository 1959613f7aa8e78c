import sys
from operator import itemgetter
from pathlib import Path

import hypothesis
import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for oracles.py

from influence_engine.events import CodedColumn, EventColumns
from influence_engine.features import RawFeatureTable
from influence_engine.registry import FeatureRegistry, NetworkSpec

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=60, derandomize=True
)
hypothesis.settings.load_profile("default")

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


def coded(values) -> CodedColumn:
    """A column of strings coded as the strict readers code it: each distinct
    value once, in the order of its first line."""
    index = {}
    codes = [index.setdefault(value, len(index)) for value in values]
    return CodedColumn(list(index), np.array(codes, dtype=np.intc))


def columns_of(events) -> EventColumns:
    """A list of events as the coded columns that the features stage reads."""
    *strings, timestamp = (list(map(itemgetter(i), events)) for i in range(len(EventColumns._fields)))
    return EventColumns(*map(coded, strings), timestamp)


def edge_columns_of(edges) -> tuple[CodedColumn, ...]:
    """A list of edges as the coded columns that ``lineio.read_edges`` returns:
    the two ends code into one node list, which both columns share."""
    nodes = coded([edge[i] for i in (0, 1) for edge in edges])  # the sources, then the targets
    src, dst = np.split(nodes.codes, 2)
    return CodedColumn(nodes.values, src), CodedColumn(nodes.values, dst), coded([edge[2] for edge in edges])


def table_of(cells) -> RawFeatureTable:
    """A dict of (user, key) -> value as a table of one cell per entry, its
    users and keys coded in the order of their first cell."""
    users, keys = {}, {}
    user = np.array([users.setdefault(u, len(users)) for u, _ in cells], dtype=np.int64)
    key = np.array([keys.setdefault(k, len(keys)) for _, k in cells], dtype=np.int64)
    return RawFeatureTable(list(users), list(keys), user, key, np.array(list(cells.values()), dtype=np.float64))


def make_small_registry() -> FeatureRegistry:
    """Two dynamic networks plus a graph-only one, tiny dimension sets."""
    return FeatureRegistry(
        networks={
            "tw": NetworkSpec(
                name="tw",
                content_types=("message", "photo"),
                actions=("comment", "like", "reshare"),
                longlasting_attrs=("followers",),
            ),
            "fb": NetworkSpec(
                name="fb",
                content_types=("message", "photo"),
                actions=("comment", "like"),
                longlasting_attrs=("fans", "education_level"),
            ),
            "wk": NetworkSpec(
                name="wk",
                longlasting_attrs=("pagerank", "inlink_outlink_ratio", "inlinks"),
                dynamic=False,
            ),
        },
        ordinal_maps={"education_level": ("HS", "BS", "MS", "PhD")},
    )


@pytest.fixture
def small_registry() -> FeatureRegistry:
    return make_small_registry()
