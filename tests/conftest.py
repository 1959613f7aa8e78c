import sys
from operator import itemgetter
from pathlib import Path

import hypothesis
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for oracles.py

from influence_engine.events import EventColumns
from influence_engine.registry import FeatureRegistry, NetworkSpec

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=60, derandomize=True
)
hypothesis.settings.load_profile("default")

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


def columns_of(events) -> EventColumns:
    """A list of events as the aligned columns that the features stage reads."""
    return EventColumns._make(list(map(itemgetter(i), events)) for i in range(len(EventColumns._fields)))


def edge_columns_of(edges) -> tuple[list[str], ...]:
    """A list of edges as the aligned columns that ``lineio.read_edges`` returns."""
    return tuple(list(map(itemgetter(i), edges)) for i in range(3))


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
