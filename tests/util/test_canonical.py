"""The canonical walker: exact-type dispatch emits the reference text.

:func:`repro.util.canonical.canonical_form` dispatches leaves, tuples
and lists by exact type and caches each dataclass's field names per
class.  The text it produces is the hash input of every job key and
candidate digest, so it must equal, byte for byte, the text of the
straightforward walker below (the implementation it replaced) over
every kind of value the walker handles.
"""

import collections
import dataclasses
import enum
import json
from types import MappingProxyType
from typing import Any, ClassVar, Mapping

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.util.canonical import canonical_text


# ------------------------------------------------------------ reference
def reference_form(value: Any) -> Any:
    """The isinstance-chain walker, kept as the oracle."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        form: dict[str, Any] = {"__class__": type(value).__name__}
        for field in dataclasses.fields(value):
            form[field.name] = reference_form(getattr(value, field.name))
        return form
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, (frozenset, set)):
        return sorted(
            (reference_form(item) for item in value),
            key=lambda form: json.dumps(form, sort_keys=True),
        )
    if isinstance(value, Mapping):
        return {
            reference_text(key): reference_form(item)
            for key, item in value.items()
        }
    if isinstance(value, (tuple, list)):
        return [reference_form(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def reference_text(value: Any) -> str:
    return json.dumps(
        reference_form(value), sort_keys=True, separators=(",", ":")
    )


# --------------------------------------------------------------- values
class Color(enum.Enum):
    RED = 1
    BLUE = "blue"


class Level(str, enum.Enum):
    LOW = "low"
    HIGH = "high"


class Rank(enum.IntEnum):
    ONE = 1
    TWO = 2


class Label(str):
    """A str subclass: not an exact leaf."""


Point = collections.namedtuple("Point", "x y")


@dataclasses.dataclass(frozen=True)
class Pair:
    left: Any
    right: Any
    kind: ClassVar[str] = "pair"  # not a field: never walked


@dataclasses.dataclass
class Box:
    items: Any
    label: str = "box"


@dataclasses.dataclass(frozen=True)
class Tagged(Pair):
    tag: Any = None


LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=4),
    st.sampled_from(list(Color) + list(Level) + list(Rank)),
    st.builds(Label, st.text(max_size=3)),
    st.builds(np.float64, st.floats(-1e3, 1e3)),
    st.builds(np.int64, st.integers(-100, 100)),
)

HASHABLE = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.tuples(inner, inner),
        st.frozensets(inner, max_size=3),
        st.builds(Pair, inner, inner),
        st.builds(Point, inner, inner),
    ),
    max_leaves=6,
)

VALUES = st.recursive(
    HASHABLE,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.sets(HASHABLE, max_size=3),
        st.dictionaries(HASHABLE, inner, max_size=3),
        st.dictionaries(HASHABLE, inner, max_size=3).map(MappingProxyType),
        st.builds(Pair, inner, inner),
        st.builds(Box, inner, st.text(max_size=3)),
        st.builds(Tagged, inner, inner, inner),
    ),
    max_leaves=12,
)


class TestMatchesReferenceWalker:
    @settings(max_examples=150, deadline=None)
    @given(VALUES)
    def test_text_is_byte_identical(self, value):
        assert canonical_text(value) == reference_text(value)

    def test_classes_and_mixins_take_the_general_path(self):
        for value in (Pair, Level.LOW, Rank.TWO, Label("x"), Point(1, 2),
                      np.float64(0.5), np.int64(3), object):
            assert canonical_text(value) == reference_text(value)

    def test_chip_config_text_is_unchanged(self, chips_a):
        config = chips_a.proposed.config
        assert canonical_text(config) == reference_text(config)
