"""The report writer against the json module.

`json_text(x)` must be the text of `json.dumps(to_jsonable(x),
sort_keys=True, indent=2)` for every value a report may hold, and a mutant
of the writer must be caught by that identity.
"""
import json
from collections import Counter, OrderedDict
from collections.abc import Mapping
from enum import IntEnum
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from chainlab import report
from chainlab.model import BalancedString, BitString
from chainlab.report import json_text, to_jsonable

from util import mutate


class Colour(IntEnum):
    RED = 1
    BLUE = 2


class Label(str):
    pass


class Shout(str):
    def __str__(self):
        return self.upper()


class Count(int):
    pass


class Frozen(Mapping):
    """A read-only mapping that is not a dict."""

    def __init__(self, items):
        self._items = dict(items)

    def __getitem__(self, key):
        return self._items[key]

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)


def reference(value) -> str:
    return json.dumps(to_jsonable(value), sort_keys=True, indent=2)


floats = st.floats() | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 0.1 + 0.2, 1e300])
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    floats,
    st.fractions(),
    st.text(),  # non-ASCII included
    st.text(max_size=4).map(Label),
    st.text(max_size=4).map(Shout),
    st.integers(-5, 5).map(Count),
    st.sampled_from(Colour),
    st.lists(st.integers(0, 1), max_size=6).map(BitString),
    st.just(BalancedString("0110")),
    floats.map(np.float64),
    st.integers(-9, 9).map(np.int64),
    st.booleans().map(np.bool_),
    st.complex_numbers(allow_nan=False, max_magnitude=10),  # str() fallback
)
# keys that collide after str(): 1 and "1", True and "True", None and "None", ...
keys = st.one_of(
    st.sampled_from([1, "1", True, "True", None, "None", Colour.BLUE, "2", 2.5, "2.5", Shout("a"), "A", "a"]),
    st.text(max_size=3),
    st.integers(-3, 3),
    st.fractions(max_denominator=4),
)


def containers(children):
    dicts = st.dictionaries(keys, children, max_size=5)
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        dicts,
        dicts.map(MappingProxyType),
        dicts.map(OrderedDict),
        dicts.map(Frozen),
        st.dictionaries(keys, st.integers(), max_size=5).map(Counter),
    )


values = st.recursive(leaves, containers, max_leaves=30)


@given(values)
def test_writer_is_json_dumps_of_to_jsonable(value):
    assert json_text(value) == reference(value)


def test_writer_edge_values():
    value = {
        "empty": [[], {}, (), MappingProxyType({})],
        1: "first", "1": "second",  # "1" after str(): the last one wins
        "x": [float("nan"), float("inf"), -float("inf"), -0.0, 1 / 3, "héllo ✓"],
    }
    assert json_text(value) == reference(value)
    assert json.loads(json_text(value))["1"] == "second"
    assert json_text([]) == "[]" and json_text({}) == "{}"


def _mutate_writer(monkeypatch, name, old, new):
    mutate(monkeypatch, report, name, old, new)
    # the leaf table holds the float writer itself, not its name
    monkeypatch.setitem(report._LEAF_TEXT, float, report._float_text)


@pytest.mark.parametrize("name, old, new", [
    ("_text", "_sorted_items(value)", "{str(k): v for k, v in value.items()}.items()"),
    ("_float_text", "value = to_jsonable(value)", "pass"),
    ("_text", 'return "[]"', 'return "[\\n]"'),
], ids=["keys-unsorted", "floats-not-rounded", "empty-list-broken"])
def test_writer_identity_sees_a_mutant(monkeypatch, name, old, new):
    _mutate_writer(monkeypatch, name, old, new)
    # find raises NoSuchExample if the mutant meets the identity on every value
    # it tries; the first value that breaks it is enough, so it is not shrunk
    find(values, lambda value: json_text(value) != reference(value),
         settings=settings(phases=[Phase.generate]))
