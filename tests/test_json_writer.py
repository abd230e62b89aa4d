"""The CLI's JSON writer against `json.dumps(value, indent=2)`, the output
it must reproduce byte for byte."""
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permdom.cli import _json_text

# Every code point but the surrogates: quotes, backslashes, control
# characters, non-ASCII and astral characters included.
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
SCALARS = st.one_of(
    TEXT,
    st.integers(),
    st.integers(-(2 ** 200), 2 ** 200),  # beyond 2**64 both ways
    st.booleans(),
    st.none(),
)
INTS = st.one_of(st.integers(), st.integers(-(2 ** 200), 2 ** 200))
# The writer's edge-list shape: lists of exactly two ints.
PAIR = st.lists(INTS, min_size=2, max_size=2)
NEAR_PAIRS = st.one_of(
    st.lists(st.one_of(INTS, st.booleans(), st.none()), min_size=2,
             max_size=2),  # a bool or None in a pair
    st.lists(INTS, max_size=3).filter(lambda v: len(v) != 2),  # 0, 1, 3 ints
)
PAYLOADS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(st.one_of(st.integers(), st.booleans(), st.none()),
                 max_size=6),  # ints mixed with bool and None
        st.lists(PAIR, min_size=1, max_size=6),
        st.lists(st.one_of(PAIR, NEAR_PAIRS), min_size=1, max_size=6),
        # Tuples, which `json` writes as arrays: `analyze`'s edge pairs
        # and degrees are tuples.
        st.lists(st.one_of(PAIR, NEAR_PAIRS).map(tuple), max_size=6),
        st.lists(st.one_of(INTS, inner), max_size=5).map(tuple),
        st.dictionaries(TEXT, inner, max_size=5),
    ),
    max_leaves=30,
)
# Floats and dicts with non-str keys, which the writer hands to
# `json.dumps`, and tuples among them.
OTHER = st.recursive(
    st.one_of(SCALARS, st.floats()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.tuples(inner, inner),
        st.dictionaries(st.one_of(TEXT, st.integers(), st.booleans()), inner,
                        max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None)
@given(PAYLOADS)
def test_writer_matches_json_dumps(value):
    assert _json_text(value) == json.dumps(value, indent=2)


@settings(max_examples=50, deadline=None)
@given(st.dictionaries(TEXT, OTHER, max_size=4))
def test_writer_falls_back_to_json_dumps_nested(value):
    assert _json_text({"outer": [value]}) == json.dumps(
        {"outer": [value]}, indent=2)


@pytest.mark.parametrize("value", [
    "", '"', "\\", 'a"b\\c', "\x00\x1f\x7f", "\n\r\t\b\f", "é", " ",
    "\U0001f600", [], {}, [[]], {"": {}}, [True, 1, False, 0, None],
    [-1, 2 ** 64, -(2 ** 64) - 1], {"a": [1, [2, [3, {}]]]},
    (1, 2), {1: "int key"}, {None: 0, True: 1}, [1.5, float("inf")],
    [[1, 2], [3, 4]], {"edges": [[-1, 2 ** 64], [0, -(2 ** 70)]]},
    [[1, 2], [True, 3]], [[1, 2], [3, None]], [[1, 2], []], [[1, 2], [3]],
    [[1, 2], [3, 4, 5]], [[1, 2], (3, 4)], [[1, 2], [3, 4.0]], [[[1, 2]]],
    (), (1,), (1, 2, 3), ((1, 2), (3, 4)), [(1, 2), (-3, 2 ** 64)],
    ((1, 2), [3, 4]), ((1, True),), [(1, 2), (3,)], ((), [1]),
    {"t": ("a", None, (1, [2]))},
])
def test_writer_edge_cases(value):
    assert _json_text(value) == json.dumps(value, indent=2)
