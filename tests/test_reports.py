"""Canonical JSON: the bytes every report and golden file is made of."""

import json
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from shiftlab.reports import canonical_json

_REFERENCE_LEAVES = frozenset((float, int, str, bool, type(None)))


def _plain_reference(obj):
    """The coercions canonical_json applies, as a separate pass to JSON types."""
    if type(obj) in _REFERENCE_LEAVES:
        return obj
    if isinstance(obj, dict):
        return {str(k): _plain_reference(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain_reference(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _plain_reference(obj.tolist())
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, Fraction):
        return str(obj)
    return obj


def reference_json(obj) -> str:
    plain = _plain_reference(obj)
    return json.dumps(plain, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


_floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, float("nan"), float("inf"), -float("inf"), 1e-5, 1e16, 5e-324]
)
_arrays = hnp.arrays(
    dtype=st.sampled_from([np.float64, np.float32, np.int64, np.complex128, np.bool_]),
    shape=hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3),
)
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    _floats,
    st.text(),  # non-ASCII and control characters included
    _floats.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.complex_numbers(allow_nan=True, allow_infinity=True),
    st.complex_numbers().map(np.complex128),
    st.fractions(),
    st.lists(_floats),  # all-float lists
    _arrays,
)
_values = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text() | st.integers(), inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(_values)
def test_canonical_json_matches_stdlib_reference(obj):
    assert canonical_json(obj) == reference_json(obj)


def test_canonical_json_layout():
    obj = {"b": [], "a": {}, 2: [1.5, -0.0, float("nan")], "é": (1, "ü", None, True)}
    assert canonical_json(obj) == (
        '{\n "2": [\n  1.5,\n  -0.0,\n  NaN\n ],\n "a": {},\n "b": [],\n'
        ' "\\u00e9": [\n  1,\n  "\\u00fc",\n  null,\n  true\n ]\n}\n'
    )
    assert canonical_json(obj) == reference_json(obj)


def test_keys_equal_as_strings_keep_the_last_value():
    obj = {1: "int", "1": "str", (2.5): [np.float64(2.5)], "2.5": None}
    assert canonical_json(obj) == '{\n "1": "str",\n "2.5": null\n}\n'
    assert canonical_json(obj) == reference_json(obj)
