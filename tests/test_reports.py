"""Canonical JSON: the bytes every report and golden file is made of."""

import json
import warnings
from fractions import Fraction

import numpy as np
import pytest
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


# float64 arrays whose elements repeat: the bit patterns of a small pool, so a
# writer that spells each distinct value once is checked on -0.0 beside 0.0,
# two NaN payloads, both infinities and the smallest subnormal
_POOL_BITS = np.array(
    [0.0, -0.0, np.inf, -np.inf, 5e-324, 1e16, 1e-5], dtype=np.float64
).view(np.int64).tolist() + [0x7FF8000000000000, 0x7FF8000000000001]


@st.composite
def _repeating_arrays(draw):
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=6))
    size = int(np.prod(shape))
    picks = draw(st.lists(st.sampled_from(_POOL_BITS), min_size=size, max_size=size))
    return np.array(picks, dtype=np.int64).view(np.float64).reshape(shape)


@settings(max_examples=300, deadline=None)
@given(_repeating_arrays(), st.integers(0, 2))
def test_repeating_float64_arrays_match_reference(a, depth):
    obj = a
    for _ in range(depth):
        obj = {"x": [obj, 1]}
    assert canonical_json(obj) == reference_json(obj)


def _grid():
    a = np.array([0.1, -0.0, 0.0, np.nan, np.inf, 0.1, -np.inf, 2.5, 0.0, 1e300, 0.1, 7.0])
    return a.reshape(3, 4)


def _matrix():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PendingDeprecationWarning)
        return np.matrix(_grid())


@pytest.mark.parametrize(
    "a",
    [
        pytest.param(_grid().T, id="transposed"),
        pytest.param(_grid()[::2, ::-3], id="strided"),
        pytest.param(np.asfortranarray(_grid()), id="fortran-order"),
        pytest.param(_grid().astype(">f8"), id="big-endian"),
        pytest.param(np.zeros((2, 0)), id="shape-2x0"),
        pytest.param(np.zeros((0, 3)), id="shape-0x3"),
        pytest.param(np.array(-0.0), id="0-d"),
        pytest.param(np.array(np.nan), id="0-d-nan"),
        pytest.param(_matrix(), id="matrix"),
        pytest.param(np.arange(6.0).reshape(1, 2, 3)[:, :, 1:], id="3-d-view"),
        pytest.param(np.full(5, 1e-5), id="one-value"),
    ],
)
def test_float64_array_layouts_match_reference(a):
    for obj in (a, {"k": a}, [[a]]):
        assert canonical_json(obj) == reference_json(obj)
