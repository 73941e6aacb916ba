"""Tests for repro.utils.arrays: sorted_unique is np.unique for integers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.utils.arrays import sorted_unique


def _assert_matches_np_unique(arr):
    got = sorted_unique(arr)
    want = np.unique(arr)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_matches_np_unique(dtype, data):
    arr = data.draw(
        hnp.arrays(
            dtype,
            st.integers(0, 300),
            elements=st.integers(-50, 50) | st.integers(-(2**31), 2**31 - 1),
        )
    )
    before = arr.copy()
    _assert_matches_np_unique(arr)
    assert np.array_equal(arr, before)


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize(
    "values",
    [
        [],
        [7],
        [3, 3, 3, 3],
        [-5, -1, -5, 0, -(2**31)],
        [0, 1, 2, 2, 5, 9],
        [9, 5, 2, 2, 1, 0],
    ],
    ids=["empty", "single", "all-equal", "negative", "sorted", "reversed"],
)
def test_edge_cases(dtype, values):
    arr = np.array(values, dtype=dtype)
    before = arr.copy()
    _assert_matches_np_unique(arr)
    assert np.array_equal(arr, before)


def test_sorted_input_is_not_aliased():
    arr = np.arange(5, dtype=np.int64)
    out = sorted_unique(arr)
    out[0] = 99
    assert arr[0] == 0


def test_flattens_like_np_unique():
    arr = np.array([[3, 1], [1, 2]], dtype=np.int64)
    _assert_matches_np_unique(arr)
    _assert_matches_np_unique([4, 4, 2])
