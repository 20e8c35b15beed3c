import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefixcodes import UNREACHABLE, InvalidInput, InvalidRange, RMQIndex


def test_basic_argmin():
    idx = RMQIndex([3, 1, 2])
    assert idx.query(0, 2) == 1


def test_single_element():
    idx = RMQIndex([5])
    assert idx.query(0, 0) == 0


def test_ties_take_smallest_index():
    idx = RMQIndex([2, 2, 2])
    assert idx.query(0, 2) == 0
    assert idx.query(1, 2) == 1


def test_windows():
    idx = RMQIndex([4, 3, 5, 1])
    assert idx.query(0, 2) == 1
    assert idx.query(0, 3) == 3


def test_unreachable_sorts_last():
    idx = RMQIndex([UNREACHABLE, 7])
    assert idx.query(0, 1) == 1


def test_empty_rejected():
    with pytest.raises(InvalidInput):
        RMQIndex([])


@pytest.mark.parametrize("i,j", [(-1, 0), (0, 3), (2, 1)])
def test_bad_ranges(i, j):
    idx = RMQIndex([1, 2, 3])
    with pytest.raises(InvalidRange):
        idx.query(i, j)


def test_identity_queries():
    vals = [9, 4, 4, 7, 1]
    idx = RMQIndex(vals)
    for i in range(len(vals)):
        assert idx.query(i, i) == i


def _scan(vals, i, j):
    best = i
    for k in range(i, j + 1):
        if vals[k] < vals[best]:
            best = k
    return best


def test_matches_linear_scan_on_long_random_arrays():
    rng = random.Random(1234)
    for _ in range(5):
        n = rng.randint(150, 200)
        vals = [rng.randint(0, 30) for _ in range(n)]
        for k in rng.sample(range(n), 10):
            vals[k] = UNREACHABLE
        idx = RMQIndex(vals)
        for i in range(n):
            for j in range(i, n):
                assert idx.query(i, j) == _scan(vals, i, j)


@given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=40), st.data())
@settings(max_examples=80, deadline=None)
def test_random_windows(vals, data):
    i = data.draw(st.integers(0, len(vals) - 1))
    j = data.draw(st.integers(i, len(vals) - 1))
    assert RMQIndex(vals).query(i, j) == _scan(vals, i, j)


def test_index_owns_a_copy():
    vals = [5, 1, 7]
    idx = RMQIndex(vals)
    vals[1] = 100
    assert idx.query(0, 2) == 1
