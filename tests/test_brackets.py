"""Exact values and brackets that hold at any n, checked far past the
exhaustive oracles' reach.  Each relation rests on a greedy Huffman merge,
which shares no DP code: ``H_r`` is ``huffman_greedy(w, r)`` and ``W0`` the
total weight."""

import heapq

import pytest

from prefixcodes import bench, huffman_greedy, normalize_weights
from prefixcodes.one_ended import _incumbent
from prefixcodes.problems import Params, solve

SIZES = [40, 120, 300]
DISTRIBUTIONS = ["uniform", "zipf", "geometric"]
SHAPES = [(n, dist) for n in SIZES for dist in DISTRIBUTIONS]
# reserved-g at g = distinct lengths takes about 0.7 s a solve at n = 300
SMALL = 120


def _weights(n: int, dist: str):
    return normalize_weights(bench.generate_weights(n, dist, 1))


def _cost(name: str, w, algorithm: str = "batched", **params) -> int:
    return solve(name, w, Params(**params), algorithm=algorithm, want_code=False).dp.cost


def _huffman_lengths(weights, r: int) -> list[int]:
    """The codeword length of each weight in an r-ary Huffman code: a greedy
    merge of r subtrees at a time, zero-weight pads first, that deepens every
    weight of the merged subtrees by one."""
    n = len(weights)
    if n == 1:
        return [1]
    pad = (r - 1 - (n - 1) % (r - 1)) % (r - 1)
    heap = [(x, k, [k]) for k, x in enumerate(weights)] + [(0, n + j, []) for j in range(pad)]
    heapq.heapify(heap)
    depth = [0] * n
    count = len(heap)
    while len(heap) > 1:
        group = [heapq.heappop(heap) for _ in range(r)]
        members = [k for _, _, ks in group for k in ks]
        for k in members:
            depth[k] += 1
        heapq.heappush(heap, (sum(x for x, _, _ in group), count, members))
        count += 1
    return depth


def _ceil_log(r: int, n: int) -> int:
    k = 0
    while r**k < n:
        k += 1
    return k


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("n,dist", SHAPES)
def test_huffman_lengths_cost_the_greedy_merge(n, dist, r):
    w = _weights(n, dist)
    lengths = _huffman_lengths(w.weights, r)
    assert sum(x * k for x, k in zip(w.weights, lengths)) == huffman_greedy(w, r)
    depth = max(lengths)
    assert sum(r ** (depth - k) for k in lengths) <= r**depth  # Kraft


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("n,dist", SHAPES)
def test_constant_arity_costs_the_greedy_merge(n, dist, r):
    w = _weights(n, dist)
    expected = huffman_greedy(w, r)
    for algorithm in ("naive", "batched"):
        assert _cost("huffman", w, algorithm, radix=r) == expected
        assert _cost("mixed-radix", w, algorithm, arities=(r,)) == expected


@pytest.mark.parametrize("n,dist", SHAPES)
def test_one_ended_lies_within_one_edge_of_huffman(n, dist):
    # appending a 1 to every binary Huffman word that ends in 0 gives a
    # one-ended code; every one-ended code is a prefix-free binary code
    w = _weights(n, dist)
    h2 = huffman_greedy(w, 2)
    cost = _cost("one-ended", w)
    assert h2 <= cost <= h2 + w.suffix[0]
    assert cost <= _incumbent(w)


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("n,dist", SHAPES)
def test_reserved_g_envelope(n, dist, r):
    w = _weights(n, dist)
    one = _cost("reserved-g", w, radix=r, g=1)
    assert one == _ceil_log(r, n) * w.suffix[0]
    assert _cost("reserved-g", w, radix=r, g=2) <= one
    if n <= SMALL:
        g = len(set(_huffman_lengths(w.weights, r)))
        assert _cost("reserved-g", w, radix=r, g=g) == huffman_greedy(w, r)


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("n,dist", SHAPES)
def test_reserved_given_up_to_the_huffman_depth_is_huffman(n, dist, r):
    w = _weights(n, dist)
    depth = max(_huffman_lengths(w.weights, r))
    assert _cost("reserved-given", w, radix=r, lengths=tuple(range(1, depth + 1))) \
        == huffman_greedy(w, r)


@pytest.mark.parametrize("arities", [(4, 2, 3), (3, 2), (2, 5)])
@pytest.mark.parametrize("n,dist", SHAPES)
def test_mixed_radix_costs_at_least_the_widest_huffman(n, dist, arities):
    # a mixed-radix tree is an r-ary tree for r = max(arities) with some
    # children never used, and r-ary Huffman is optimal over those
    w = _weights(n, dist)
    floor = huffman_greedy(w, max(arities))
    for algorithm in ("naive", "batched") if n <= SMALL else ("batched",):
        assert _cost("mixed-radix", w, algorithm, arities=arities) >= floor
