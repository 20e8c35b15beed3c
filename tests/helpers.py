"""Shared generators and comparison helpers for the test suite."""

import random

from prefixcodes import LevelSpec, normalize_weights


def random_weights(rng: random.Random, n: int, lo: int = 0, hi: int = 50) -> list[int]:
    return [rng.randint(lo, hi) for _ in range(n)]


def random_gmr_instance(rng: random.Random, max_n: int = 8, max_level: int = 5,
                        arities=(2, 4), edges=(1, 3), lo: int = 0, hi: int = 50):
    """A random (WeightSeq, LevelSpec, max_level) triple."""
    n = rng.randint(1, max_n)
    ml = rng.randint(1, max_level)
    levels = [(rng.randint(*arities), rng.randint(*edges)) for _ in range(ml)]
    w = normalize_weights(random_weights(rng, n, lo, hi))
    return w, LevelSpec(levels), ml


def tables_match(res_a, res_b) -> bool:
    """Bit-equality of all finite entries."""
    if len(res_a.tables) != len(res_b.tables):
        return False
    for ta, tb in zip(res_a.tables, res_b.tables):
        if ta.costs != tb.costs:
            return False
    return True


def assert_same_solution(res_a, res_b):
    assert res_a.cost == res_b.cost
    assert (res_a.level, res_a.leaves_full) == (res_b.level, res_b.leaves_full)
    assert res_a.levels_filled == res_b.levels_filled
    assert res_a.expansions == res_b.expansions
    assert res_a.leaf_sequence == res_b.leaf_sequence
    assert tables_match(res_a, res_b)
