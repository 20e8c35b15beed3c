"""Shared generators and comparison helpers for the test suite."""

import random

from prefixcodes import LevelSpec, normalize_weights


def random_weights(rng: random.Random, n: int, lo: int = 0, hi: int = 50) -> list[int]:
    return [rng.randint(lo, hi) for _ in range(n)]


def random_gmr_instance(rng: random.Random, max_n: int = 8, max_levels: int = 5,
                        arities=(2, 4), edges=(1, 3), lo: int = 0, hi: int = 50):
    """A random (WeightSeq, LevelSpec) pair with 1..max_levels levels."""
    n = rng.randint(1, max_n)
    levels = [(rng.randint(*arities), rng.randint(*edges))
              for _ in range(rng.randint(1, max_levels))]
    w = normalize_weights(random_weights(rng, n, lo, hi))
    return w, LevelSpec(levels)


def telescoped_cost(expansions, w, spec: LevelSpec) -> int:
    """A backtrace's cost as the telescoped sum of c_i * W_{m_{i-1}}."""
    return sum(spec.edge_length(i) * w.tail_weight(expansions[i - 1][0])
               for i in range(1, len(expansions)))


def _valid_signature(m: int, b: int, n: int, arity: int) -> bool:
    if b > 0:
        return 0 <= m and m + b <= n
    return max(n, arity) <= m <= n + arity - 1


def predecessors(i: int, sig, spec: LevelSpec, n: int) -> list:
    """All valid level-(i-1) signatures that expand to ``sig`` at level ``i``,
    enumerated from the definition: ``(m', b')`` qualifies when
    ``m = m' + b' * r_i - b`` with ``0 <= b <= b' * r_i``.  Ascending
    ``(m', b')`` order; raises ValueError for an invalid ``sig``."""
    m, b = sig
    r = spec.arity(i)
    if not _valid_signature(m, b, n, r):
        raise ValueError(f"({m}, {b}) is not a valid level-{i} signature")
    out = []
    for bp in range((b + r - 1) // r, (m + b) // r + 1):
        mp = m + b - r * bp
        if i == 1:
            ok = (mp, bp) == (0, 1)
        else:
            ok = _valid_signature(mp, bp, n, spec.arity(i - 1))
        if ok:
            out.append((mp, bp))
    return sorted(out)


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
