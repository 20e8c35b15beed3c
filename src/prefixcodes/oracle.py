"""Independent ground-truth generators for validating the solvers.

These are intentionally naive: exhaustive enumeration over small instances
plus the classical greedy Huffman merge.  They share only the levels'
(arity, edge length) options and the weight suffix sums of
:mod:`prefixcodes.core` with the dynamic-programming solvers, never any DP
code, so agreement between the two is a meaningful check.  The emitter sums
a code's cost in its own slot walk; the tests, not the emitter, check that
cost apart from both, from the leaf depths, against
``cost_of_leaf_sequence`` in the tests' ``helpers`` module.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass

from .core import ChoiceLevelSpec, LevelSpec, WeightSeq
from .errors import BudgetExceeded, InvalidInput, NoFeasibleTree


@dataclass(frozen=True)
class OracleBudget:
    """Hard caps that keep exhaustive enumeration from running unbounded.
    Only :func:`enumerate_choice` reads ``max_option_sets``."""

    max_n: int = 8
    max_depth: int = 5
    max_option_sets: int = 3


def enumerate_gmr(
    w: WeightSeq,
    spec: LevelSpec | ChoiceLevelSpec,
    max_level: int,
    budget: OracleBudget | None = None,
) -> int:
    """Minimum cost over every realizable leaf sequence with exactly n leaves,
    on a plain spec or, choosing one option per level, on a choice spec.

    A memoized recursion over per-level leaf counts.  A level with
    ``internal`` internal nodes above it and option ``(r, c)`` offers
    ``internal * r`` slots; weights go shallowest-first, so its x leaves take
    weights ``placed .. placed + x - 1``, and every weight not yet placed
    pays the level's edge length ``c``: ``c * W_placed``.  The cheapest
    completion depends only on ``(level, internal, placed)``.  The slot count
    is capped at the number of weights still unplaced; that never excludes
    an optimal sequence (spare capacity beyond the remaining need is never
    binding, since arities are >= 2) and keeps the state space finite.
    """
    budget = budget or OracleBudget()
    n = w.n
    if n > budget.max_n:
        raise BudgetExceeded(f"n={n} exceeds oracle budget {budget.max_n}")
    if max_level > budget.max_depth:
        raise BudgetExceeded(f"max_level={max_level} exceeds oracle budget {budget.max_depth}")
    if spec.num_levels < max_level:
        raise InvalidInput("level spec does not cover max_level")

    @functools.cache
    def rest(level: int, internal: int, placed: int):
        """Least cost of placing weights ``placed ..`` from ``level`` on;
        infinite when impossible."""
        if level > max_level:
            return math.inf
        need = n - placed
        best = math.inf
        for r, c in spec.options(level):
            slots = min(internal * r, need)
            for x in range(slots + 1):
                tail = 0 if x == need else rest(level + 1, slots - x, placed + x)
                best = min(best, c * w.suffix[placed] + tail)
        return best

    best = rest(1, 1, 0)
    if best == math.inf:
        raise NoFeasibleTree(f"no tree with {n} leaves fits within {max_level} levels")
    return best


def enumerate_one_ended(w: WeightSeq, budget: OracleBudget | None = None) -> int:
    """Minimum cost over all binary trees whose weighted leaves are 1-children.

    Enumerates full binary tree shapes level by level: at each level, choose
    how many of the available 1-children become weighted leaves and how many
    nodes are expanded further.  Subtrees that could never receive a weighted
    leaf are skipped -- dropping them never changes the cost.  Weights are
    assigned shallowest-first, so the cheapest completion of a partial tree
    depends only on ``(level, internals, placed)`` and is memoized on it.
    It enumerates trees of at most n + 2 levels, which ``budget.max_depth``
    must allow.
    """
    budget = budget or OracleBudget(max_n=6, max_depth=8)
    n = w.n
    if n > budget.max_n:
        raise BudgetExceeded(f"n={n} exceeds oracle budget {budget.max_n}")
    max_depth = n + 2
    if max_depth > budget.max_depth:
        raise BudgetExceeded(f"max_depth={max_depth} exceeds oracle budget {budget.max_depth}")

    @functools.cache
    def rest(level: int, internals: int, placed: int):
        """Least cost of placing the remaining weights; infinite when impossible."""
        if level > max_depth:
            return math.inf
        best = math.inf
        # `internals` parents each contribute one 0-node and one 1-node here.
        for goods in range(min(internals, n - placed) + 1):
            cost = level * (w.suffix[placed] - w.suffix[placed + goods])
            now = placed + goods
            if now < n:
                # every expanded node must eventually host a weighted leaf
                max_expand = min(2 * internals - goods, n - now)
                cost += min(rest(level + 1, expand, now) for expand in range(1, max_expand + 1))
            best = min(best, cost)
        return best

    best = rest(1, 1, 0)
    if best == math.inf:
        raise NoFeasibleTree("no one-ended tree within the depth limit")
    return best


def huffman_greedy(w: WeightSeq, r: int) -> int:
    """Classical r-ary greedy merge; returns the weighted external path length.

    Zero-weight dummies pad the input so that ``(n - 1) % (r - 1) == 0``.  A
    single weight is a deliberate special case: this package always spends one
    edge on it (cost ``p_1``) rather than emitting an empty codeword.
    """
    if r < 2:
        raise InvalidInput("alphabet size must be >= 2")
    n = w.n
    if n == 1:
        return w.weights[0]
    heap = list(w.weights)
    pad = (r - 1 - (n - 1) % (r - 1)) % (r - 1)
    heap.extend([0] * pad)
    heapq.heapify(heap)
    cost = 0
    while len(heap) > 1:
        merged = 0
        for _ in range(r):
            merged += heapq.heappop(heap)
        cost += merged
        heapq.heappush(heap, merged)
    return cost


def enumerate_choice(
    w: WeightSeq,
    cspec: ChoiceLevelSpec,
    max_level: int,
    budget: OracleBudget | None = None,
) -> int:
    """:func:`enumerate_gmr` on a choice spec whose first ``max_level``
    levels offer at most ``budget.max_option_sets`` options each."""
    budget = budget or OracleBudget()
    if any(len(opts) > budget.max_option_sets for opts in cspec.levels[:max_level]):
        raise BudgetExceeded("option set larger than oracle budget")
    return enumerate_gmr(w, cspec, max_level, budget)
