"""Shared domain types: weight sequences, level specs, leaf sequences, codebooks.

All weights and costs are exact Python integers.  Callers holding
probabilities pre-scale them to integers; cost comparison is then exact and
argmin tie-breaking is deterministic.  Because Python integers are unbounded,
cost arithmetic cannot overflow; the input range for a single weight is still
capped at 64 bits so that instances remain sane.  ``UNREACHABLE`` (IEEE
infinity) is the sentinel for "no tree attains this state" -- it compares
greater than every exact cost and can never be produced by integer
arithmetic, so it cannot be confused with a real value.

Everything here is immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import lt
from typing import Iterable, Mapping, Sequence

from .errors import (
    InvalidInput,
    InvalidLeafSequence,
)

#: Sentinel cost for unreachable DP states.  Never stored in tables (absent
#: entries mean unreachable); used only in comparisons and window scans.
UNREACHABLE = float("inf")

#: Largest accepted individual weight (unsigned 64-bit range).
MAX_WEIGHT = 2**64 - 1

#: Table fills every solver offers; they produce bit-identical tables.
ALGORITHMS = ("naive", "batched")


def check_algorithm(algorithm: str) -> None:
    if algorithm not in ALGORITHMS:
        raise InvalidInput(f"unknown algorithm {algorithm!r}, expected one of {ALGORITHMS}")


def check_int(value, what: str):
    """``value`` if it is an exact integer, not a bool; else InvalidInput."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidInput(f"{what} must be exact integers, got {value!r}")
    return value


def _check_weight(value) -> int:
    check_int(value, "weights")
    if value < 0:
        raise InvalidInput(f"weights must be non-negative, got {value}")
    if value > MAX_WEIGHT:
        raise InvalidInput(f"weight {value} exceeds the 64-bit input range")
    return value


def _check_weights(values: Sequence[int]) -> tuple[int, ...]:
    """``values`` as a non-empty tuple of weights, each an exact integer in
    ``0 .. MAX_WEIGHT``; else InvalidInput for the first bad one.  The usual
    all-``int`` input is checked by type set, ``min`` and ``max``; anything
    else falls back to ``_check_weight`` per value, in order."""
    ws = tuple(values)
    if not ws:
        raise InvalidInput("weight sequence must be non-empty")
    if set(map(type, ws)) != {int} or min(ws) < 0 or max(ws) > MAX_WEIGHT:
        for x in ws:
            _check_weight(x)
    return ws


class WeightSeq:
    """A non-increasing sequence of exact integer weights with suffix sums.

    ``suffix[m]`` holds ``W_m``, the total weight of entries strictly after
    position ``m`` (1-indexed positions).  Positions past ``n`` carry an
    implicit weight of zero, so ``tail_weight(m)`` is defined for every
    ``m >= 0``.
    """

    __slots__ = ("weights", "n", "suffix", "order")

    def __init__(self, weights: Sequence[int], order: Sequence[int] | None = None):
        ws = _check_weights(weights)
        if any(map(lt, ws, ws[1:])):
            raise InvalidInput("weights must be sorted non-increasing")
        n = len(ws)
        self.weights = ws
        self.n = n
        self.suffix = tuple(accumulate(reversed(ws), initial=0))[::-1]
        if order is None:
            order = tuple(range(n))
        else:
            order = tuple(order)
            if len(order) != n or set(order) != set(range(n)):
                raise InvalidInput("order must be a permutation of 0..n-1")
        self.order = order

    def tail_weight(self, m: int) -> int:
        """Total weight of positions strictly greater than ``m``."""
        if m < 0:
            raise InvalidInput("tail index must be non-negative")
        return self.suffix[m] if m <= self.n else 0

    def __repr__(self):
        return f"WeightSeq({list(self.weights)!r})"


def normalize_weights(raw: Sequence[int]) -> WeightSeq:
    """Sort raw weights non-increasing and precompute suffix sums.

    The permutation from sorted position back to the caller's original
    position is retained (``order[k]`` is the original index of sorted entry
    ``k``) so codewords can be reported in input order.  Ties keep their
    original relative order, which makes output deterministic.
    """
    items = _check_weights(raw)
    order = sorted(range(len(items)), key=items.__getitem__, reverse=True)
    return WeightSeq([items[i] for i in order], order)


class LevelSpec:
    """Per-level tree parameters: arity and edge length for levels 1 ..
    ``num_levels``.

    ``levels`` stores the pairs up to the first level of the trailing run;
    its last pair repeats through ``num_levels``, as the last of
    ``MixedRadixSpec.arities`` does, and ``arity``, ``depth`` and
    ``options`` answer past it by arithmetic.  The constructor compresses
    the trailing run of the pairs it is given; ``count`` (default: one level
    per pair) sets ``num_levels``.  ``depth(i)`` is the cumulative edge
    length from the root down to level ``i`` -- the weighted depth of every
    node on that level.
    """

    __slots__ = ("levels", "num_levels", "_depths")

    def __init__(self, levels: Iterable[tuple[int, int]], count: int | None = None):
        try:
            lv = [(r, c) for r, c in levels]
        except (TypeError, ValueError):
            raise InvalidInput("a level spec is a list of (arity, edge length) pairs") from None
        if not lv:
            raise InvalidInput("level spec must cover at least one level")
        for r, c in lv:
            if check_int(r, "level arities") < 2:
                raise InvalidInput(f"every level arity must be >= 2, got {r}")
            if check_int(c, "edge lengths") < 1:
                raise InvalidInput(f"every edge length must be >= 1, got {c}")
        count = len(lv) if count is None else check_int(count, "level counts")
        if count < len(lv):
            raise InvalidInput(f"level count {count} is below the {len(lv)} levels given")
        while len(lv) > 1 and lv[-2] == lv[-1]:
            lv.pop()
        self.levels = tuple(lv)
        self.num_levels = count
        self._depths = tuple(accumulate([c for _, c in lv], initial=0))

    @classmethod
    def constant(cls, arity: int, edge_length: int = 1, count: int = 1) -> "LevelSpec":
        """A spec repeating one (arity, edge length) pair for ``count`` levels."""
        return cls([(arity, edge_length)], count)

    def arity(self, i: int) -> int:
        return self.levels[min(i, len(self.levels)) - 1][0]

    def depth(self, i: int) -> int:
        s = len(self.levels)
        return self._depths[i] if i <= s else self._depths[s] + (i - s) * self.levels[-1][1]

    def options(self, i: int) -> tuple[tuple[int, int], ...]:
        """Level ``i`` as a one-option level, the shape of
        :meth:`ChoiceLevelSpec.options`."""
        return (self.levels[min(i, len(self.levels)) - 1],)

    def __repr__(self):
        return f"LevelSpec({list(self.levels)!r}, count={self.num_levels})"


class ChoiceLevelSpec:
    """A level spec where each level offers a set of (arity, edge length) options."""

    __slots__ = ("levels",)

    def __init__(self, levels: Iterable[Iterable[tuple[int, int]]]):
        out = []
        for options in levels:
            opts = tuple((r, c) for r, c in options)
            if not opts:
                raise InvalidInput("every level needs at least one option")
            if len(set(opts)) != len(opts):
                raise InvalidInput("options within a level must be distinct")
            for r, c in opts:
                if check_int(r, "option arities") < 2 or check_int(c, "edge lengths") < 1:
                    raise InvalidInput(f"bad option ({r}, {c})")
            out.append(opts)
        if not out:
            raise InvalidInput("choice spec must cover at least one level")
        self.levels = tuple(out)

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    def options(self, i: int) -> tuple[tuple[int, int], ...]:
        return self.levels[i - 1]

    def __repr__(self):
        return f"ChoiceLevelSpec({[list(o) for o in self.levels]!r})"


class LeafSequence:
    """Per-level labeled-leaf counts; zero counts are dropped on construction."""

    __slots__ = ("_counts",)

    def __init__(self, counts: Mapping[int, int]):
        norm: dict[int, int] = {}
        for level, count in counts.items():
            check_int(level, "leaf levels")
            if check_int(count, "leaf counts") < 0:
                raise InvalidInput(f"leaf count at level {level} is negative")
            if count == 0:
                continue
            if level < 1:
                raise InvalidInput("leaves may only appear on levels >= 1")
            norm[level] = count
        self._counts = tuple(sorted(norm.items()))

    def items(self) -> tuple[tuple[int, int], ...]:
        return self._counts

    @property
    def total(self) -> int:
        return sum(c for _, c in self._counts)

    @property
    def deepest(self) -> int:
        """Terminal level (0 when the sequence is empty)."""
        return self._counts[-1][0] if self._counts else 0

    def __eq__(self, other):
        return isinstance(other, LeafSequence) and self._counts == other._counts

    def __hash__(self):
        return hash(self._counts)

    def __repr__(self):
        return f"LeafSequence({dict(self._counts)!r})"


@dataclass(frozen=True)
class CodeBook:
    """A finished code: one word per weight, in sorted-weight order.

    ``words`` are tuples of per-level symbols.  ``lengths[i]`` is the symbol
    count of word ``i`` and ``cost`` is the exact weighted depth total, which
    for unit edge lengths coincides with the length-weighted cost.
    """

    words: tuple[tuple[int, ...], ...]
    lengths: tuple[int, ...]
    cost: int


def check_prefix_free(words: Iterable[Sequence]) -> bool:
    """True iff no word is a proper prefix of, or equal to, another."""
    ws = sorted(words)
    for a, b in zip(ws, ws[1:]):
        if len(a) <= len(b) and b[: len(a)] == a:
            return False
    return True
