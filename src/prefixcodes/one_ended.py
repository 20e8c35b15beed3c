"""Minimum-cost binary prefix-free codes whose words all end in "1".

Only 1-children may carry weights.  The DP state ``(m, b)`` counts weighted
("good") 1-leaves placed so far and "bad" bottom-level nodes -- 0-nodes plus
unweighted 1-nodes -- that expansion would turn internal.  Unlike the
mixed-radix program the table is level-free: a state's cost does not depend
on which level it was reached at beyond what the partial cost already
charges, and every predecessor lies on a smaller diagonal ``d - b'``, so one
table filled diagonal by diagonal serves all levels.

The table stops below diagonal n.  Every child of ``(m', b')`` lies on
diagonal ``m' + 2b'``, so in any chain the first state with ``m + b >= n``
comes from a stored ``(m', b')`` with ``m' + b' < n <= m' + 2b'``.  Weighting
all b' of its 1-children and then the remaining ``n - m' - b' <= b'`` weights
finishes at ``c(m', b') + W_m' + W_{m'+b'}``, and no chain through
``(m', b')`` is cheaper, because W is non-increasing and the next m is at most
``m' + b'``.  So ``_solve`` scans the stored states for the cheapest such
two-level finish, ``(m', b') -> (m' + b', b') -> (n, 3b' + m' - n)``, ties
going to the smaller final bad count and then the smaller b', and walks the
chain down from its middle state.  (For n = 1 the seed finishes in one level,
and ``W_1 = 0`` keeps the formula right.)

Both fills process states in diagonals ``d = m + b``.  Within one diagonal
the candidate value gamma(b') depends only on the predecessor's bad count, so
``_fill`` builds the diagonal's candidate row once, and a state's
predecessors form the window ceil(b/2) <= b' <= min(b, floor(d/2))
of that row.  The naive fill takes each window's minimum directly, O(n) per
state.  The batched fill uses that both ends of the window only move up as b
grows: a sliding-window minimum (a monotone deque) answers every state of the
diagonal in amortized O(1).

Both fills store costs only.  The chain walk in ``_solve`` recovers each
step from the finished table: among ``_oe_predecessors`` of a state, the first
(smallest b') whose cost plus W_m' equals the state's cost wins ties.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .core import UNREACHABLE, CodeBook, WeightSeq, check_algorithm, check_prefix_free
from .errors import InternalInconsistency

Sig = tuple[int, int]


@dataclass(frozen=True)
class OneEndedTable:
    """The finished level-free table: minimum cost of every reachable state."""

    costs: dict[Sig, int]


@dataclass(frozen=True)
class OneEndedResult:
    cost: int
    codebook: CodeBook | None
    expansions: tuple[Sig, ...]
    table: OneEndedTable | None  # None for cost-only solves
    cells_updated: int


def _oe_predecessors(sig: Sig) -> list[Sig]:
    """States that expand to ``sig``: m = m' + 2b' - b with b/2 <= b' <= b.

    Ascending b' order; every predecessor is lexicographically smaller than
    ``sig`` (m' < m, or m' = m with b = 2b').
    """
    m, b = sig
    d = m + b
    return [(d - 2 * bp, bp) for bp in range(max(1, (b + 1) // 2), min(b, d // 2) + 1)]


def _fill(w: WeightSeq, mode: str):
    n = w.n
    INF = UNREACHABLE
    costs: dict[Sig, int] = {(0, 1): 0}
    get = costs.get
    suffix = w.suffix
    batched = mode == "batched"
    cells = 0
    for d in range(2, n):
        half = d // 2
        # cand[bp] = gamma(bp); cand[0] is never read (no state has b = 0)
        cand = [get((d - 2 * bp, bp), INF) + suffix[d - 2 * bp] for bp in range(half + 1)]
        if batched:
            cells += half
            window: deque[int] = deque()  # b' ascending, gamma non-decreasing
            pushed = 0
            for b in range(1, d + 1):
                lo = (b + 1) // 2
                hi = min(b, half)
                if lo > hi:
                    continue
                while pushed < hi:
                    pushed += 1
                    v = cand[pushed]
                    while window and cand[window[-1]] > v:
                        window.pop()
                    window.append(pushed)
                while window[0] < lo:
                    window.popleft()
                cells += 1
                v = cand[window[0]]
                if v < INF:
                    costs[(d - b, b)] = v
        else:
            # naive: every state takes the minimum over its own window of the row
            for b in range(1, d + 1):
                lo = (b + 1) // 2
                hi = min(b, half)
                if lo > hi:
                    continue
                cells += hi - lo + 1
                v = min(cand[lo:hi + 1])
                if v < INF:
                    costs[(d - b, b)] = v
    return costs, cells


def _codewords_from_expansions(expansions, w: WeightSeq) -> CodeBook:
    """Rebuild the tree deterministically and emit the weighted 1-leaf words.

    Bad nodes are kept in left-to-right order; each spawns a 0-child then a
    1-child, and the first ``m_i - m_{i-1}`` 1-children of a level become the
    next weighted leaves, realizing the shallowest-first weight order.
    """
    words: list[tuple[int, ...]] = []
    bad: list[tuple[int, ...]] = [()]
    for step in range(1, len(expansions)):
        goods = expansions[step][0] - expansions[step - 1][0]
        ones = [p + (1,) for p in bad]
        words.extend(ones[:goods])
        taken = set(range(goods))
        nxt = []
        for k, p in enumerate(bad):
            nxt.append(p + (0,))
            if k not in taken:
                nxt.append(p + (1,))
        if len(nxt) != expansions[step][1]:
            raise InternalInconsistency("bad-node count diverged from the signature chain")
        bad = nxt
    cost = sum(len(word) * w.weight(t + 1) for t, word in enumerate(words))
    return CodeBook(words=tuple(words), lengths=tuple(len(word) for word in words), cost=cost)


def _solve(w: WeightSeq, mode: str, with_code: bool) -> OneEndedResult:
    n = w.n
    costs, cells = _fill(w, mode)
    suffix = w.suffix
    best = None
    for (m, b), v in costs.items():
        if m + 2 * b >= n:
            cells += 1
            cand = (v + suffix[m] + suffix[m + b], 3 * b + m - n, b, m)
            if best is None or cand < best:
                best = cand
    cost, b_final, b, m = best
    sig: Sig = (m + b, b)
    chain = [(n, b_final), sig] if m + b < n else [sig]
    target = cost - suffix[m + b]
    while sig != (0, 1):
        for pred in _oe_predecessors(sig):
            v = costs.get(pred)
            if v is not None and v + suffix[pred[0]] == target:
                break
        else:
            raise InternalInconsistency(f"no predecessor attains the cost of {sig}")
        sig, target = pred, v
        chain.append(sig)
    chain.reverse()
    expansions = tuple(chain)
    codebook = None
    if with_code:
        codebook = _codewords_from_expansions(expansions, w)
        if codebook.cost != cost or not check_prefix_free(codebook.words):
            raise InternalInconsistency("reconstructed code disagrees with the DP answer")
    return OneEndedResult(
        cost=cost,
        codebook=codebook,
        expansions=expansions,
        table=OneEndedTable(costs) if with_code else None,
        cells_updated=cells,
    )


def solve_one_ended(w: WeightSeq, *, algorithm: str = "batched",
                    with_code: bool = True) -> OneEndedResult:
    """Diagonal-batched solver with a sliding-window minimum, or with
    ``algorithm="naive"`` a direct minimum over each state's predecessor
    window.  The DP table is kept only when ``with_code``."""
    check_algorithm(algorithm)
    return _solve(w, algorithm, with_code)
