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
``m' + b'``.  So the answer is the cheapest such two-level finish,
``(m', b') -> (m' + b', b') -> (n, 3b' + m' - n)``, ties going to the smaller
final bad count and then the smaller b'; ``solve_one_ended`` walks the chain
down from its middle state.  (For n = 1 the seed finishes in one level, and
``W_1 = 0`` keeps the formula right.)

The same sum bounds every state from below, and longer chains tighten it.
An expansion places at most b leaves and at most doubles b, so after j >= 1
expansions of ``(m, b)`` at most ``m + 2^(j-1) b`` leaves are placed, and
while that is below n another expansion, costing at least its W, follows.
The bound of a state is therefore ``c + W_m`` plus the capacity series
``W_{m+b} + W_{m+2b} + W_{m+4b} + ...`` over the indices below n, the exact
two-level finish once ``m + 2b >= n``.  It is consistent (as A*'s
heuristics are): a child ``(m + k, 2b - k)`` costs ``c + W_m`` and has
``m + k <= m + b`` and ``2b - k <= 2b``, so each term of its series is at
least the parent's next one.

``_fill`` stores a state only if its bound is at most an upper bound UB,
summing the series only while it stays within UB.  UB starts at
``_incumbent``, the cost of a one-ended code read off a binary Huffman tree,
and each stored state lowers it to its steady finish ``c + W_m + W_{m+b} +
W_{m+2b} + ...`` (indices below n), the real code ``(m, b) -> (m + b, b) ->
...`` that weights all b 1-children per level and the rest at the end.
It holds every term of the bound and ``W_{m+3b}`` too, so it is summed
only when the bound plus that term is below UB.  A dropped state's
descendants would all be dropped, so every stored state keeps the cost and
the tied predecessors it has in the full table, and
every state of an optimal chain is stored: its bound is at most the
optimum, which is at most UB.  The answer scan is the least two-level
finish of the states with ``m + 2b >= n`` (the seed's when ``n <= 2``),
taken inside the fill with the tie key ``(finish, 3b + m - n, b, m)``.
With ``cutoff=False`` UB stays infinite and never falls, so the fill stores
every reachable state below diagonal n, about n**2 / 2 of them: the paper's
full fill, as the complexity harness measures it.

Both fills process states in diagonals ``d = m + b``.  Within one diagonal
the candidate value gamma(b') depends only on the predecessor's bad count,
and a state's predecessors form the window ceil(b/2) <= b' <= min(b,
floor(d/2)) of the diagonal's candidate row.  Each state ``(m', b')`` feeds
only the diagonal ``m' + 2b'``, so when it is stored it pushes gamma(b')
into that diagonal's row, if the diagonal is below n.  A row is a list
indexed by b', made on its first push; its pushes come from ascending
diagonals, so in descending b', and the first sets phi, the greatest
stored predecessor, and each sets plo, the least.  b' between them that no
stored state pushed are holes.  The fill sweeps only the b whose window
meets the row, ``plo <= b <= 2 phi``.  From ``b = phi`` on the window's
upper end stays at phi, so neither gamma's window minimum nor W_m can fall,
while UB only falls: the first state there whose two-level part
``c + W_m + W_d`` exceeds UB ends the sweep.  Past a state there with
``d + b < n`` that fails only its series, ``c + W_m + W_d`` still cannot
fall, while the series' tail ``T(b) = W_{d+b} + W_{d+3b} + W_{d+7b} + ...``
(indices below n) never rises as b grows.  So every state before the first
b whose tail fits in what UB leaves fails too: the sweep bisects
``(b, min(2 phi, d, n - d - 1)]`` for that b and goes on there, or at the
first finishing b, ``n - d``, without sweeping the states between.  With
``cutoff=False`` nothing fails, so nothing is jumped over.  The naive fill
takes each window's minimum directly, O(n) per state.  The batched fill
uses that both ends of the window only move up as b grows: a sliding-window
minimum (a monotone deque) answers every state of the diagonal in amortized
O(1).
``cells_updated`` counts one cell per row entry from plo to phi, holes
included, and per state swept in the batched fill, and one per entry of
``[plo, phi]`` in each swept state's window in the naive one; a state the
sweep jumps over and the answer scan add none.

Both fills store costs only, diagonal-major: ``rows[d][b]`` is the cost of
``(d - b, b)``, a diagonal's list ending at its last stored b (empty if it
stores none) and the ``UNREACHABLE`` object marking a hole.  The table is
``gmr.RowCosts``, the gmr tail's read-only ``(m, b)`` view, iterated by
ascending d and, within a diagonal, ascending m.  The chain walk in
``solve_one_ended`` recovers each step from it: among ``_oe_predecessors``
of a state, the first (smallest b') whose cost plus W_m' equals the state's
cost wins ties.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .core import (UNREACHABLE, CodeBook, LeafSequence, WeightSeq, check_algorithm,
                   check_prefix_free)
from .errors import InternalInconsistency
from .gmr import DPResult, LevelTable, RowCosts

Sig = tuple[int, int]


@dataclass(frozen=True)
class OneEndedResult(DPResult):
    """A ``DPResult`` that also carries the code and the one level-free table.

    ``level`` is the depth of the chain ``expansions`` (present in cost-only
    solves too) and ``leaves_full`` is n; ``levels_filled``, ``tables`` and
    ``options`` stay None.  ``codebook``, ``leaf_sequence`` and ``table`` are
    None for cost-only solves.  ``table`` is level-free from level 0 and holds
    only the states whose bound stayed within UB (see the module docstring).
    """

    codebook: CodeBook | None = None
    table: LevelTable | None = None


def _oe_predecessors(sig: Sig) -> list[Sig]:
    """States that expand to ``sig``: m = m' + 2b' - b with b/2 <= b' <= b.

    Ascending b' order; each predecessor lies on the smaller diagonal
    ``m + b - b'``, which the fill has finished.
    """
    m, b = sig
    d = m + b
    return [(d - 2 * bp, bp) for bp in range(max(1, (b + 1) // 2), min(b, d // 2) + 1)]


def _incumbent(w: WeightSeq) -> int | None:
    """The cost of a one-ended code read off a binary Huffman tree, an upper
    bound on the optimum; None for n <= 2, where the seed's finish serves.

    Where two leaves are siblings the lighter takes the 0-edge and a
    trailing 1, one level deeper; every other leaf keeps its 1-edge, and a
    subtree beside a leaf takes the 0-edge.  Every word ends in 1 and the
    words stay prefix-free.  The weights arrive sorted, so two queues merge
    them in O(n): the leaves ascending and the sums in the order they form,
    which is ascending too.
    """
    n = w.n
    if n <= 2:
        return None
    leaves = w.weights[::-1]
    sums: list[int] = []
    i = j = cost = 0
    for _ in range(n - 1):
        pair = []
        for _ in range(2):  # a leaf wins a tie with an equal sum
            if i < n and (j == len(sums) or leaves[i] <= sums[j]):
                pair.append((leaves[i], False))
                i += 1
            else:
                pair.append((sums[j], True))
                j += 1
        (x, merged_x), (y, merged_y) = pair
        cost += x + y if merged_x or merged_y else 2 * x + y
        sums.append(x + y)
    return cost


def _fill(w: WeightSeq, mode: str, cutoff: bool):
    """The pruned table as a ``RowCosts`` view, the least tie key ``(finish,
    3b + m - n, b, m)`` of its two-level finishes and the cells spent (see
    the module docstring).  Without ``cutoff`` UB stays infinite, so no
    state is dropped."""
    n = w.n
    INF = UNREACHABLE
    suffix = w.suffix
    best = (suffix[0] + suffix[1], 3 - n, 1, 0) if n <= 2 else (INF,)
    # the incumbent is None only for n <= 2, where no diagonal is filled
    ub = _incumbent(w) if cutoff else INF
    rows: list[list] = [[] for _ in range(max(n, 2))]  # rows[d][b]: the cost of (d - b, b)
    rows[1] += [INF, 0]  # the seed
    # cands[e][b']: gamma(b') of the stored predecessor (e - 2b', b'), pushed
    # when it is stored, in descending b'; plos[e] is the last b' pushed
    cands: list[list | None] = [None] * max(n, 3)
    cands[2] = [INF, suffix[0]]  # the seed's
    plos = [1] * len(cands)
    batched = mode == "batched"
    cells = 0
    for d in range(2, n):
        cand = cands[d]
        if cand is None:
            continue
        cands[d] = None
        plo, phi = plos[d], len(cand) - 1
        row = rows[d]
        limit = ub - suffix[d]  # store iff gamma + W_m (+ the series if d + b < n) <= limit
        if batched:
            cells += phi - plo + 1
            window: deque[int] = deque()  # b' ascending, gamma non-decreasing
        b, end = plo, min(2 * phi, d)
        while b <= end:
            m = d - b
            if batched:
                # the window's upper end is b until it reaches phi
                if b <= phi:
                    v = cand[b]
                    while window and cand[window[-1]] > v:
                        window.pop()
                    window.append(b)
                lo = (b + 1) // 2
                while window[0] < lo:
                    window.popleft()
                cells += 1
                v = cand[window[0]]
            else:
                # naive: every state takes the minimum over its own window
                lo = max((b + 1) // 2, plo)
                hi = min(b, phi)
                cells += hi - lo + 1
                v = min(cand[lo:hi + 1])
            g = v + suffix[m]
            if g > limit:
                if b >= phi:
                    break  # from b = phi on, neither v nor W_m decreases
                b += 1
                continue
            if d + b < n:
                # the rest of the capacity series, W_{m+2b} + W_{m+4b} + ...
                s, step = g, 2 * b
                while s <= limit and m + step < n:
                    s += suffix[m + step]
                    step += step
                if s > limit:
                    if b < phi:
                        b += 1
                        continue
                    # g never falls and limit holds while the series' tail
                    # T(b') = W_{d+b'} + W_{d+3b'} + ... never rises: go on at
                    # the first b' whose tail fits, else at the first
                    # finishing b, n - d, or past end
                    room, lo, hi = limit - g, b + 1, min(end, n - d - 1) + 1
                    while lo < hi:
                        mid = (lo + hi) // 2
                        t, j, step = 0, d + mid, 2 * mid
                        while t <= room and j < n:
                            t += suffix[j]
                            j += step
                            step += step
                        if t <= room:
                            hi = mid
                        else:
                            lo = mid + 1
                    b = lo
                    continue
                cand_e = cands[d + b]
                if cand_e is None:
                    cands[d + b] = cand_e = [INF] * (b + 1)
                cand_e[b] = g
                plos[d + b] = b
                # the steady finish, at least s + W_d + W_{d+2b} if d + 2b < n,
                # so summed only when it may fall below UB
                f = INF
                if cutoff and s + (suffix[d + 2 * b] if d + 2 * b < n else 0) < limit:
                    f = g + sum(suffix[d:n:b])
            else:
                f = g + suffix[d]
                best = min(best, (f, 3 * b + m - n, b, m))
            if len(row) < b:
                row += [INF] * (b - len(row))
            row.append(v)
            if cutoff and f < ub:
                ub = f
                limit = ub - suffix[d]
            b += 1
    if best[0] == INF:
        raise InternalInconsistency("the pruned fill stored no finishing state")
    return RowCosts(rows, {}), best, cells


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
        nxt = []
        for k, p in enumerate(bad):
            nxt.append(p + (0,))
            if k >= goods:
                nxt.append(p + (1,))
        if len(nxt) != expansions[step][1]:
            raise InternalInconsistency("bad-node count diverged from the signature chain")
        bad = nxt
    cost = sum(len(word) * x for word, x in zip(words, w.weights))
    return CodeBook(words=tuple(words), lengths=tuple(len(word) for word in words), cost=cost)


def solve_one_ended(w: WeightSeq, *, algorithm: str = "batched", with_code: bool = True,
                    cutoff: bool = True) -> OneEndedResult:
    """Diagonal-batched solver with a sliding-window minimum, or with
    ``algorithm="naive"`` a direct minimum over each state's predecessor
    window.  The DP table is kept only when ``with_code``.

    ``cutoff=False`` selects the paper's full fill, as the complexity harness
    measures: UB stays infinite, so every reachable state below diagonal n is
    stored and swept, with the same answer and backtrace."""
    check_algorithm(algorithm)
    n = w.n
    costs, (cost, b_final, b, m), cells = _fill(w, algorithm, cutoff)
    suffix = w.suffix
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
    codebook = leaf_sequence = table = None
    if with_code:
        codebook = _codewords_from_expansions(expansions, w)
        if codebook.cost != cost or not check_prefix_free(codebook.words):
            raise InternalInconsistency("reconstructed code disagrees with the DP answer")
        # level i holds the m_i - m_{i-1} weighted 1-leaves its expansion placed
        leaf_sequence = LeafSequence({i: expansions[i][0] - expansions[i - 1][0]
                                      for i in range(1, len(expansions))})
        table = LevelTable(0, costs)
    return OneEndedResult(
        cost=cost,
        level=len(expansions) - 1,
        leaves_full=n,
        cells_updated=cells,
        expansions=expansions,
        leaf_sequence=leaf_sequence,
        codebook=codebook,
        table=table,
    )
