"""Top-down dynamic program for generalized mixed-radix trees.

A truncated tree is summarized by a level signature ``(m, b)``: ``m`` leaves
labeled so far, ``b`` bottom-level nodes tagged for expansion.  Starting from
the root state ``(0, 1)``, each level-``i`` expansion turns every tagged node
into ``r_i`` children and charges ``c_i * W_m'`` -- one more edge length for
every still-unplaced weight.  The level tables map reachable valid signatures
to their minimum partial cost; absent entries mean UNREACHABLE.  The spec's
levels are the only depth limit: a spec of L levels admits trees of up to L levels.

Two fill strategies produce bit-identical tables, entries stored in the same
order.  Both group the entries of one level whose signatures share
``d = m + b`` and build the candidate value ``gamma(b')`` of each predecessor
on that diagonal once:

* ``solve_naive`` takes each entry's minimum over its own window of them;
* ``solve_batched`` folds a running minimum while sweeping ``m`` upward, so
  a whole batch costs O(d).  A level whose arity exceeds n reaches only
  finished ``(m, 0)`` states, each with two candidates, and both fills scan
  those directly.

Each previous state ``(m', b')`` feeds exactly one diagonal,
``m' + r * b'``.  So a fill visits only the diagonals the previous level
reaches, each up to its largest reaching ``b'``, as Golin & Rote's signature
DP and Larmore & Hirschberg's package-merge work only on reachable states.
``cutoff=False`` selects the paper's full, dense fill, which visits every
diagonal; it stores the same tables and counts more cells.

A finished state ``(m, 0)`` with ``m >= n`` may also be the previous
level's ``(m, 0)`` carried down at the same cost: ``W_m = 0``, so that tree
pays no further edge.

``solve_choice`` runs the same level loop over a ``ChoiceLevelSpec``, whose
levels each offer several (arity, edge length) options: every option is
filled from the previous combined table, and the combined entry is the
per-signature minimum.

The level loop stops after the first level whose cheapest state costs at
least the best finished tree seen so far.  Expansions never lower a cost and
ties go to the shallower level, so no deeper level could change the answer or
its backtrace.  ``cutoff=False`` fills every level of the spec, and every
diagonal of each level, as the complexity harness measures.

A plain spec of at least n levels whose levels from s on share one (arity,
edge length) -- Huffman from level 1, mixed-radix (4, 2, 3) from level 3 --
fills levels ``1 .. s - 1`` one table each and all deeper levels in one
level-free table, as Golin & Rote's signature DP does: there a state's
future does not depend on its level, so the table keeps each signature's
least ``cost * K + level`` (``K = 2n + 2``) and is filled in place in
diagonal order.

The fills store costs only, so equal-cost predecessors are resolved in one
place: ``backtrack`` recovers each step from the previous level's costs,
trying options in index order and, within an option, predecessors in
ascending ``m'`` order (the largest ``b'`` on a diagonal).  Both fills
therefore share one backtrace.  A winning tree with n' > n leaves has all
its n' - n excess zero-weight leaves on the answer level, so the backtrace's
leaf sequence simply stops counting at n.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .core import (
    UNREACHABLE,
    ChoiceLevelSpec,
    CodeBook,
    LeafSequence,
    LevelSpec,
    WeightSeq,
    check_algorithm,
    cost_of_leaf_sequence,
)
from .errors import (
    InternalInconsistency,
    InvalidLeafSequence,
    NoFeasibleTree,
)

Sig = tuple[int, int]


@dataclass(frozen=True)
class LevelTable:
    """Reachable signatures of one level and their exact minimum costs;
    predecessors and options are recovered from these by ``backtrack``.  A
    level-free table covers ``level`` and every deeper level: the gmr tail
    from level s holds keys (see ``DPResult``), and the one-ended table, at
    level 0, the cost of every state it stores."""

    level: int
    costs: dict[Sig, int]


@dataclass(frozen=True)
class DPResult:
    """Solver output.

    ``leaves_full`` is the leaf count n' of the winning full tree; its
    ``n' - n`` excess zero-weight leaves all lie on the answer level, and
    ``leaf_sequence`` leaves them out, so it holds exactly n leaves.
    ``tables``, ``expansions`` and ``leaf_sequence`` are
    present only when the solver ran with ``keep_tables=True``; the tables
    run from level 0 to ``levels_filled``, the last level the level loop
    filled before it stopped (see ``_solve``).  A solve that reached a
    level-free tail from level s on has ``levels_filled == s``, and
    ``tables[s]`` (its ``level`` is s) covers levels s and deeper: its values
    are keys ``cost * (2n + 2) + level``, the least per signature over levels
    ``s - 1`` and deeper.  One-ended answers, whose DP has no levels, leave
    ``levels_filled`` None.
    ``options`` records the chosen per-level option index for choice solves
    that keep their tables.
    """

    cost: int
    level: int
    leaves_full: int
    cells_updated: int
    levels_filled: int | None = None
    expansions: tuple[Sig, ...] | None = None
    leaf_sequence: LeafSequence | None = None
    tables: tuple | None = None
    options: tuple[int, ...] | None = None


def _valid_signature(m: int, b: int, *, n: int, arity: int) -> bool:
    """Validity of a non-negative ``(m, b)`` on a level with the given arity."""
    if b > 0:
        return m + b <= n
    return max(n, arity) <= m <= n + arity - 1


def _merge_min(costs: dict, pairs) -> None:
    """Lower each ``costs[sig]`` to ``v`` over the ``(sig, v)`` pairs."""
    for sig, v in pairs:
        if v < costs.get(sig, UNREACHABLE):
            costs[sig] = v


def _fill_level(prev: dict, n: int, r: int, c: int, suffix: tuple, mode: str, dense: bool,
                costs: dict | None = None, seeds: dict | None = None):
    """Fill one level from the previous one.

    Returns ``(costs, zeros, cells)`` where ``zeros`` lists the ``(m, cost)``
    pairs of finished-tree states ``(m, 0)`` in ascending m and ``cells``
    counts evaluated candidates (predecessor visits for the naive mode, gamma
    evaluations plus sweep steps for the batched mode).

    One loop visits the diagonals ``d`` of a map ``d -> B`` in ascending
    ``d``; ``B`` bounds the ``b'`` of the predecessors ``(d - r * b', b')``
    read on that diagonal.  Each previous state ``(m', b')`` feeds only the
    diagonal ``m' + r * b'`` (a finished ``(m', 0)`` its own), so the sparse
    map holds the reached diagonals below ``n + r``, where the level's
    signatures end, each with its largest reaching ``b'``.  With ``dense``
    the map holds every diagonal ``1 .. n`` and every finished diagonal,
    each with ``B = d // r``, as the paper's full fill visits them.  Both
    maps store the same entries in the same order; only the cells differ.

    A diagonal ``d <= n`` builds its candidate row ``gamma(b')``,
    ``b' = 0 .. B``, once.  The naive mode then takes every entry's minimum
    over its window ``b' >= ceil(b / r)`` of the row; the batched mode folds
    a running minimum while sweeping ``m`` upward from ``d - r * B``.  Both
    store a diagonal's entries in ascending m.

    The level-free tail passes its one table as both ``prev`` and ``costs``
    with a dense map, since its predecessors appear during the fill: every
    predecessor lies on a smaller diagonal, so each diagonal reads only
    finished entries.  ``seeds`` maps a diagonal to ``(sig, value)`` pairs
    merged by minimum once that diagonal is visited, any left over at the
    end.

    A finished state's ``b' = 0`` candidate is its own previous entry, with
    no weight term since ``W_m = 0`` for ``m >= n``; every other candidate
    has ``m' <= n``, so ``suffix`` is read within its range.  The batched
    sweep runs only when ``r <= n``.  A wider level reaches no ``b > 0``
    state (that needs ``m' + b' * r <= n`` with ``b' >= 1``), so the
    per-state scan of the finished diagonals handles it alone: each
    ``(m, 0)`` then has the two candidates ``(m, 0)`` and ``(m - r, 1)``.
    """
    if costs is None:
        costs = {}
    zeros: list[tuple[int, int]] = []
    cells = 0
    get = prev.get
    INF = UNREACHABLE
    batched = mode == "batched" and r <= n
    # batched: the finished states past n are full-window minima, counted as
    # a gamma evaluation plus a sweep step per candidate
    first, per_candidate = (n + 1, 2) if batched else (max(n, r), 1)
    if dense:
        reach = {d: d // r for d in chain(range(1, n + 1), range(max(n + 1, r), n + r))}
    else:
        reach = {}
        for m, b in prev:
            d = m + r * b
            if d < n + r and reach.get(d, -1) < b:
                reach[d] = b
        reach = dict(sorted(reach.items()))
    for d, B in reach.items():
        if d <= n:
            cand = [get((d - r * bp, bp), INF) + c * suffix[d - r * bp] for bp in range(B + 1)]
            if batched:
                t = d - r * B
                cells += (B + 1) + (d - t + 1)
                best = INF
                for m in range(t, d + 1):
                    rem = d - m
                    if rem % r == 0:
                        v = cand[rem // r]
                        if v < best:
                            best = v
                    if best < INF:
                        if rem > 0:
                            costs[(m, rem)] = best
                        elif m == n:  # the only in-range (m, 0) state with d <= n
                            costs[(m, 0)] = best
                            zeros.append((m, best))
            else:
                # naive: every entry scans its own predecessor window of the
                # row, in ascending m as the sweep stores them
                for b in range(r * B, 0, -1):
                    lo = (b + r - 1) // r
                    cells += B + 1 - lo
                    v = min(cand[lo:])
                    if v < INF:
                        costs[(d - b, b)] = v
        if d >= first:
            v = min((get((d - r * bp, bp), INF) + c * suffix[d - r * bp]
                     for bp in range(1, B + 1)), default=INF)
            v = min(v, get((d, 0), INF))
            cells += per_candidate * (B + 1)
            if v < INF:
                costs[(d, 0)] = v
                zeros.append((d, v))
        if seeds:
            _merge_min(costs, seeds.pop(d, ()))
    if seeds:
        for pairs in seeds.values():
            _merge_min(costs, pairs)
    return costs, zeros, cells


def _level_options(spec, i: int) -> tuple[tuple[int, int], ...]:
    """The (arity, edge length) options of level ``i``: one for a ``LevelSpec``."""
    if isinstance(spec, ChoiceLevelSpec):
        return spec.options(i)
    return ((spec.arity(i), spec.edge_length(i)),)


def _tail_start(spec, n: int) -> int | None:
    """The first level s of the constant suffix that a cut-off ``_solve``
    fills in one level-free table, or None.  That takes a plain spec of at
    least n levels: d = m + b grows by at least 1 per level, so no tree is
    deeper than n levels and the spec never ends a tail chain early."""
    if isinstance(spec, ChoiceLevelSpec) or spec.num_levels < n:
        return None
    levels = spec.levels
    s = len(levels)
    while s > 1 and levels[s - 2] == levels[-1]:
        s -= 1
    return s


def _solve(w: WeightSeq, spec, mode: str, keep_tables: bool, *,
           cutoff: bool = True) -> DPResult:
    """The level loop over the levels of ``spec``, plain and choice alike.

    With ``cutoff`` the loop stops after the first level whose cheapest
    state costs at least the best finished ``(m, 0)`` seen so far, or that
    is empty.  Every expansion adds ``c * W_m >= 0``, so no deeper state can
    cost less than its level-``i`` ancestor, and ties between finished trees
    go to the shallower level: no deeper level can change the answer or its
    backtrace.  An empty level leaves every later level empty.  The stop
    reads only table values, so naive and batched fills stop at the same
    level.  Each level fills only the diagonals its previous level reaches
    (see ``_fill_level``).

    ``cutoff=False`` selects the paper's full, dense fill, as the complexity
    harness measures: every level of the spec, every diagonal of each level,
    and no level-free tail.

    Where ``_tail_start`` finds a constant tail from level s on, the loop
    fills levels ``1 .. s - 1`` only.  From level s on a state's future does
    not depend on its level, so one dense ``_fill_level`` call fills a single
    table in place, in diagonal order, keyed ``cost * K + level`` with
    ``K = 2n + 2``: one integer minimum keeps the cheapest state and, among
    equal costs, the shallowest.  It passes edge length 1 with the suffix
    ``c * K * W_m + 1`` and is seeded with level s - 1 at keys
    ``cost * K + s - 1``.

    Choice solves also count each option's stored entries as cells, whatever
    their option count.
    """
    check_algorithm(mode)
    n = w.n
    choice = isinstance(spec, ChoiceLevelSpec)
    tail = _tail_start(spec, n) if cutoff else None
    prev: dict[Sig, int] = {(0, 1): 0}
    tables = [LevelTable(0, prev)]
    best = (UNREACHABLE,)  # (cost, level, n');  tuple order implements the tie-break
    cells = 0
    levels_filled = 0
    for i in range(1, spec.num_levels + 1 if tail is None else tail):
        costs = None
        for r, c in _level_options(spec, i):
            fill, zeros, k = _fill_level(prev, n, r, c, w.suffix, mode, dense=not cutoff)
            cells += k + len(fill) if choice else k
            # the best finished state over all options is the best over each
            # option's own finished states
            best = min([best, *[(v, i, m) for m, v in zeros]])
            if costs is None:
                costs = fill
            else:
                _merge_min(costs, fill.items())
        if keep_tables:
            tables.append(LevelTable(i, costs))
        prev = costs
        levels_filled = i
        if cutoff and min(costs.values(), default=UNREACHABLE) >= best[0]:
            break
    else:
        if tail is not None:
            K = 2 * n + 2
            r, c = spec.levels[-1]
            seeds: dict[int, list] = {}
            for (m, b), v in prev.items():
                seeds.setdefault(m + b, []).append(((m, b), v * K + tail - 1))
            table: dict[Sig, int] = {}
            suffix = tuple(c * K * x + 1 for x in w.suffix)
            _, zeros, cells_tail = _fill_level(table, n, r, 1, suffix, mode, dense=True,
                                              costs=table, seeds=seeds)
            cells += cells_tail
            best = min([best, *[(*divmod(key, K), m) for m, key in zeros]])
            if keep_tables:
                tables.append(LevelTable(tail, table))
            levels_filled = tail
    if best[0] == UNREACHABLE:
        raise NoFeasibleTree(f"no full tree with >= {n} leaves within {spec.num_levels} levels")
    cost, level, nprime = best
    if not keep_tables:
        return DPResult(cost=cost, level=level, leaves_full=nprime, cells_updated=cells,
                        levels_filled=levels_filled)
    expansions, leaf_sequence, options = backtrack(tables, (level, nprime, cost), spec, w,
                                                   tail=levels_filled == tail)
    return DPResult(
        cost=cost,
        level=level,
        leaves_full=nprime,
        cells_updated=cells,
        levels_filled=levels_filled,
        expansions=expansions,
        leaf_sequence=leaf_sequence,
        tables=tuple(tables),
        options=options,
    )


def solve_naive(w: WeightSeq, spec: LevelSpec, *, keep_tables: bool = True,
                cutoff: bool = True) -> DPResult:
    """Fill the level tables by direct minimization over predecessors."""
    return _solve(w, spec, "naive", keep_tables, cutoff=cutoff)


def solve_batched(w: WeightSeq, spec: LevelSpec, *, keep_tables: bool = True,
                  cutoff: bool = True) -> DPResult:
    """Batched fill; identical tables and answer as :func:`solve_naive`."""
    return _solve(w, spec, "batched", keep_tables, cutoff=cutoff)


def solve_choice(w: WeightSeq, cspec: ChoiceLevelSpec, *, algorithm: str = "batched",
                 keep_tables: bool = True, cutoff: bool = True) -> DPResult:
    """Minimum-cost tree over all per-level option assignments; the result's
    ``options`` holds the chosen option index per level of the backtrace."""
    return _solve(w, cspec, algorithm, keep_tables, cutoff=cutoff)


def _attaining_step(prev: dict, sig: Sig, options, w: WeightSeq, cost: int):
    """``(option index, predecessor, its cost)`` of the first candidate of
    ``sig`` whose cost plus ``c * W_m'`` is ``cost``; None if none is."""
    m, b = sig
    d = m + b
    for j, (r, c) in enumerate(options):
        if not _valid_signature(m, b, n=w.n, arity=r):
            continue
        for bp in range(d // r, (b + r - 1) // r - 1, -1):  # ascending m'
            pred = (d - r * bp, bp)
            v = prev.get(pred)
            if v is not None and v + c * w.tail_weight(pred[0]) == cost:
                return j, pred, v
    return None


def backtrack(tables, answer: tuple[int, int, int], spec, w: WeightSeq, *,
              tail: bool = False):
    """Recover the answer's predecessors from the finished cost tables.

    At level ``i`` the options are tried in index order, skipping those for
    whose arity ``sig`` is no valid signature.  An option's candidates are the
    ``(d - r * b', b')`` present in level ``i - 1``; the first one, in
    ascending ``m'`` order, whose cost plus ``c * W_m'`` equals ``sig``'s
    stored cost is its predecessor.

    With ``tail`` the last table, ``tables[s]``, is the level-free tail of
    levels s and deeper (see ``_solve``).  Its steps take the first
    predecessor whose key plus ``c * K * W_m'`` is ``sig``'s key less one,
    until the chain is back on level ``s - 1``.  Those are the same steps:
    every state on an optimal chain is at its tail key, or a cheaper or
    shallower state would give a better answer from the same suffix.

    Returns the expansion sequence ``(0,1) -> ... -> (n',0)``, the n-leaf
    sequence read off it -- the level-``i`` expansion labels
    ``min(m_i, n) - m_{i-1}`` leaves -- and the chosen option index per
    level, or None for a plain ``LevelSpec``.

    All ``n' - n`` excess zero-weight leaves lie on the answer level: its
    step has ``b' >= 1``, since a ``(n', 0)`` predecessor would be an
    equal-cost, shallower answer, so ``m_{L-1} + b' <= n`` and every earlier
    ``m_i`` is below n.
    """
    level, nprime, cost = answer
    n = w.n
    sig: Sig = (nprime, 0)
    chain = [sig]
    chosen: list[int] = []
    i = level
    if tail:
        s = len(tables) - 1
        K = 2 * n + 2
        r, c = spec.levels[-1]
        key = cost * K + level
        for i in range(level, s - 1, -1):
            step = _attaining_step(tables[s].costs, sig, ((r, c * K),), w, key - 1)
            if step is None:
                raise InternalInconsistency(f"no predecessor attains the key of {sig} "
                                            f"at level {i}")
            _, sig, key = step
            chain.append(sig)
        cost, i = divmod(key, K)
    for i in range(i, 0, -1):
        step = _attaining_step(tables[i - 1].costs, sig, _level_options(spec, i), w, cost)
        if step is None:
            raise InternalInconsistency(f"no predecessor attains the cost of {sig} at level {i}")
        j, sig, cost = step
        chosen.append(j)
        chain.append(sig)
    if sig != (0, 1):
        raise InternalInconsistency(f"backtrace ended at {sig}, expected (0, 1)")
    chain.reverse()
    counts = {}
    for i in range(1, len(chain)):
        added = min(chain[i][0], n) - chain[i - 1][0]
        if added < 0:
            raise InternalInconsistency("leaf count decreased along the backtrace")
        if added:
            counts[i] = added
    options = tuple(reversed(chosen)) if isinstance(spec, ChoiceLevelSpec) else None
    return tuple(chain), LeafSequence(counts), options


def _index_to_word(index: int, radices: list[int]) -> tuple[int, ...]:
    word = []
    for r in reversed(radices):
        index, sym = divmod(index, r)
        word.append(sym)
    word.reverse()
    return tuple(word)


def leafseq_to_codewords(seq: LeafSequence, spec: LevelSpec, w: WeightSeq) -> CodeBook:
    """Deterministic codeword emission: leftmost slots become leaves.

    At each level the available slots (children of the previous level's
    internal nodes) form a contiguous range in the positional number system
    whose per-position radix is the level arity; taking the first ``count``
    as leaves keeps the remainder contiguous, so no slot set is ever
    materialized.  Words come out level by level, lengths non-decreasing.
    """
    if seq.total != w.n:
        raise InvalidLeafSequence(
            f"sequence has {seq.total} leaves but {w.n} codewords are needed"
        )
    deepest = seq.deepest
    if deepest > 0 and spec.num_levels < deepest:
        raise InvalidLeafSequence("level spec does not cover the sequence")
    words: list[tuple[int, ...]] = []
    lo, hi = 0, 1  # available slot range at the current level
    radices: list[int] = []
    for i in range(1, deepest + 1):
        r = spec.arity(i)
        radices.append(r)
        lo, hi = lo * r, hi * r
        count = seq.count(i)
        if count > hi - lo:
            raise InvalidLeafSequence(f"level {i} has {hi - lo} slots, needs {count}")
        for idx in range(lo, lo + count):
            words.append(_index_to_word(idx, radices))
        lo += count
    return CodeBook(
        words=tuple(words),
        lengths=tuple(len(word) for word in words),
        cost=cost_of_leaf_sequence(seq, w, spec),
    )
