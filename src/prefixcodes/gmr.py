"""Top-down dynamic program for generalized mixed-radix trees.

A truncated tree is summarized by a level signature ``(m, b)``: ``m`` leaves
labeled so far, ``b`` bottom-level nodes tagged for expansion.  Starting from
the root state ``(0, 1)``, each level-``i`` expansion turns every tagged node
into ``r_i`` children and charges ``c_i * W_m'`` -- one more edge length for
every still-unplaced weight.  The level tables map reachable valid signatures
to their minimum partial cost; absent entries mean UNREACHABLE.  The spec's
levels are the only depth limit: a spec of L levels admits trees of up to L levels.

Two fill strategies produce bit-identical tables, entries stored in the same
order.  Both group the states of one level whose signatures share
``d = m + b`` and list the states the diagonal may store (see
``_fill_level``).  Each previous state ``(m', b')`` feeds exactly one
diagonal, ``m' + r * b'``, so one pass over the previous level pushes its
candidate value ``gamma(b') = cost + c * W_m'`` into that diagonal's row.
Every listed state ``(m, b)`` takes its minimum over its window
``b' >= ceil(b / r)`` of the pushed ``b'``; holes are never read.  A
finished ``(d, 0)`` with ``d >= n`` also reads the previous level's
``(d, 0)``, which pushes its own cost at ``b' = 0``, since ``W_d = 0``.
``solve_naive`` takes each state's minimum over its own window;
``solve_batched`` folds one running minimum down the row, so a diagonal
costs O(d).

``cells_updated`` counts row spans, holes included, as the paper's fill
reads them: a naive state, or a diagonal's only listed state, its window up
to the row's bound B, and a batched diagonal of two or more states the span
from B down to its last listed window plus one cell per state.  The
level-free tail below counts its own way.

A fill visits only the diagonals that received a push, as Golin & Rote's
signature DP and Larmore & Hirschberg's package-merge work only on reachable
states; the spec's last level pushes only into the finished diagonals it
stores.  ``cutoff=False`` selects the paper's full, dense fill, which visits
every diagonal; it stores the same tables and counts more cells.

A cut-off solve with no level-free tail keeps on level i only the states
that can still finish, ``(m, b)`` with ``m + b * cap_i >= n``: ``cap_i`` is
``min(n, product of the largest arity of each level after i)``, and 0 on the
spec's last level L, which so keeps only finished trees.  Level ``L - 1``
instead keeps a state ``(m, b)`` with ``b >= 1`` only if some option arity
f of level L finishes it into a valid signature,
``max(n, f) <= m + f * b <= n + f - 1``: its finished child is
``(m + f * b, 0)``, the only kind of state the last level keeps.  This
finish window holds one or two b per diagonal and arity, where the cap keeps
every ``b >= 1`` once L's widest arity reaches n.  A state dropped by either
rule reaches no finished state, so it lies on no chain to the answer, and no
answer or backtrace moves.

``solve_choice`` is the one level loop, for a ``LevelSpec`` and a
``ChoiceLevelSpec`` alike; ``solve_naive`` and ``solve_batched`` are its
fixed-algorithm names.  A ``ChoiceLevelSpec``'s levels each offer several
(arity, edge length) options: every option is filled from the previous
combined table, and the combined entry is the per-signature minimum.  The
loop reads both spec types through ``spec.options(i)``; a ``LevelSpec``
level is a one-option level.

The level loop stops after the first level whose cheapest state costs at
least the best finished tree seen so far.  Expansions never lower a cost and
ties go to the shallower level, so no deeper level could change the answer or
its backtrace.  ``cutoff=False`` fills every level of the spec, and every
diagonal of each level, as the complexity harness measures.

A plain spec stores its levels up to s, the first level of its trailing
run, whose arity r and edge length c repeat through its level count (see
``LevelSpec``).  One of at least n levels -- Huffman from level 1,
mixed-radix (4, 2, 3) from level 3 -- fills levels ``1 .. s - 1`` one table
each and all deeper levels in one level-free table, as Golin & Rote's
signature DP does: there a state's future does not depend on its level, so
the table keeps each signature's least key ``cost * K + level`` (``K = 2n +
2``).  ``_fill_tail`` fills it in diagonal order; every predecessor lies on
a smaller diagonal, so a diagonal reads only finished entries.  Each state
of level ``s - 1`` seeds it as one more candidate of its own signature.

The tail keeps its keys diagonal-major, in the order it fills them.
``rows[d][b]`` holds the key of ``(d - b, b)`` for every ``d <= n``, the
``UNREACHABLE`` object marking a hole; the ``(n + 1)(n + 2) / 2`` slots are
allocated up front.  A predecessor ``(d - r * b', b')`` is read as
``rows[d - (r - 1) * b'][b']``, and a diagonal's run of stored states is
written as one slice.  Past n only the finished ``(d, 0)`` are valid, up to
``n + r - 1`` and, for a finished seed of level ``s - 1``, beyond: they go in
a dict by d, since rows would run to an arity past n.  ``tables[s].costs``
is ``RowCosts``, a read-only ``(m, b)`` mapping over both that iterates
over the diagonals in ascending d, each in ascending m, with the finished
states past n last.

The tail is pruned by a running bound, as the one-ended fill is.  A state
``(m, b)`` needs one more expansion, so its cost plus ``c * W_m`` bounds every
finish through it from below (for a finished ``(m, 0)``, ``W_m = 0``).  The
bound is consistent: a child costs that much.  UB is the least one-level
finish, cost plus ``c * W_m``, over the stored states with
``max(n, r) <= m + r * b <= n + r - 1``, finished states included.  A
diagonal stores a state only if its bound, with the cost read as
``key // K``, is at most UB, and UB is updated once the diagonal's stores and
seeds are done.  A dropped state's descendants would be dropped too, so every
stored entry keeps its unpruned key, level tie-break included, and every
state of an optimal chain is stored: no answer or backtrace moves.

On one diagonal the bound never falls as b grows: the window ``b' >=
ceil(b / r)`` shrinks and ``W_{d - b}`` grows.  So the states the row gives
a diagonal are ``(d, 0)``, where it is valid, and the run ``b = 1 ..
b_max``.  Diagonal d's row holds ``b' = 1 .. phi``, phi the largest
``b' <= d // r`` whose predecessor ``(d - r * b', b')`` is stored, the
largest stored predecessor; with none the diagonal reads nothing.  With a
row, d lists ``b = 1 .. r * phi`` if ``d <= n`` and ``(d, 0)`` from
``d = max(n, r)`` on, whose window is the whole row.  The two modes differ
only in how they take the window minima: ``solve_naive`` takes each distinct
window ``b' >= j`` on its own, ``phi * (phi + 1) / 2`` cells for ``d <= n``
and the whole row, phi cells, past n; ``solve_batched`` folds one running
minimum down the row, phi cells.  Both then find ``b_max`` by one bisection
and store the run; the batched mode also spends one cell per state it stores
from the row.  Seeds cost no cell.

The fills store costs only, so equal-cost predecessors are resolved in one
place: ``backtrack`` recovers each step from the previous level's costs,
trying options in index order and, within an option, predecessors in
ascending ``m'`` order (the largest ``b'`` on a diagonal).  Both fills
therefore share one backtrace.  A winning tree with n' > n leaves has all
its n' - n excess zero-weight leaves on the answer level, so the backtrace's
leaf sequence simply stops counting at n.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping
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
    from level s holds the keys of the states its running bound kept (see
    ``DPResult``), and the one-ended table, at level 0, the cost of every
    state it stores.  ``costs`` maps ``(m, b)`` to its value: a dict, or
    for those two ``RowCosts``, a read-only view over their rows."""

    level: int
    costs: Mapping[Sig, int]


class RowCosts(Mapping):
    """Read-only ``(m, b) -> value`` view of a diagonal-major table:
    ``rows[d][b]`` holds the value of ``(d - b, b)``, the ``UNREACHABLE``
    object marking a hole, and a row may stop short of ``b = d``, or be
    empty; ``far`` holds the finished ``(d, 0)`` past the rows by d.  It iterates over the diagonals in
    ascending d, each in ascending m, and the states in ``far`` last.
    The gmr tail and the one-ended fill return their tables as one."""

    __slots__ = ("rows", "far")

    def __init__(self, rows: list[list], far: dict[int, int]):
        self.rows = rows
        self.far = far

    def get(self, sig: Sig, default=None):
        m, b = sig
        d = m + b
        if m < 0 or b < 0:
            return default
        if d < len(self.rows):
            row = self.rows[d]
            v = row[b] if b < len(row) else UNREACHABLE
            return default if v is UNREACHABLE else v
        return default if b else self.far.get(d, default)

    def __getitem__(self, sig: Sig) -> int:
        v = self.get(sig)
        if v is None:
            raise KeyError(sig)
        return v

    def __iter__(self):
        for d, row in enumerate(self.rows):
            for b in range(len(row) - 1, -1, -1):
                if row[b] is not UNREACHABLE:
                    yield d - b, b
        for d in sorted(self.far):
            yield d, 0

    def __len__(self) -> int:
        return sum(len(row) - row.count(UNREACHABLE) for row in self.rows) + len(self.far)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())!r})"


@dataclass(frozen=True)
class DPResult:
    """Solver output.

    ``leaves_full`` is the leaf count n' of the winning full tree; its
    ``n' - n`` excess zero-weight leaves all lie on the answer level, and
    ``leaf_sequence`` leaves them out, so it holds exactly n leaves.
    ``tables``, ``expansions`` and ``leaf_sequence`` are
    present only when the solver ran with ``keep_tables=True``; the tables
    run from level 0 to ``levels_filled``, the last level the level loop
    filled before it stopped (see ``solve_choice``).  A solve that reached
    a level-free tail from level s on has ``levels_filled == s``, and
    ``tables[s]`` (its ``level`` is s) covers levels s and deeper: its values
    are keys ``cost * (2n + 2) + level``, the least per signature over levels
    ``s - 1`` and deeper, of the signatures whose bound stayed within the
    running best finish; a signature it drops cannot finish at or below the
    answer's cost (see the module docstring); its ``costs`` is a read-only
    ``(m, b)`` mapping over the tail's rows.  Without a tail, a cut-off
    table holds only the states that can still finish: the level before the
    spec's last only those that some last-level arity finishes into a valid
    signature, the last level only finished ones (see ``solve_choice``).
    One-ended answers are the subclass ``one_ended.OneEndedResult``: their
    DP has no levels, so ``levels_filled``, ``tables`` and ``options`` stay
    None, and they keep ``expansions`` in cost-only solves too.
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


class _FinishWindows(dict):
    """``d <= n ->`` the ``b >= 1``, descending, of the states ``(d - b, b)``
    on the level before a spec's last that some last-level arity f finishes
    into a valid signature, ``max(n, f) <= d + (f - 1) * b <= n + f - 1``:
    with ``q, rem = divmod(n - d, f - 1)``, ``b = q + 1``, and ``q`` too if
    ``rem == 0``, up to d.  Filled lazily per visited diagonal and shared by
    that level's options."""

    def __init__(self, n: int, arities):
        super().__init__()
        self.n = n
        self.steps = sorted(f - 1 for f in arities)

    def __missing__(self, d: int) -> list[int]:
        x, top = self.n - d, d + 1  # every b kept is below top: descending, no repeats
        self[d] = window = []
        for g in self.steps:  # f - 1 ascending: q never grows
            q = x // g
            if q + 1 < top:
                top = q + 1
                window.append(top)
            if 0 < q < top and not x % g:
                top = q
                window.append(q)
        return window


def _fill_level(prev: dict, costs: dict, n: int, r: int, c: int, suffix: tuple, mode: str,
                dense: bool, cap: int | None = None, windows: _FinishWindows | None = None):
    """Fill one option of a level from the previous level into ``costs``,
    the level's one table, storing a state only where it lowers the entry an
    earlier option left.  Returns ``(zeros, cells)``, ``zeros`` the
    ``(m, cost)`` of the finished states ``(m, 0)`` it stored, in ascending
    m, and ``cells`` the row spans (see the module docstring).

    One pass over ``prev`` pushes each state's candidate ``cost + c * W_m'``
    into its one diagonal ``m' + r * b'`` at ``b'``: below ``n + r``, where
    the level's signatures end, and with ``cap == 0`` only into the finished
    diagonals, ``max(n, r)`` on, the only ones that level lists a state on.
    A row keeps its pushed ``b'`` ascending in ``bs``, their candidates in
    ``vs``.  The diagonals are visited in ascending ``d``, each with a bound
    ``B``: the sparse map holds those with a row, ``B = bs[-1]``; ``dense``
    every diagonal ``1 .. n`` and every finished one, ``B = d // r``, as the
    paper's full fill visits them.  Both store the same entries, in order.

    Storage rule: a diagonal ``d <= n`` lists, in descending order, the b
    from ``r * B`` down to 1; with a ``cap`` (see ``solve_choice``) only down
    to ``ceil((n - d) / (cap - 1))``, with ``windows`` in place of a cap (the
    level before the spec's last; see ``_FinishWindows``) only the b its
    window keeps, and with ``cap == 0`` (the spec's last level) none.  From
    ``d = max(n, r)`` on, where ``(d, 0)`` is a valid finished state, it
    lists ``b = 0`` too, past n alone.  A listed state whose window holds no
    pushed candidate stays absent, and both modes store a diagonal's states
    in ascending m.  The naive mode takes each listed state's minimum over
    its window's ``vs``; the batched mode folds one running minimum down
    ``bs``, reading each pushed candidate once.
    """
    get = costs.get
    zeros: list[tuple[int, int]] = []
    cells = 0
    INF = UNREACHABLE
    batched = mode == "batched"
    finish_from = max(n, r)
    first = finish_from if cap == 0 else 0  # the last level lists only finished states
    rows: dict[int, dict[int, int]] = {}
    for (m, b), v in prev.items():
        d = m + r * b
        if first <= d < n + r:
            rows.setdefault(d, {})[b] = v + c * suffix[m] if b else v
    for d in chain(range(1, n + 1), range(max(n + 1, r), n + r)) if dense else sorted(rows):
        row = rows.get(d, {})
        bs = sorted(row)
        B = d // r if dense else bs[-1]
        # the listed b, descending; b = 0 only where (d, 0) is a valid finished state
        finished = d >= finish_from
        if d > n or cap == 0:
            listed = (0,) if finished else ()
        elif windows is None:
            low = 0 if finished else (n - d + cap - 2) // (cap - 1) if cap and d < n else 1
            listed = range(r * B, low - 1, -1)
        else:
            listed = [b for b in windows[d] if b <= r * B] + ([0] if finished else [])
        if not listed:
            continue
        vs = [row[b] for b in bs]
        k, best = len(bs), INF
        for b in listed:
            lo = (b + r - 1) // r
            if batched:
                while k and bs[k - 1] >= lo:
                    k -= 1
                    if vs[k] < best:
                        best = vs[k]
            else:
                cells += B + 1 - lo
                j = bisect_left(bs, lo)
                best = min(vs[j:]) if j < len(vs) else INF
            sig = (d - b, b)
            if best < get(sig, INF):
                costs[sig] = best
                if not b:
                    zeros.append((d, best))
        if batched:
            # the row span from B to the last window, plus one cell per state if two or more
            cells += B + 1 - lo + (len(listed) if len(listed) > 1 else 0)
    return zeros, cells


def _fill_tail(prev: dict, s: int, n: int, r: int, c: int, suffix: tuple, mode: str):
    """Fill the level-free table of levels s and deeper from level
    ``s - 1``'s table ``prev``, pruned by the running bound of the module
    docstring.  Returns ``(table, zeros, cells)`` as ``_fill_level`` does,
    with keys ``cost * K + level`` in place of costs and ``table`` a
    ``RowCosts`` view of the rows.

    Each diagonal reads its row up to the largest stored predecessor and
    builds its window minima ``suf``, naive or batched; one bisection, one
    slice store of the run ``b = 1 .. lo`` and one finished-state test serve
    both."""
    K = 2 * n + 2
    INF = UNREACHABLE
    r1 = r - 1
    rows = [[INF] * (d + 1) for d in range(n + 1)]  # rows[d][b]: the key of (d - b, b)
    far: dict[int, int] = {}  # d -> the key of a finished (d, 0) past n
    seeds: dict[int, list] = {}
    for (m, b), v in prev.items():
        seeds.setdefault(m + b, []).append((m, b, v * K + s - 1))
    zeros: list[tuple[int, int]] = []
    cells = 0
    batched = mode == "batched"
    cw = [c * K * x for x in suffix]  # c * W_m in key units
    grow = [x + 1 for x in cw]  # an expansion from m' adds grow[m'] to the key
    finish_from = max(n, r)
    limit = INF  # a key v at (m, b) is stored iff v + cw[m] < limit = (UB + 1) * K

    def merge(pairs):
        # a seed is one more candidate of its state, under the diagonal's UB
        for m, b, v in pairs:
            if v + (cw[m] if b else 0) < limit:
                d = m + b
                if d > n:
                    if v < far.get(d, INF):
                        far[d] = v
                elif v < rows[d][b]:
                    rows[d][b] = v

    for d in chain(range(1, n + 1), range(max(n + 1, r), n + r)):
        phi = d // r  # (d - r * b', b') is rows[d - (r - 1) * b'][b']
        while phi and rows[d - r1 * phi][phi] is INF:
            phi -= 1
        if phi:
            preds = zip(range(d - r1 * phi, d, r1), range(phi, 0, -1), range(d - r * phi, d, r))
            # suf[phi - j]: the least candidate of the b' >= j
            if batched:  # one running minimum down the row
                suf, v = [], INF
                for dp, bp, mp in preds:
                    x = rows[dp][bp] + grow[mp]
                    if x < v:
                        v = x
                    suf.append(v)
            else:  # each distinct window on its own; past n only (d, 0)'s, the whole row
                row = [rows[dp][bp] + grow[mp] for dp, bp, mp in preds]
                suf = [min(row[:k]) for k in range(1, phi + 1)] if d <= n else [min(row)]
            cells += phi if batched or d > n else phi * (phi + 1) // 2
            lo, up = 0, r * phi if d <= n else 0  # the bound never falls as b grows
            while lo < up:
                mid = (lo + up + 1) // 2
                if suf[phi - (mid + r - 1) // r] + cw[d - mid] < limit:
                    lo = mid
                else:
                    up = mid - 1
            if lo:
                rows[d][1:lo + 1] = [suf[phi - (b + r1) // r] for b in range(1, lo + 1)]
            v = suf[-1]
            finished = d >= finish_from and v < limit  # a finished state's bound is its cost
            if finished:
                if d > n:
                    far[d] = v
                else:
                    rows[d][0] = v
                zeros.append((d, v))
            if batched:  # one cell per state stored from the row
                cells += lo + finished
        pairs = seeds.pop(d, None)
        if pairs:
            merge(pairs)
        # UB: the least one-level finish of the diagonal's states, those with
        # max(n, r) <= m + r * b <= n + r - 1; past n that is (d, 0) alone
        row = rows[d] if d <= n else [far.get(d, INF)]
        for b in range(max(0, (finish_from - d + r - 2) // r1), min(d, (n + r - 1 - d) // r1) + 1):
            v = row[b]
            if v is not INF:
                limit = min(limit, ((v + (cw[d - b] if b else 0)) // K + 1) * K)
    for pairs in seeds.values():  # finished seeds on diagonals the loop skips
        merge(pairs)
    return RowCosts(rows, far), zeros, cells


def _tail_start(spec, n: int) -> int | None:
    """The first level s of the constant suffix that a cut-off
    ``solve_choice`` fills in one level-free table, or None.  That takes a
    plain spec of at least n levels: d = m + b grows by at least 1 per
    level, so no tree is deeper than n levels and the spec never ends a tail
    chain early.  s is the number of pairs the ``LevelSpec`` stores, the
    last of which repeats through its count."""
    if isinstance(spec, ChoiceLevelSpec) or spec.num_levels < n:
        return None
    return len(spec.levels)


def solve_choice(w: WeightSeq, spec: LevelSpec | ChoiceLevelSpec, *,
                 algorithm: str = "batched", keep_tables: bool = True,
                 cutoff: bool = True) -> DPResult:
    """Minimum-cost tree over the levels of ``spec``, plain and choice alike:
    the one level loop, filling each level by ``algorithm``.  For a choice
    spec the result's ``options`` holds the chosen option index per level
    of the backtrace.

    With ``cutoff`` the loop stops after the first level whose cheapest
    state costs at least the best finished ``(m, 0)`` seen so far, or that
    is empty.  Every expansion adds ``c * W_m >= 0``, so no deeper state can
    cost less than its level-``i`` ancestor, and ties between finished trees
    go to the shallower level: no deeper level can change the answer or its
    backtrace.  An empty level leaves every later level empty.  The stop
    reads only table values, so naive and batched fills stop at the same
    level.  Each level fills only the diagonals its previous level reaches
    (see ``_fill_level``).

    Without a tail, level i keeps only the states ``(m, b)`` with
    ``m + b * cap_i >= n`` (see the module docstring): a tagged node becomes
    at most ``cap_i`` leaves in the levels left.  On level ``L - 1`` of a
    spec of L >= 2 levels the finish windows of level L's arities replace
    the cap: a ``b >= 1`` state that none of them finishes has no valid
    finished child, and no level follows L.  The windows are computed once
    per visited diagonal and shared by that level's options.  Both rules
    only drop states, so the loop stops at the same level or an earlier one.

    ``cutoff=False`` selects the paper's full, dense fill, as the complexity
    harness measures: every level of the spec, every diagonal of each level,
    every state, and no level-free tail.

    Where ``_tail_start`` finds a constant tail from level s on, the loop
    fills levels ``1 .. s - 1`` only.  From level s on a state's future does
    not depend on its level, so ``_fill_tail`` fills a single table in
    diagonal order, keyed ``cost * K + level`` with ``K = 2n + 2``: one
    integer minimum keeps the cheapest state and, among equal costs, the
    shallowest.  It is seeded with level s - 1 at keys ``cost * K + s - 1``
    and stores only the states whose bound stays within the running best
    finish (see the module docstring).

    A level counts the cells of each of its options' fills, plain and choice
    levels alike; storing into the level's one table costs no cell of its own.
    """
    check_algorithm(algorithm)
    n = w.n
    tail = _tail_start(spec, n) if cutoff else None
    last = spec.num_levels
    caps = {}
    windows = None
    if cutoff and tail is None:
        caps[last] = 0
        if last >= 2:
            arities = {r for r, _ in spec.options(last)}
            windows = _FinishWindows(n, arities)
            prod = min(n, max(arities))
            for i in range(last - 1, 1, -1):
                prod = min(n, prod * max(r for r, _ in spec.options(i)))
                caps[i - 1] = prod
    prev: dict[Sig, int] = {(0, 1): 0}
    tables = [LevelTable(0, prev)]
    best = (UNREACHABLE,)  # (cost, level, n');  tuple order implements the tie-break
    cells = 0
    levels_filled = 0
    for i in range(1, last + 1 if tail is None else tail):
        costs: dict[Sig, int] = {}
        for r, c in spec.options(i):
            zeros, k = _fill_level(prev, costs, n, r, c, w.suffix, algorithm, dense=not cutoff,
                                   cap=caps.get(i), windows=windows if i == last - 1 else None)
            cells += k
            # a finished state an option does not store is no better than
            # one already in ``best``
            best = min([best, *[(v, i, m) for m, v in zeros]])
        if keep_tables:
            tables.append(LevelTable(i, costs))
        prev = costs
        levels_filled = i
        if cutoff and min(costs.values(), default=UNREACHABLE) >= best[0]:
            break
    else:
        if tail is not None:
            K = 2 * n + 2
            table, zeros, k = _fill_tail(prev, tail, n, *spec.levels[-1], w.suffix, algorithm)
            cells += k
            best = min([best, *[(*divmod(key, K), m) for m, key in zeros]])
            if keep_tables:
                tables.append(LevelTable(tail, table))
            levels_filled = tail
    if best[0] == UNREACHABLE:
        raise NoFeasibleTree(f"no full tree with >= {n} leaves within {spec.num_levels} levels")
    cost, level, nprime = best
    expansions = leaf_sequence = options = None
    if keep_tables:
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
        tables=tuple(tables) if keep_tables else None,
        options=options,
    )


def solve_naive(w: WeightSeq, spec: LevelSpec, *, keep_tables: bool = True,
                cutoff: bool = True) -> DPResult:
    """:func:`solve_choice` by direct minimization over predecessors."""
    return solve_choice(w, spec, algorithm="naive", keep_tables=keep_tables, cutoff=cutoff)


def solve_batched(w: WeightSeq, spec: LevelSpec, *, keep_tables: bool = True,
                  cutoff: bool = True) -> DPResult:
    """:func:`solve_choice` by the batched fill; identical tables and answer
    as :func:`solve_naive`."""
    return solve_choice(w, spec, algorithm="batched", keep_tables=keep_tables, cutoff=cutoff)


def _attaining_step(prev: Mapping, sig: Sig, options, w: WeightSeq, cost: int):
    """``(option index, predecessor, its cost)`` of the first candidate of
    ``sig`` whose cost plus ``c * W_m'`` is ``cost``; None if none is."""
    m, b = sig
    d = m + b
    for j, (r, c) in enumerate(options):
        if not b and not max(w.n, r) <= m <= w.n + r - 1:
            continue  # no valid finished state of arity r
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
    levels s and deeper (see ``solve_choice``).  Its steps take the first
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
        step = _attaining_step(tables[i - 1].costs, sig, spec.options(i), w, cost)
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


def leafseq_to_codewords(seq: LeafSequence, spec: LevelSpec, w: WeightSeq) -> CodeBook:
    """Deterministic codeword emission: leftmost slots become leaves.

    At each level the free slots (children of the previous level's internal
    nodes) form a contiguous range in the positional number system whose
    per-position radix is the level arity; taking the first ``count`` as
    leaves keeps the remainder contiguous, so no slot set is ever
    materialized.  One walk keeps the digits of the level's first free slot:
    a new level appends a 0 digit (the first child of the first internal
    node), and each leaf emits its word and steps to the next slot with a
    mixed-radix carry.  The same walk sums the cost, ``depth(i)`` times the
    weight of the leaves placed on level ``i``.  Words come out level by
    level, lengths non-decreasing.
    """
    if seq.total != w.n:
        raise InvalidLeafSequence(
            f"sequence has {seq.total} leaves but {w.n} codewords are needed"
        )
    deepest = seq.deepest
    if deepest > 0 and spec.num_levels < deepest:
        raise InvalidLeafSequence("level spec does not cover the sequence")
    counts = dict(seq.items())
    radices = [spec.arity(i) for i in range(1, deepest + 1)]
    words: list[tuple[int, ...]] = []
    word: list[int] = []  # digits of the first free slot on the current level
    free, cost = 1, 0  # free slots on the current level, cost of the words so far
    for i in range(1, deepest + 1):
        word.append(0)
        free *= radices[i - 1]
        count = counts.get(i, 0)
        if count > free:
            raise InvalidLeafSequence(f"level {i} has {free} slots, needs {count}")
        free -= count
        cost += spec.depth(i) * (w.suffix[len(words)] - w.suffix[len(words) + count])
        for _ in range(count):
            words.append(tuple(word))
            for p in range(i - 1, -1, -1):
                word[p] = (word[p] + 1) % radices[p]
                if word[p]:
                    break
    return CodeBook(words=tuple(words), lengths=tuple(map(len, words)), cost=cost)
