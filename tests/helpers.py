"""Shared generators, comparison helpers and test-side references for the
test suite."""

import heapq
import random
from itertools import chain

from prefixcodes import (
    UNREACHABLE,
    InvalidLeafSequence,
    LevelSpec,
    PrefixCodeError,
    normalize_weights,
)


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


def slot_digits(index: int, radices) -> tuple[int, ...]:
    """The word of slot ``index`` on a level below ``len(radices)`` levels of
    the given arities: its mixed-radix digits, most significant first."""
    word = []
    for r in reversed(radices):
        index, sym = divmod(index, r)
        word.append(sym)
    word.reverse()
    return tuple(word)


def telescoped_cost(expansions, w, spec: LevelSpec) -> int:
    """A backtrace's cost as the telescoped sum of c_i * W_{m_{i-1}}."""
    return sum((spec.depth(i) - spec.depth(i - 1)) * w.tail_weight(expansions[i - 1][0])
               for i in range(1, len(expansions)))


def valid_signature(m: int, b: int, n: int, arity: int) -> bool:
    """Validity of ``(m, b)`` on a level of the given arity, from the definition."""
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
    if not valid_signature(m, b, n, r):
        raise ValueError(f"({m}, {b}) is not a valid level-{i} signature")
    out = []
    for bp in range((b + r - 1) // r, (m + b) // r + 1):
        mp = m + b - r * bp
        if i == 1:
            ok = (mp, bp) == (0, 1)
        else:
            ok = valid_signature(mp, bp, n, spec.arity(i - 1))
        if ok:
            out.append((mp, bp))
    return sorted(out)


def tables_match(res_a, res_b) -> bool:
    """Bit-equality of all finite entries, stored in the same order."""
    if len(res_a.tables) != len(res_b.tables):
        return False
    for ta, tb in zip(res_a.tables, res_b.tables):
        if list(ta.costs.items()) != list(tb.costs.items()):
            return False
    return True


def assert_same_solution(res_a, res_b):
    assert res_a.cost == res_b.cost
    assert (res_a.level, res_a.leaves_full) == (res_b.level, res_b.leaves_full)
    assert res_a.levels_filled == res_b.levels_filled
    assert res_a.expansions == res_b.expansions
    assert res_a.leaf_sequence == res_b.leaf_sequence
    assert tables_match(res_a, res_b)


def tail_start(spec, n: int):
    """The first level of the constant suffix that a cut-off solve fills in
    one level-free table, or None: only plain specs of at least n levels get
    one.  Walks the levels back from the last while they offer its option."""
    if not isinstance(spec, LevelSpec) or spec.num_levels < n:
        return None
    s = spec.num_levels
    while s > 1 and spec.options(s - 1) == spec.options(s):
        s -= 1
    return s


def cut_tail_start(res, spec, n: int):
    """``tail_start`` if the cut-off result ``res`` ends in the level-free
    table, None if its level loop stopped before the tail."""
    s = tail_start(spec, n)
    return s if s is not None and res.levels_filled == s else None


def tail_keys(full_tables, s: int, n: int) -> dict:
    """The level-free table of levels s and deeper, rebuilt from the tables
    of a full-depth solve: per signature, the minimum of
    ``cost * (2n + 2) + level`` over levels s - 1 and deeper."""
    K = 2 * n + 2
    out = {}
    for table in full_tables[s - 1:]:
        for sig, v in table.costs.items():
            key = v * K + table.level
            if key < out.get(sig, UNREACHABLE):
                out[sig] = key
    return out


def assert_pruned_tail(tail: dict, full_tables, s: int, spec, w, cost: int):
    """The level-free table ``tail`` of a cut-off solve against the tables of
    a full-depth one: every kept entry is its ``tail_keys`` entry, and every
    dropped signature's bound -- its decoded cost plus ``c * W_m``, which is
    its cost when ``b = 0`` -- is above the answer's cost ``cost``."""
    keys = tail_keys(full_tables, s, w.n)
    c = spec.options(spec.num_levels)[0][1]
    for sig, v in tail.items():
        assert keys[sig] == v
    for m, b in keys.keys() - tail.keys():
        assert keys[(m, b)] // (2 * w.n + 2) + c * w.tail_weight(m) > cost


def table_entries(res, spec, n: int):
    """``(cost, level, sig)`` of every entry of a cut-off result's tables
    below the root, with the level-free table's keys decoded."""
    s = cut_tail_start(res, spec, n)
    for table in res.tables[1:]:
        for sig, v in table.costs.items():
            yield (*divmod(v, 2 * n + 2), sig) if table.level == s else (v, table.level, sig)


class InsufficientLeaves(PrefixCodeError):
    """A leaf sequence with fewer leaves than there are weights to place."""


def kraft_slack(seq, spec: LevelSpec) -> int:
    """Remaining node budget on the terminal level after placing all leaves.

    Zero means the tree is exactly full, positive means spare slots, negative
    means the sequence is unrealizable.  ``spec`` must cover the sequence.
    """
    slack = 1  # the root
    counts = dict(seq.items())
    for i in range(1, seq.deepest + 1):
        slack = slack * spec.arity(i) - counts.get(i, 0)
    return slack


def cost_of_leaf_sequence(seq, w, spec: LevelSpec) -> int:
    """Exact cost of a leaf sequence: weights are assigned shallowest-first.
    The tests' cost reference, apart from the emitter's own slot walk.

    Leaves beyond the real weight count carry weight zero, so padding a
    sequence with extra deep leaves never changes its cost.
    """
    if seq.deepest > 0 and spec.num_levels < seq.deepest:
        raise InvalidLeafSequence("level spec does not cover the sequence")
    if kraft_slack(seq, spec) < 0:
        raise InvalidLeafSequence(f"{seq!r} is not realizable under {spec!r}")
    if seq.total < w.n:
        raise InsufficientLeaves(f"{seq.total} leaves cannot host {w.n} weights")
    cost = 0
    placed = 0
    for level, count in seq.items():
        lo = min(placed, w.n)
        hi = min(placed + count, w.n)
        cost += spec.depth(level) * (w.suffix[lo] - w.suffix[hi])
        placed += count
    return cost


def finish_window(n: int, arities, d: int) -> list:
    """The ``b >= 1``, descending, with ``max(n, f) <= d + (f - 1) * b <=
    n + f - 1`` for some arity f: the union of each arity's range of b."""
    kept = set()
    for f in arities:
        kept.update(range(max(1, -((d - max(n, f)) // (f - 1))),
                          min(d, (n + f - 1 - d) // (f - 1)) + 1))
    return sorted(kept, reverse=True)


def reference_fill_level(prev: dict, n: int, r: int, c: int, suffix, mode: str, dense: bool,
                         cap=None, windows=None):
    """``gmr._fill_level`` as a hole-reading fold: every previous state
    pushes into its diagonal below ``n + r``, the last level's too, and each
    visited diagonal spreads its pushes into a candidate array ``b' = 0 ..
    B``, holes at UNREACHABLE, that both modes read entry by entry.
    ``windows`` maps each ``d <= n`` to its finish window."""
    costs = {}
    zeros = []
    cells = 0
    INF = UNREACHABLE
    batched = mode == "batched"
    finish_from = max(n, r)
    rows = {}
    for (m, b), v in prev.items():
        d = m + r * b
        if d < n + r:
            rows.setdefault(d, {})[b] = v + c * suffix[min(m, n)]
    if dense:
        reach = {d: d // r for d in chain(range(1, n + 1), range(max(n + 1, r), n + r))}
    else:
        reach = {d: max(rows[d]) for d in sorted(rows)}
    for d, B in reach.items():
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
        cand = [INF] * (B + 1)
        for bp, v in rows.get(d, {}).items():
            cand[bp] = v
        best = INF
        top = B + 1
        for b in listed:
            lo = (b + r - 1) // r
            if batched:
                while top > lo:
                    top -= 1
                    if cand[top] < best:
                        best = cand[top]
            else:
                cells += B + 1 - lo
                best = min(cand[lo:])
            if best < INF:
                costs[(d - b, b)] = best
                if not b:
                    zeros.append((d, best))
        if batched:
            cells += B + 1 - top + (len(listed) if len(listed) > 1 else 0)
    return costs, zeros, cells


def huffman_one_ended_words(weights) -> list:
    """The one-ended code whose cost ``one_ended._incumbent`` returns: per
    weight of the non-increasing ``weights``, its word.  A binary Huffman
    merge, lightest first and a leaf before a subtree of equal weight, joins
    two subtrees on the 0- and 1-edge; a leaf beside a subtree takes the
    1-edge, and of two sibling leaves the lighter takes the 0-edge and a
    trailing 1."""
    heap = [(x, 0, k, [(k, ())]) for k, x in enumerate(weights)]  # 0 marks a leaf
    heapq.heapify(heap)
    count = len(heap)
    while len(heap) > 1:
        x, internal_x, _, a = heapq.heappop(heap)
        y, internal_y, _, b = heapq.heappop(heap)
        if internal_x or internal_y:
            zero, one = (a, b) if internal_x else (b, a)
        else:
            zero, one = [(k, (1,)) for k, _ in a], b
        merged = [(k, (0,) + word) for k, word in zero] + [(k, (1,) + word) for k, word in one]
        heapq.heappush(heap, (x + y, 1, count, merged))
        count += 1
    return [word for _, word in sorted(heap[0][3])]
