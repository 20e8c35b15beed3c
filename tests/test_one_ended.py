import hashlib
import heapq
import itertools
import random
from collections import Counter

import pytest
from helpers import huffman_one_ended_words, random_weights

from prefixcodes import (
    UNREACHABLE,
    DPResult,
    InternalInconsistency,
    LeafSequence,
    LevelTable,
    OracleBudget,
    bench,
    check_prefix_free,
    enumerate_one_ended,
    normalize_weights,
    one_ended,
    solve_one_ended,
)
from prefixcodes.one_ended import _codewords_from_expansions, _incumbent, _oe_predecessors


class TestPredecessors:
    def test_first_expansion(self):
        assert _oe_predecessors((1, 1)) == [(0, 1)]

    def test_all_bad(self):
        assert _oe_predecessors((0, 2)) == [(0, 1)]

    def test_two_candidates(self):
        assert _oe_predecessors((2, 2)) == [(2, 1), (0, 2)]

    def test_lexicographic_progress(self):
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randint(1, 12)
            m = rng.randint(0, n)
            b = rng.randint(1, 2 * n - 1)
            for mp, bp in _oe_predecessors((m, b)):
                assert (mp, bp) < (m, b)
                assert mp < m or (mp == m and b == 2 * bp)


FROZEN = [
    # (weights, cost, words) frozen from the shape-enumeration oracle
    ([1, 1], 3, ((1,), (0, 1))),
    ([2, 1], 4, ((1,), (0, 1))),
    ([1, 1, 1], 6, ((1,), (0, 1), (0, 0, 1))),
    ([9], 9, ((1,),)),
    ([1], 1, ((1,),)),
]


# The code both tied instances below share, up to their word count.
TIED_WORDS = ((0, 1), (1, 1), (0, 0, 1), (1, 0, 1), (0, 0, 0, 1), (1, 0, 0, 1), (0, 0, 0, 0, 1))


class TestSolvers:
    @pytest.mark.parametrize("weights,cost,words", FROZEN)
    def test_frozen_instances_batched(self, weights, cost, words):
        res = solve_one_ended(normalize_weights(weights))
        assert res.cost == cost
        assert res.codebook.words == words

    @pytest.mark.parametrize("weights,cost,words", FROZEN)
    def test_frozen_instances_naive(self, weights, cost, words):
        res = solve_one_ended(normalize_weights(weights), algorithm="naive")
        assert res.cost == cost
        assert res.codebook.words == words

    @pytest.mark.parametrize("algorithm", ["naive", "batched"])
    @pytest.mark.parametrize("n,cost,chain", [
        (5, 14, ((0, 1), (0, 2), (2, 2), (4, 2), (5, 3))),
        # predecessors tie here; taking the largest b' first changes the chain
        (7, 23, ((0, 1), (0, 2), (2, 2), (4, 2), (6, 2), (7, 3))),
    ])
    def test_tied_weights_take_the_smallest_predecessor(self, algorithm, n, cost, chain):
        # frozen from the solver that stored its argmin predecessors
        res = solve_one_ended(normalize_weights([1] * n), algorithm=algorithm)
        assert res.cost == cost
        assert res.expansions == chain
        assert res.codebook.words == TIED_WORDS[:n]

    def test_all_words_end_in_one(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(1, 12)
            w = normalize_weights(random_weights(rng, n, lo=1))
            res = solve_one_ended(w)
            assert all(word[-1] == 1 for word in res.codebook.words)
            assert check_prefix_free(res.codebook.words)

    def test_lengths_match_expansions(self):
        rng = random.Random(19)
        for _ in range(20):
            n = rng.randint(1, 10)
            w = normalize_weights(random_weights(rng, n, lo=1))
            res = solve_one_ended(w)
            goods = {}
            for i in range(1, len(res.expansions)):
                added = res.expansions[i][0] - res.expansions[i - 1][0]
                if added:
                    goods[i] = added
            lengths = {}
            for length in res.codebook.lengths:
                lengths[length] = lengths.get(length, 0) + 1
            assert lengths == goods

    def test_no_one_internal_next_to_bottom(self):
        # with positive weights, expanding a weightless 1-node on the
        # next-to-last level can never be optimal, so every 1-child there
        # must carry a weight
        rng = random.Random(29)
        for _ in range(30):
            n = rng.randint(2, 12)
            w = normalize_weights(random_weights(rng, n, lo=1))
            res = solve_one_ended(w)
            depth = len(res.expansions) - 1
            bad = [()]
            for i in range(1, len(res.expansions)):
                goods = res.expansions[i][0] - res.expansions[i - 1][0]
                if i == depth - 1:
                    assert goods == len(bad), "bad 1-node next to the bottom"
                nxt = []
                for k, p in enumerate(bad):
                    nxt.append(p + (0,))
                    if k >= goods:
                        nxt.append(p + (1,))
                bad = nxt


# Weight draws for the agreement, oracle and backtrace tests.  Small ranges,
# all-equal weights and a geometric run ending in zeros make many predecessor
# windows and finished chains tie, which both fills must resolve to the same
# table and chain.
WEIGHT_DRAWS = {
    "0..50": lambda rng, n: random_weights(rng, n),
    "0..1": lambda rng, n: random_weights(rng, n, 0, 1),
    "0..2": lambda rng, n: random_weights(rng, n, 0, 2),
    "all-equal": lambda rng, n: [rng.randint(1, 50)] * n,
    "geometric-zero-tail": lambda rng, n: [(1 << rng.randint(0, 12)) >> i for i in range(n)],
}


class TestNaiveBatchedAgreement:
    def test_tables_answers_and_traces(self):
        for name, draw in WEIGHT_DRAWS.items():
            rng = random.Random(41)
            for _ in range(30):
                n = rng.randint(1, 40)
                w = normalize_weights(draw(rng, n))
                rb = solve_one_ended(w)
                rn = solve_one_ended(w, algorithm="naive")
                assert rb.cost == rn.cost, name
                assert rb.expansions == rn.expansions, name
                assert list(rb.table.costs.items()) == list(rn.table.costs.items()), name
        assert solve_one_ended(w, with_code=False).table is None
        assert isinstance(rb.table, LevelTable) and rb.table.level == 0

    @pytest.mark.parametrize("n", [100, 200])
    def test_long_windows(self, n):
        # windows of up to n/2 predecessors keep long runs in the deque
        for name, draw in WEIGHT_DRAWS.items():
            rng = random.Random(n)
            for _ in range(2):
                w = normalize_weights(draw(rng, n))
                rb = solve_one_ended(w)
                rn = solve_one_ended(w, algorithm="naive")
                assert rb.cost == rn.cost, name
                assert rb.expansions == rn.expansions, name
                assert list(rb.table.costs.items()) == list(rn.table.costs.items()), name


def _full_table(w):
    """The unpruned table below diagonal n, enumerated from the predecessor
    relation: every reachable state at its least cost."""
    n = w.n
    full = {(0, 1): 0}
    for m in range(n):
        for b in range(1, n - m):
            cands = [full[p] + w.suffix[p[0]] for p in _oe_predecessors((m, b)) if p in full]
            if cands and (m, b) != (0, 1):
                full[(m, b)] = min(cands)
    return full


def _bound(sig, v, w):
    """The lower bound of a state of cost v: ``c + W_m`` plus the capacity
    series ``W_{m+b} + W_{m+2b} + W_{m+4b} + ...`` over the indices below n,
    which is the exact two-level finish once ``m + 2b >= n``."""
    m, b = sig
    total, step = v + w.suffix[m], b
    while m + step < w.n:
        total += w.suffix[m + step]
        step += step
    return total


class TestResult:
    @pytest.mark.parametrize("algorithm", ["naive", "batched"])
    def test_result_is_a_dp_result(self, algorithm):
        for name, draw in WEIGHT_DRAWS.items():
            rng = random.Random(43)
            for _ in range(10):
                n = rng.randint(1, 40)
                w = normalize_weights(draw(rng, n))
                res = solve_one_ended(w, algorithm=algorithm)
                assert isinstance(res, DPResult), name
                assert res.level == len(res.expansions) - 1, name
                assert res.leaves_full == n, name
                assert res.leaf_sequence == LeafSequence(Counter(res.codebook.lengths)), name
                assert res.levels_filled is res.tables is res.options is None, name
                bare = solve_one_ended(w, algorithm=algorithm, with_code=False)
                assert bare.leaf_sequence is bare.codebook is bare.table is None, name
                assert (bare.cost, bare.level, bare.expansions, bare.cells_updated) == (
                    res.cost, res.level, res.expansions, res.cells_updated), name


class TestFullFill:
    @pytest.mark.parametrize("algorithm", ["naive", "batched"])
    def test_full_fill_keeps_every_state_and_the_answer(self, algorithm):
        # cutoff=False never lowers UB from infinity: the table is the whole
        # reachable table below diagonal n, in which the pruned one sits
        # entry for entry, and the answer and backtrace do not move
        for name, draw in WEIGHT_DRAWS.items():
            rng = random.Random(37)
            for _ in range(8):
                n = rng.randint(1, 60)
                w = normalize_weights(draw(rng, n))
                full = solve_one_ended(w, algorithm=algorithm, cutoff=False)
                cut = solve_one_ended(w, algorithm=algorithm)
                assert (full.cost, full.expansions, full.codebook.words) == (
                    cut.cost, cut.expansions, cut.codebook.words), (name, n)
                assert full.table.costs == _full_table(w), (name, n)
                assert all(full.table.costs.get(sig) == v
                           for sig, v in cut.table.costs.items()), (name, n)
                assert full.cells_updated >= cut.cells_updated, (name, n)


class TestTableView:
    """``table.costs`` of a solve with code: a read-only ``(m, b)`` view
    over the fill's diagonal rows, ``gmr.RowCosts``.  ``TestFullFill``
    holds the ``cutoff=False`` view against ``_full_table``."""

    def _views(self, weights):
        w = normalize_weights(weights)
        return w, [solve_one_ended(w, algorithm=a).table.costs for a in ("naive", "batched")]

    def test_get_returns_the_default_off_the_rows(self):
        w, views = self._views(bench.generate_weights(60, "zipf", 1))
        n = w.n
        for view in views:
            keys = list(view)
            last_b = {}  # d -> the largest stored b, where its row ends
            for m, b in keys:
                last_b[m + b] = max(b, last_b.get(m + b, 0))
            past_row = [(d - top - 1, top + 1) for d, top in last_b.items() if d > top]
            no_row = [(d - 1, 1) for d in range(2, n) if d not in last_b]
            assert past_row and no_row
            for sig in [(-1, 3), (-3, 1), (3, -1), (0, 0), (5, 0), (n, 1), (n - 1, 3),
                        (0, n + 5), (2**80, 0), (2**80, 1), *past_row, *no_row]:
                assert sig not in keys
                assert view.get(sig) is None and view.get(sig, "x") == "x", sig
                assert sig not in view
                with pytest.raises(KeyError):
                    view[sig]
            for sig in keys:
                assert sig in view and view.get(sig) == view[sig]
            assert view[(0, 1)] == 0

    def test_read_only(self):
        _, views = self._views([5, 4, 3, 2, 1])
        with pytest.raises(TypeError):
            views[1][(0, 1)] = 1
        with pytest.raises(TypeError):
            del views[1][(0, 1)]

    def test_len_order_and_equal_modes(self):
        for name, draw in WEIGHT_DRAWS.items():
            rng = random.Random(97)
            for _ in range(8):
                w, views = self._views(draw(rng, rng.randint(1, 120)))
                for view in views:
                    keys = list(view)
                    assert len(view) == len(keys) == len(set(keys)), name
                    # ascending diagonals, ascending m within one
                    assert keys == sorted(keys, key=lambda sig: (sum(sig), sig[0])), name
                    assert list(view.values()) == [view[sig] for sig in keys], name
                assert list(views[0].items()) == list(views[1].items()), name


def _heap_incumbent(w):
    """``_incumbent`` by a heap of ``(weight, merged)`` pairs: a leaf, 0,
    comes out before a sum of the same weight."""
    heap = [(x, 0) for x in w.weights]
    heapq.heapify(heap)
    cost = 0
    while len(heap) > 1:
        x, merged_x = heapq.heappop(heap)
        y, merged_y = heapq.heappop(heap)
        cost += x + y if merged_x or merged_y else 2 * x + y
        heapq.heappush(heap, (x + y, 1))
    return cost


class TestBounds:
    def test_incumbent_merges_as_a_heap_does(self):
        # the two-queue merge pops what the heap pops, ties included, so it
        # keeps the heap's cost; all-equal and 0..1 weights tie sums with leaves
        for name, draw in WEIGHT_DRAWS.items():
            rng = random.Random(89)
            for _ in range(60):
                w = normalize_weights(draw(rng, rng.randint(3, 200)))
                assert _incumbent(w) == _heap_incumbent(w), (name, w.n)

    def test_incumbent_is_at_least_the_optimum(self):
        budget = OracleBudget(max_n=12, max_depth=14)
        for name, draw in WEIGHT_DRAWS.items():
            rng = random.Random(71)
            for n in range(1, 13):
                w = normalize_weights(draw(rng, n))
                ub = _incumbent(w)
                assert (ub is None) == (n <= 2), name
                if ub is not None:
                    assert ub >= enumerate_one_ended(w, budget=budget), (name, n)

    def test_incumbent_is_the_cost_of_a_one_ended_code(self):
        for name, draw in WEIGHT_DRAWS.items():
            rng = random.Random(73)
            for _ in range(40):
                w = normalize_weights(draw(rng, rng.randint(3, 60)))
                words = huffman_one_ended_words(w.weights)
                assert len(words) == w.n and check_prefix_free(words), name
                assert all(word[-1] == 1 for word in words), name
                assert sum(x * len(word) for x, word in zip(w.weights, words)) == _incumbent(w)

    @pytest.mark.parametrize("algorithm", ["naive", "batched"])
    def test_steady_finish_is_a_real_code(self, algorithm):
        # every stored state (m, b) of cost c names a one-ended code: its chain
        # back to the seed, then (m + b, b), (m + 2b, b), ... and a last
        # expansion that places the rest, at cost c + W_m + W_{m+b} + ...;
        # that is what lets the fill lower UB to it
        budget = OracleBudget(max_n=12, max_depth=14)
        checked = 0
        for name, draw in WEIGHT_DRAWS.items():
            rng = random.Random(83)
            for n in [*range(1, 13), *(rng.randint(13, 60) for _ in range(6))]:
                w = normalize_weights(draw(rng, n))
                costs = solve_one_ended(w, algorithm=algorithm).table.costs
                want = enumerate_one_ended(w, budget=budget) if n <= 12 else None
                for (m, b), v in costs.items():
                    chain, sig = [(m, b)], (m, b)
                    while sig != (0, 1):  # the backtrace of solve_one_ended
                        sig = next(p for p in _oe_predecessors(sig)
                                   if costs.get(p, UNREACHABLE) + w.suffix[p[0]] == costs[sig])
                        chain.append(sig)
                    chain.reverse()
                    x = m
                    while x + b < n:
                        x += b
                        chain.append((x, b))
                    chain.append((n, 2 * b - (n - x)))
                    code = _codewords_from_expansions(chain, w)
                    assert len(code.words) == n and check_prefix_free(code.words), (name, n)
                    assert all(word[-1] == 1 for word in code.words), (name, n)
                    assert code.cost == v + sum(w.suffix[m:n:b]), (name, n, (m, b))
                    assert want is None or code.cost >= want, (name, n, (m, b))
                    checked += want is not None
        assert checked

    def test_bound_is_consistent(self):
        # a child (m + k, 2b - k) reached from (m, b) at cost c + W_m has a
        # bound at least the parent's, so a dropped state's descendants are
        # all dropped
        checked = 0
        for name, draw in WEIGHT_DRAWS.items():
            rng = random.Random(79)
            for n in range(1, 13):
                w = normalize_weights(draw(rng, n))
                full = _full_table(w)
                for (m, b), v in full.items():
                    for k in range(b + 1):
                        child = (m + k, 2 * b - k)
                        if child in full:
                            assert _bound(child, v + w.suffix[m], w) >= _bound((m, b), v, w), name
                            checked += 1
        assert checked


class TestNaiveFill:
    def test_naive_fill_agrees_with_predecessor_enumeration(self):
        # every stored state holds its value in the enumerated full table, and
        # every reachable state left out has a bound (`_bound`) above the
        # optimum; the naive fill reads at least each stored state's stored
        # predecessors and at most every enumerated predecessor of every
        # state below diagonal n
        dropped = 0
        for name, draw in WEIGHT_DRAWS.items():
            rng = random.Random(43)
            for n in range(1, 13):
                w = normalize_weights(draw(rng, n))
                res = solve_one_ended(w, algorithm="naive")
                costs = res.table.costs
                full = _full_table(w)
                sigs = [(m, b) for m in range(n) for b in range(1, n - m) if (m, b) != (0, 1)]
                assert costs[(0, 1)] == 0, name
                assert set(costs) <= set(full), name
                for sig, v in full.items():
                    if sig in costs:
                        assert costs[sig] == v, (name, sig)
                    else:
                        assert _bound(sig, v, w) > res.cost, (name, sig)
                        dropped += 1
                kept_reads = sum(p in costs for sig in costs if sig != (0, 1)
                                 for p in _oe_predecessors(sig))
                all_reads = sum(len(_oe_predecessors(sig)) for sig in sigs)
                assert kept_reads <= res.cells_updated <= all_reads, name
        assert dropped


class TestPrunedFill:
    def test_pruning_keeps_the_chain_and_drops_only_hopeless_states(self):
        # exactness of the bound: every state of the returned chain below
        # diagonal n is stored, every state the fill leaves out has a bound
        # above the optimum, and both fills store the same entries in the
        # same order
        dropped = 0
        for name, draw in WEIGHT_DRAWS.items():
            rng = random.Random(59)
            for _ in range(12):
                n = rng.randint(1, 60)
                w = normalize_weights(draw(rng, n))
                rb = solve_one_ended(w)
                rn = solve_one_ended(w, algorithm="naive")
                assert list(rb.table.costs.items()) == list(rn.table.costs.items()), name
                costs = rb.table.costs
                assert all(sig in costs for sig in rb.expansions if sum(sig) < n), (name, n)
                for sig, v in _full_table(w).items():
                    if sig not in costs:
                        assert _bound(sig, v, w) > rb.cost, (name, n, sig)
                        dropped += 1
        assert dropped

    def test_a_fill_without_a_finish_is_an_internal_error(self, monkeypatch):
        # an incumbent below the optimum would drop every finishing state
        monkeypatch.setattr(one_ended, "_incumbent", lambda w: 0)
        for algorithm in ("naive", "batched"):
            with pytest.raises(InternalInconsistency):
                solve_one_ended(normalize_weights([3, 2, 1]), algorithm=algorithm)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_seed_finishes(self, n):
        # for n <= 2 the seed's own two-level finish is the answer and the
        # table holds only the seed; n = 3 needs one expansion first
        for name, draw in WEIGHT_DRAWS.items():
            rng = random.Random(61)
            for _ in range(10):
                w = normalize_weights(draw(rng, n))
                want = enumerate_one_ended(w, budget=OracleBudget(max_n=3, max_depth=5))
                for algorithm in ("naive", "batched"):
                    res = solve_one_ended(w, algorithm=algorithm)
                    assert res.cost == want, (name, algorithm)
                    assert res.codebook.cost == want, (name, algorithm)
                    assert (list(res.table.costs) == [(0, 1)]) == (n <= 2), (name, algorithm)


def _tail(w, d, b):
    """The capacity series of ``(d - b, b)`` past its first two terms,
    ``W_{d+b} + W_{d+3b} + W_{d+7b} + ...`` over the indices below n."""
    total, j, step = 0, d + b, 2 * b
    while j < w.n:
        total += w.suffix[j]
        j += step
        step += step
    return total


def _window_min(w, costs, d, b, phi):
    """c of ``(d - b, b)``: the least ``c' + W_m'`` over the stored
    predecessors ``(d - 2b', b')`` of its window, b' up to phi."""
    return min([costs[(d - 2 * bp, bp)] + w.suffix[d - 2 * bp]
                for bp in range((b + 1) // 2, min(b, phi) + 1)
                if (d - 2 * bp, bp) in costs], default=UNREACHABLE)


def _unskipped_table(w):
    """The table of the store rule swept state by state, with no skip:
    diagonal d sweeps ``b = plo .. min(2 phi, d)`` over its stored
    predecessors' span, stores a state whose bound (``_bound``) is at most
    UB, and ends at its first ``b >= phi`` whose two-level part ``c + W_m +
    W_d`` exceeds UB.  UB starts at ``_incumbent`` and falls to each stored
    state's steady finish (its two-level finish once ``m + 2b >= n``)."""
    n, suffix = w.n, w.suffix
    costs = {(0, 1): 0}
    ub = _incumbent(w)
    for d in range(2, n):
        stored = [bp for bp in range(1, d // 2 + 1) if (d - 2 * bp, bp) in costs]
        if not stored:
            continue
        plo, phi = stored[0], stored[-1]
        for b in range(plo, min(2 * phi, d) + 1):
            m = d - b
            c = _window_min(w, costs, d, b, phi)
            if c + suffix[m] + suffix[d] > ub:
                if b >= phi:
                    break
                continue
            if _bound((m, b), c, w) <= ub:
                costs[(m, b)] = c
                ub = min(ub, c + sum(suffix[m:n:b]))
    return costs


def _derived_cells(w, costs, algorithm: str) -> int:
    """``cells_updated`` of a solve from its stored table, by the module
    docstring's rule: diagonal d's row spans ``[plo, phi]``, its least and
    greatest stored predecessor ``(d - 2b', b')``, and its sweep runs from
    ``b = plo`` to ``min(2 phi, d)``.  From ``b = phi`` on it ends at the
    first state whose two-level part ``c + W_m + W_d`` exceeds UB, and a
    state with ``d + b < n`` that it leaves out sends it on to the first b'
    whose series tail (``_tail``) fits in ``UB - c - W_m - W_d``, or to the
    first finishing b, ``n - d``.  There c is the least ``c' + W_m'`` over
    the window's stored predecessors, and UB is replayed in the sweep's
    ``(d, b)`` order: the least of ``_incumbent`` and the steady finishes
    ``c + W_m + W_{m+b} + ...`` (a two-level finish once ``m + 2b >= n``) of
    the states stored before ``(d - b, b)``, those on smaller diagonals or
    on d with a smaller b.  A batched diagonal spends one cell per row entry
    and per swept state, a naive state one per entry of its window within
    the row; a state the sweep jumps over spends none."""
    n, suffix = w.n, w.suffix
    finishes = {}  # d -> (b, steady finish) of its stored states
    for (m, b), v in costs.items():
        if (m, b) != (0, 1):
            finishes.setdefault(m + b, []).append((b, v + sum(suffix[m:n:b])))
    ub = _incumbent(w)
    cells = 0
    for d in range(2, n):
        stored = [bp for bp in range(1, d // 2 + 1) if (d - 2 * bp, bp) in costs]
        if stored:
            plo, phi = stored[0], stored[-1]
            end = min(2 * phi, d)
            swept, b = [], plo
            while b <= end:
                swept.append(b)
                if b < phi:
                    b += 1
                    continue
                m = d - b
                c = _window_min(w, costs, d, b, phi)
                room = min([ub] + [f for bf, f in finishes.get(d, ()) if bf < b]) - (
                    c + suffix[m] + suffix[d])
                if room < 0:
                    break
                if d + b < n and (m, b) not in costs:
                    b = next((bp for bp in range(b + 1, min(end, n - d - 1) + 1)
                              if _tail(w, d, bp) <= room), n - d)
                else:
                    b += 1
            if algorithm == "batched":
                cells += phi - plo + 1 + len(swept)
            else:
                cells += sum(min(b, phi) - max((b + 1) // 2, plo) + 1 for b in swept)
        ub = min([ub] + [f for _, f in finishes.get(d, ())])
    return cells


@pytest.mark.parametrize("algorithm", ["naive", "batched"])
def test_cells_follow_the_cell_definition(algorithm):
    # a row spans its least to its greatest stored predecessor, the holes
    # between them included; the table is the unskipped rule's, so the
    # jumps leave out only states that rule does not store
    for name, draw in WEIGHT_DRAWS.items():
        rng = random.Random(67)
        for _ in range(12):
            w = normalize_weights(draw(rng, rng.randint(1, 80)))
            res = solve_one_ended(w, algorithm=algorithm)
            assert res.table.costs == _unskipped_table(w), name
            assert res.cells_updated == _derived_cells(w, res.table.costs, algorithm), name
    for dist in ("uniform", "geometric"):
        w = normalize_weights(bench.generate_weights(300, dist, 1))
        res = solve_one_ended(w, algorithm=algorithm)
        assert res.table.costs == _unskipped_table(w), dist
        assert res.cells_updated == _derived_cells(w, res.table.costs, algorithm), dist


def test_pruned_table_is_a_fortieth_of_the_full_one():
    # n = 400: the full table below diagonal n holds 78,385 states; the bounds
    # keep 1,677 of them on uniform weights and 7,487 on Zipf weights
    kept = {dist: len(solve_one_ended(normalize_weights(bench.generate_weights(400, dist, 1)))
                      .table.costs) for dist in ("uniform", "zipf")}
    assert kept == {"uniform": 1_677, "zipf": 7_487}
    assert kept["uniform"] < 78_385 // 40 and kept["zipf"] < 78_385 // 10


@pytest.mark.parametrize("algorithm", ["naive", "batched"])
def test_table_stops_below_diagonal_n(algorithm):
    # any state with m + b >= n finishes within two levels of its
    # predecessor, so the table holds only the seed and diagonals below n
    n = 400
    res = solve_one_ended(normalize_weights(bench.generate_weights(n, "geometric", 1)),
                          algorithm=algorithm)
    assert all(m + b < n for m, b in res.table.costs if (m, b) != (0, 1))
    assert len(res.table.costs) < n * n // 2
    if algorithm == "batched":
        # these weights are 0 from position 21 on, so the bounds keep 70,699
        # of the 78,385 states: 35,359 candidates built and 70,718 states swept
        assert res.cells_updated == 106_077


def test_costs_match_enumeration():
    # independent of the answer scan: the memoized shape enumeration
    budget = OracleBudget(max_n=20, max_depth=22)
    for name, draw in WEIGHT_DRAWS.items():
        rng = random.Random(47)
        for n in range(7, 21):
            w = normalize_weights(draw(rng, n))
            want = enumerate_one_ended(w, budget=budget)
            for algorithm in ("naive", "batched"):
                assert solve_one_ended(w, algorithm=algorithm, with_code=False).cost == want, \
                    (name, n, algorithm)


# SHA-256 over (cost, expansions, codewords) of the instances below, frozen
# from the fill that swept every diagonal up to 3n - 1 and read the answer off
# diagonal n.  A change to the tie-break key shows up here.
BACKTRACE_SHA256 = "aa0f71904d6cd539a91de857264f9e2e59aafd2527c8a09bd7f24ad20b815abc"


def test_backtraces_are_pinned():
    digest = hashlib.sha256()
    for draw in WEIGHT_DRAWS.values():
        rng = random.Random(53)
        for _ in range(30):
            res = solve_one_ended(normalize_weights(draw(rng, rng.randint(1, 200))))
            digest.update(repr((res.cost, res.expansions, res.codebook.words)).encode())
    assert digest.hexdigest() == BACKTRACE_SHA256


class TestAgainstWordSetEnumeration:
    """Cross-check against the dumbest possible oracle: every prefix-free
    n-subset of short words ending in 1, costed directly."""

    @pytest.mark.parametrize("weights,max_len", [([1, 1], 4), ([2, 1], 4), ([1, 1, 1], 5)])
    def test_tiny_instances(self, weights, max_len):
        w = normalize_weights(weights)
        words = []
        for length in range(1, max_len + 1):
            for bits in itertools.product((0, 1), repeat=length - 1):
                words.append(bits + (1,))
        best = None
        for combo in itertools.combinations(words, w.n):
            if not check_prefix_free(combo):
                continue
            lengths = sorted(len(word) for word in combo)
            cost = sum(l * p for l, p in zip(lengths, w.weights))
            best = cost if best is None else min(best, cost)
        assert solve_one_ended(w).cost == best
