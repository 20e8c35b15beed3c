import math
import random

import pytest
from helpers import (
    assert_pruned_tail,
    assert_same_solution,
    cost_of_leaf_sequence,
    cut_tail_start,
    finish_window,
    kraft_slack,
    predecessors,
    random_gmr_instance,
    random_weights,
    reference_fill_level,
    slot_digits,
    table_entries,
    tail_start,
    telescoped_cost,
    valid_signature,
    walk_codewords,
)

from prefixcodes import (
    UNREACHABLE,
    ChoiceLevelSpec,
    InternalInconsistency,
    InvalidLeafSequence,
    LeafSequence,
    LevelSpec,
    LevelTable,
    MixedRadixSpec,
    NoFeasibleTree,
    OracleBudget,
    ReservedSpec,
    check_prefix_free,
    enumerate_gmr,
    huffman_greedy,
    leafseq_to_codewords,
    normalize_weights,
    problems,
    solve_batched,
    solve_choice,
    solve_huffman_reference_adapter,
    solve_mixed_radix,
    solve_naive,
    solve_reserved_given,
)
from prefixcodes.gmr import _fill_level, _FinishWindows, backtrack

BINARY = lambda k: LevelSpec.constant(2, 1, k)  # noqa: E731


class TestPredecessors:
    """The test-side enumerator that checks the naive fill below."""

    def test_forced_single(self):
        assert predecessors(2, (2, 1), BINARY(2), 4) == [(1, 1)]

    def test_no_predecessor(self):
        assert predecessors(1, (0, 1), BINARY(1), 4) == []

    def test_finished_state_with_self(self):
        # enumerated and validity-checked by hand: m' + 3b' = 3, b = 0
        assert predecessors(2, (3, 0), LevelSpec.constant(3, 1, 2), 3) == [(0, 1), (3, 0)]

    def test_rejects_invalid_signature(self):
        with pytest.raises(ValueError):
            predecessors(1, (1, 4), BINARY(1), 4)  # m + b > n


class TestSolvers:
    @pytest.mark.parametrize("solver", [solve_naive, solve_batched])
    def test_balanced_binary(self, solver):
        res = solver(normalize_weights([1, 1, 1, 1]), BINARY(4))
        assert res.cost == 8
        assert res.expansions == ((0, 1), (0, 2), (4, 0))
        assert res.leaf_sequence == LeafSequence({2: 4})

    @pytest.mark.parametrize("solver", [solve_naive, solve_batched])
    def test_huffman_oracle_value(self, solver):
        assert solver(normalize_weights([3, 2, 1, 1]), BINARY(4)).cost == 13

    @pytest.mark.parametrize("solver", [solve_naive, solve_batched])
    def test_single_weight_costs_one_edge(self, solver):
        res = solver(normalize_weights([5]), BINARY(1))
        assert res.cost == 5
        assert res.expansions == ((0, 1), (2, 0))
        assert res.leaf_sequence == LeafSequence({1: 1})

    def test_two_level_mixed_arity(self):
        # frozen from the exhaustive oracle
        res = solve_batched(normalize_weights([1] * 5), LevelSpec([(2, 1), (3, 1)]))
        assert res.cost == 10

    def test_infeasible_raises(self):
        with pytest.raises(NoFeasibleTree):
            solve_batched(normalize_weights([1] * 5), BINARY(2))

    @pytest.mark.parametrize("solver", [solve_naive, solve_batched])
    def test_spec_shorter_than_n_fills_its_levels(self, solver):
        # reserved lengths 1 and 3: a binary level, then one of arity 4 and
        # edge length 2; the spec, not n, bounds the depth
        w = normalize_weights([5, 4, 3, 2, 1])
        levels = [(2, 1), (4, 2)]
        res = solver(w, LevelSpec(levels))
        assert res.cost == 35
        assert res.expansions == ((0, 1), (1, 1), (5, 0))
        choice = solve_choice(w, ChoiceLevelSpec([[lv] for lv in levels]))
        assert (choice.cost, choice.expansions) == (res.cost, res.expansions)
        assert solve_reserved_given(w, ReservedSpec(2, (1, 3))).dp.cost == 35

    def test_cost_only_mode_skips_tables(self):
        res = solve_batched(normalize_weights([3, 2, 1, 1]), BINARY(4), keep_tables=False)
        assert res.cost == 13
        assert res.tables is None and res.expansions is None


def _answer(solve, w, spec):
    """The answer of a cut-off and a full-depth solve as ``(level, n', cost)``,
    each checked against a scan of every finished ``(n', 0)`` state in its
    tables, the level-free tail's keys decoded: minimum cost, then the
    smallest level, then the smallest leaf count."""
    answers = set()
    for cutoff in (True, False):
        res = solve(w, spec, cutoff=cutoff)
        if cutoff:
            entries = table_entries(res, spec, w.n)
        else:
            entries = ((v, t.level, sig) for t in res.tables[1:] for sig, v in t.costs.items())
        scanned = min((v, level, m) for v, level, (m, b) in entries if b == 0)
        assert (res.cost, res.level, res.leaves_full) == scanned
        answers.add((res.level, res.leaves_full, res.cost))
    (answer,) = answers
    return answer


class TestExtractAnswer:
    def test_balanced(self):
        w = normalize_weights([1, 1, 1, 1])
        assert _answer(solve_batched, w, BINARY(4)) == (2, 4, 8)

    def test_three_weights(self):
        # oracle-frozen: the optimal full tree has 3 leaves (1 + 2), cost 5
        w = normalize_weights([1, 1, 1])
        assert _answer(solve_naive, w, BINARY(3)) == (2, 3, 5)

    def test_wide_root(self):
        w = normalize_weights([1, 1])
        assert _answer(solve_batched, w, LevelSpec.constant(4, 1, 2)) == (1, 4, 2)


class TestBacktrack:
    def test_balanced_chain(self):
        # the cut-off solve keeps the level-free tail of BINARY(4), the
        # full-depth solve one table per level
        w = normalize_weights([1, 1, 1, 1])
        for cutoff in (True, False):
            res = solve_batched(w, BINARY(4), cutoff=cutoff)
            chain, full, options = backtrack(res.tables, (res.level, res.leaves_full, res.cost),
                                             BINARY(4), w, tail=cutoff)
            assert chain == ((0, 1), (0, 2), (4, 0))
            assert full == LeafSequence({2: 4})
            assert options is None

    def test_skewed_chain(self):
        res = solve_batched(normalize_weights([4, 1, 1]), BINARY(3))
        assert res.expansions == ((0, 1), (1, 1), (3, 0))
        assert res.leaf_sequence == LeafSequence({1: 1, 2: 2})

    def test_single_weight_pruned(self):
        res = solve_batched(normalize_weights([5]), BINARY(1))
        assert res.expansions == ((0, 1), (2, 0))
        assert res.leaf_sequence == LeafSequence({1: 1})

    @pytest.mark.parametrize("solve", [solve_naive, solve_batched])
    @pytest.mark.parametrize("weights,answer,chain,seq", [
        ([1] * 6, (3, 6, 16), ((0, 1), (0, 2), (2, 2), (6, 0)), {2: 2, 3: 4}),
        # every candidate ties; taking the largest m' first changes the chain
        ([0] * 5, (3, 5, 0), ((0, 1), (1, 1), (1, 2), (5, 0)), {1: 1, 3: 4}),
    ])
    def test_tied_weights_take_the_smallest_predecessor(self, solve, weights, answer,
                                                        chain, seq):
        # values frozen from the solver that stored its argmin predecessors
        res = solve(normalize_weights(weights), BINARY(len(weights)))
        assert (res.level, res.leaves_full, res.cost) == answer
        assert res.expansions == chain
        assert res.leaf_sequence == LeafSequence(seq)

    def test_bumped_cost_breaks_the_backtrace(self):
        w = normalize_weights([4, 1, 1])
        for cutoff in (True, False):
            res = solve_batched(w, BINARY(3), cutoff=cutoff)
            answer = (res.level, res.leaves_full, res.cost)
            # on the chain (0,1) -> (1,1) -> (3,0); a tail key counts cost in
            # units of K = 2n + 2.  The tail's table is read-only: bump a copy.
            costs = res.tables[1].costs
            bumped = costs[(1, 1)] + (2 * 3 + 2 if cutoff else 1)
            tables = (res.tables[0], LevelTable(1, {**costs, (1, 1): bumped}), *res.tables[2:])
            with pytest.raises(InternalInconsistency):
                backtrack(tables, answer, BINARY(3), w, tail=cutoff)


class TestPrune:
    """The leaf sequence leaves out the excess zero-weight leaves, which all
    lie on the answer level."""

    def test_prunes_deepest(self):
        # a full ternary tree has an odd leaf count: 5 for 4 weights
        for solve in (solve_naive, solve_batched):
            res = solve(normalize_weights([1, 1, 1, 1]), LevelSpec.constant(3, 1, 4))
            assert (res.cost, res.level, res.leaves_full) == (6, 2, 5)
            assert res.expansions == ((0, 1), (2, 1), (5, 0))
            assert res.leaf_sequence == LeafSequence({1: 2, 2: 2})

    def test_noop_when_exact(self):
        res = solve_batched(normalize_weights([4, 1, 1]), BINARY(3))
        assert res.leaves_full == 3
        assert res.leaf_sequence == LeafSequence({1: 1, 2: 2})

    def test_shallow_only(self):
        for arity in (4, 2**70):
            res = solve_batched(normalize_weights([1, 1]), LevelSpec.constant(arity, 1, 2))
            assert (res.level, res.leaves_full) == (1, arity)
            assert res.leaf_sequence == LeafSequence({1: 2})


class TestCodewords:
    def test_leftmost_rule(self):
        w = normalize_weights([4, 1, 1])
        cb = leafseq_to_codewords(LeafSequence({1: 1, 2: 2}), BINARY(2), w)
        assert cb.words == ((0,), (1, 0), (1, 1))
        assert cb.lengths == (1, 2, 2)
        assert cb.cost == 8

    def test_complete_level(self):
        w = normalize_weights([1, 1, 1, 1])
        cb = leafseq_to_codewords(LeafSequence({2: 4}), BINARY(2), w)
        assert cb.words == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_partial_level(self):
        w = normalize_weights([1, 1])
        cb = leafseq_to_codewords(LeafSequence({1: 2}), LevelSpec([(3, 1)]), w)
        assert cb.words == ((0,), (1,))

    def test_huge_arity_words(self):
        w = normalize_weights([1, 1])
        spec = LevelSpec([(2**40, 1)])
        cb = leafseq_to_codewords(LeafSequence({1: 2}), spec, w)
        assert cb.words == ((0,), (1,))

    def test_words_are_consecutive_slots_randomized(self):
        # arities past 2**64, edges > 1, levels with no leaves, and full
        # levels, whose carries run into the first digit
        rng = random.Random(23)
        full = 0
        for _ in range(400):
            levels = [(rng.choice((2, 2, 3, 5, 2**64 + 3)), rng.randint(1, 3))
                      for _ in range(rng.randint(1, 6))]
            counts, free = {}, 1
            for i, (r, _) in enumerate(levels, start=1):
                free *= r
                whole = free if free <= 24 else 1  # the full level, where it is small
                counts[i] = rng.choice((0, whole, rng.randint(0, min(free, 6))))
                free -= counts[i]
                if free == 0:
                    full += 1
                    break
            seq = LeafSequence(counts)
            if seq.total == 0:
                continue
            spec = LevelSpec(levels)
            w = normalize_weights(random_weights(rng, seq.total))
            cb = leafseq_to_codewords(seq, spec, w)
            expected, lo = [], 0
            for i in range(1, seq.deepest + 1):
                lo *= spec.arity(i)
                radices = [spec.arity(j) for j in range(1, i + 1)]
                count = counts.get(i, 0)
                expected += [slot_digits(x, radices) for x in range(lo, lo + count)]
                lo += count
            assert cb.words == tuple(expected)
            assert cb.lengths == tuple(map(len, expected))
            assert cb.cost == cost_of_leaf_sequence(seq, w, spec)
        assert full > 0

    def test_block_emission_matches_the_word_walk_randomized(self):
        # radices 2..7 and 2**70, levels with fewer leaves than their radix,
        # counts over several aligned blocks, and levels whose first free
        # slot lies inside a larger block
        rng = random.Random(33)
        seen = dict(below=0, several=0, mid=0, huge=0)
        for _ in range(300):
            levels = [(rng.choice((2, 3, 4, 5, 6, 7, 2, 2**70)), rng.randint(1, 3))
                      for _ in range(rng.randint(1, 7))]
            counts, free, lo = {}, 1, 0
            for i, (r, _) in enumerate(levels, start=1):
                free, lo = free * r, lo * r
                small = min(r, 60)
                count = rng.choice((0, rng.randint(1, small - 1), rng.randint(small, 3 * small + 5),
                                    rng.randint(0, 400)))
                counts[i] = count = min(count, free - (i < len(levels)))
                if count:
                    prev_r = levels[i - 2][0] if i > 1 else 1
                    seen["below"] += count < r
                    seen["several"] += count >= 3 * r
                    seen["mid"] += count >= r and lo % (r * prev_r) != 0
                    seen["huge"] += r == 2**70
                free, lo = free - count, lo + count
            seq = LeafSequence(counts)
            if seq.total == 0:
                continue
            spec = LevelSpec(levels)
            w = normalize_weights(random_weights(rng, seq.total))
            cb = leafseq_to_codewords(seq, spec, w)
            assert (cb.words, cb.lengths, cb.cost) == walk_codewords(seq, spec, w)
        assert min(seen.values()) >= 20, seen

    @pytest.mark.parametrize("counts, n, message", [
        ({1: 1, 2: 1}, 3, "sequence has 2 leaves but 3 codewords are needed"),
        ({1: 1, 3: 1}, 2, "level spec does not cover the sequence"),
        ({1: 1, 2: 3}, 4, "level 2 has 2 slots, needs 3"),
    ])
    def test_invalid_sequences(self, counts, n, message):
        with pytest.raises(InvalidLeafSequence) as exc:
            leafseq_to_codewords(LeafSequence(counts), BINARY(2), normalize_weights([1] * n))
        assert str(exc.value) == message


class TestInvariants:
    def test_naive_batched_bit_equality_randomized(self):
        rng = random.Random(2024)
        for _ in range(40):
            w, spec = random_gmr_instance(rng, max_n=8, max_levels=4)
            try:
                rn = solve_naive(w, spec)
            except NoFeasibleTree:
                with pytest.raises(NoFeasibleTree):
                    solve_batched(w, spec)
                continue
            rb = solve_batched(w, spec)
            assert_same_solution(rn, rb)
        # levels wider than n, alone or between narrow ones
        for _ in range(40):
            n = rng.randint(1, 8)
            ml = rng.randint(1, 4)
            spec = LevelSpec([(rng.choice((2, 3, 2**20, 2**70)), rng.randint(1, 3))
                              for _ in range(ml)])
            w = normalize_weights(random_weights(rng, n))
            try:
                rn = solve_naive(w, spec)
            except NoFeasibleTree:
                with pytest.raises(NoFeasibleTree):
                    solve_batched(w, spec)
                continue
            assert_same_solution(rn, solve_batched(w, spec))

    def test_batch_monotone_in_m(self):
        rng = random.Random(7)
        for _ in range(25):
            w, spec = random_gmr_instance(rng, max_n=10, max_levels=4)
            try:
                res = solve_batched(w, spec)
            except NoFeasibleTree:
                continue
            for table in res.tables[1:]:
                by_batch = {}
                for (m, b), v in table.costs.items():
                    by_batch.setdefault(m + b, []).append((m, v))
                for entries in by_batch.values():
                    entries.sort()
                    costs = [v for _, v in entries]
                    assert all(a >= b for a, b in zip(costs, costs[1:]))

    def test_telescoping_identity(self):
        rng = random.Random(99)
        excess = 0
        for _ in range(30):
            w, spec = random_gmr_instance(rng, max_n=10, max_levels=4)
            try:
                res = solve_batched(w, spec)
            except NoFeasibleTree:
                continue
            assert telescoped_cost(res.expansions, w, spec) == res.cost
            assert cost_of_leaf_sequence(res.leaf_sequence, w, spec) == res.cost
            # the chain's per-level leaf counts, less the excess on the answer level
            chain = res.expansions
            counts = {i: chain[i][0] - chain[i - 1][0] for i in range(1, len(chain))}
            counts[res.level] -= res.leaves_full - w.n
            assert res.leaf_sequence == LeafSequence(counts)
            assert res.leaf_sequence.total == w.n
            excess += res.leaves_full > w.n
        assert excess > 0

    def test_huffman_consistency_random(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(1, 14)
            r = rng.choice([2, 3, 4])
            w = normalize_weights([rng.randint(0, 99) for _ in range(n)])
            res = solve_batched(w, LevelSpec.constant(r, 1, n), keep_tables=False)
            assert res.cost == huffman_greedy(w, r)

    def test_naive_fill_agrees_with_predecessor_enumeration(self):
        # every valid signature with a reachable predecessor is stored, at the
        # min over its enumerated predecessors, and nothing else is stored;
        # all levels are filled, so finished states carried down are checked
        rng = random.Random(31)
        for _ in range(10):
            w, spec = random_gmr_instance(rng, max_n=7, max_levels=3)
            n = w.n
            try:
                res = solve_naive(w, spec, cutoff=False)
            except NoFeasibleTree:
                continue
            for i in range(1, len(res.tables)):
                prev, cur = res.tables[i - 1].costs, res.tables[i].costs
                r = spec.arity(i)
                sigs = [(m, b) for b in range(1, n + 1) for m in range(n + 1 - b)]
                sigs += [(m, 0) for m in range(max(n, r), n + r)]
                assert set(cur) <= set(sigs)
                for sig in sigs:
                    cands = [prev[p] + spec.options(i)[0][1] * w.tail_weight(p[0])
                             for p in predecessors(i, sig, spec, n) if p in prev]
                    assert cur.get(sig) == (min(cands) if cands else None)

    def test_emitted_codes_are_prefix_free_with_nonneg_slack(self):
        rng = random.Random(13)
        for _ in range(25):
            w, spec = random_gmr_instance(rng, max_n=8, max_levels=4)
            try:
                res = solve_batched(w, spec)
            except NoFeasibleTree:
                continue
            cb = leafseq_to_codewords(res.leaf_sequence, spec, w)
            assert cb.cost == res.cost
            assert check_prefix_free(cb.words)
            assert kraft_slack(res.leaf_sequence, spec) >= 0
            assert all(a <= b for a, b in zip(cb.lengths, cb.lengths[1:]))


# Tie-heavy weight draws: zero weights and equal weights give many equal-cost
# states, where a cut-off one level too early or too late would show.
WEIGHT_DRAWS = (
    lambda rng, n: [rng.randint(0, 1) for _ in range(n)],
    lambda rng, n: [rng.randint(0, 2) for _ in range(n)],
    lambda rng, n: [rng.randint(0, 3)] * n,
    lambda rng, n: [rng.randint(0, 10**6) for _ in range(n)],
)
OPTIONS = [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 3)]


def _cutoff_instances(seed: int, per_draw: int):
    """``per_draw`` random ``(w, spec)`` pairs per weight draw,
    alternating plain and choice specs, with up to n + 2 levels so that the
    cut-off has deep levels to skip."""
    rng = random.Random(seed)
    for draw in WEIGHT_DRAWS:
        for k in range(per_draw):
            n = rng.randint(1, 10)
            ml = rng.randint(1, n + 2)
            w = normalize_weights(draw(rng, n))
            if k % 2:
                spec = ChoiceLevelSpec([rng.sample(OPTIONS, rng.randint(1, 3)) for _ in range(ml)])
            else:
                spec = LevelSpec([rng.choice(OPTIONS) for _ in range(ml)])
            yield w, spec


def _solve_any(w, spec, algorithm, **kw):
    return solve_choice(w, spec, algorithm=algorithm, **kw)


def _wide_instances(seed: int, per_draw: int):
    """``per_draw`` random ``(w, spec)`` pairs per weight draw with n <= 60
    and up to six levels, alternating plain and choice specs, whose arities
    run from 2 through n - 1 .. n + 1 to meta arities far past n."""
    rng = random.Random(seed)
    for draw in WEIGHT_DRAWS:
        for k in range(per_draw):
            n = rng.randint(1, 60)
            arities = [r for r in (2, 3, 4, n - 1, n, n + 1, 2**9, 2**70) if r >= 2]
            ml = rng.randint(1, 6)
            w = normalize_weights(draw(rng, n))
            if k % 2:
                spec = ChoiceLevelSpec([
                    dict.fromkeys((rng.choice(arities), rng.randint(1, 3))
                                  for _ in range(rng.randint(1, 3)))
                    for _ in range(ml)])
            else:
                spec = LevelSpec([(rng.choice(arities), rng.randint(1, 3)) for _ in range(ml)])
            yield w, spec


def _caps(spec, n: int) -> list[int]:
    """``cap_i`` for levels ``i = 0 .. L``: the most leaves one tagged
    level-i node can still become, ``min(n, product of the largest arity of
    each level after i)``, and 0 on the last level, which no level follows."""
    widest = [max(r for r, _ in spec.options(i)) for i in range(1, spec.num_levels + 1)]
    return [min(n, math.prod(widest[i:])) for i in range(spec.num_levels)] + [0]


def _keeps(spec, n: int) -> list:
    """Per level ``i = 0 .. L``, whether a cut-off, tail-free fill keeps
    ``(m, b)``: ``m + b * cap_i >= n`` (see ``_caps``), except on level
    ``L - 1``, which keeps a ``b >= 1`` state only if some last-level arity
    f finishes it into a valid signature,
    ``max(n, f) <= m + f * b <= n + f - 1``.  A spec with a level-free tail
    keeps every state."""
    last = spec.num_levels
    if tail_start(spec, n) is not None:
        return [lambda m, b: True] * (last + 1)
    keeps = [lambda m, b, cap=cap: m + b * cap >= n for cap in _caps(spec, n)]
    if last >= 2:
        arities = [f for f, _ in spec.options(last)]
        keeps[last - 1] = lambda m, b: b == 0 or any(
            max(n, f) <= m + f * b <= n + f - 1 for f in arities)
    return keeps


def _cut_and_full(w, spec):
    """Solve ``(w, spec)`` with both fills, cut off and full-depth; None if
    it has no feasible tree.  The cut-off solves give the full ones' answer,
    backtrace and options for no more cells.  Without a level-free tail,
    each cut-off leveled table holds, entry for entry in insertion order
    (ascending diagonal, then m), the full table's entries ``(m, b)`` that
    can still finish (see ``_keeps``); with one, the tables before the tail
    equal the full ones, and the tail keeps each of its entries at every
    deeper level's minimum key and drops only signatures whose bound is above
    the answer's cost (see ``assert_pruned_tail``).  Naive and batched tables
    agree in insertion order too.  Returns the batched ``(cut, full)`` pair."""
    try:
        _solve_any(w, spec, "batched", keep_tables=False, cutoff=False)
    except NoFeasibleTree:
        for algorithm in ("naive", "batched"):
            with pytest.raises(NoFeasibleTree):
                _solve_any(w, spec, algorithm)
        return None
    items = {}
    for algorithm in ("naive", "batched"):
        full = _solve_any(w, spec, algorithm, cutoff=False)
        cut = _solve_any(w, spec, algorithm)
        assert (cut.cost, cut.level, cut.leaves_full) == (
            full.cost, full.level, full.leaves_full)
        assert cut.expansions == full.expansions
        assert cut.leaf_sequence == full.leaf_sequence
        assert cut.options == full.options
        assert cut.cells_updated <= full.cells_updated
        assert full.levels_filled == spec.num_levels == len(full.tables) - 1
        assert cut.levels_filled == len(cut.tables) - 1
        cut_items = [list(t.costs.items()) for t in cut.tables]
        full_items = [list(t.costs.items()) for t in full.tables]
        s = cut_tail_start(cut, spec, w.n)
        if s is None:
            keeps = _keeps(spec, w.n)
            assert cut_items == [[(sig, v) for sig, v in items if keep(*sig)]
                                 for items, keep in zip(full_items, keeps[:len(cut_items)])]
        else:
            assert cut_items[:s] == full_items[:s]
            assert_pruned_tail(cut.tables[s].costs, full.tables, s, spec, w, cut.cost)
        items[algorithm] = cut_items, full_items
    assert items["naive"] == items["batched"]
    return cut, full


class TestCutoff:
    def test_cutoff_changes_no_answer_randomized(self):
        feasible = stopped_early = 0
        for w, spec in _cutoff_instances(seed=505, per_draw=300):
            solved = _cut_and_full(w, spec)
            if solved is not None:
                feasible += 1
                stopped_early += solved[0].levels_filled < spec.num_levels
        assert feasible >= 1000 and stopped_early > feasible // 2

    def test_sparse_fill_matches_the_dense_one_at_wide_arities(self):
        # the cut-off fill visits only the diagonals the previous level
        # reaches, the full one every diagonal; wide levels reach few of them
        feasible = sum(_cut_and_full(w, spec) is not None
                       for w, spec in _wide_instances(seed=808, per_draw=40))
        assert feasible >= 100

    def test_level_before_the_last_keeps_only_finish_windows(self):
        # on a tail-free spec of L >= 2 levels, level L - 1 stores the full
        # fill's entries, each at its full cost, except the states whose one
        # finished child (m + f * b, 0) is no valid signature for any option
        # arity f of level L
        checked = dropped = 0
        for w, spec in [*_cutoff_instances(seed=717, per_draw=120),
                        *_wide_instances(seed=727, per_draw=40)]:
            last = spec.num_levels
            if last < 2 or tail_start(spec, w.n) is not None:
                continue
            try:
                full = _solve_any(w, spec, "batched", cutoff=False).tables[last - 1].costs
            except NoFeasibleTree:
                continue
            tables = {}
            for algorithm in ("naive", "batched"):
                cut = _solve_any(w, spec, algorithm)
                tables[algorithm] = [list(t.costs.items()) for t in cut.tables]
            assert tables["naive"] == tables["batched"]
            if cut.levels_filled < last - 1:
                continue
            checked += 1
            kept = cut.tables[last - 1].costs
            assert all(full[sig] == v for sig, v in kept.items())
            arities = [f for f, _ in spec.options(last)]
            for m, b in full.keys() - kept.keys():
                assert b >= 1
                assert not any(valid_signature(m + f * b, 0, w.n, f) for f in arities)
                dropped += 1
        assert checked >= 150 and dropped >= 500

    def test_levels_filled_is_first_dominated_level(self):
        # the loop stops where the test-side scan of the full tables says; on
        # the EARLIER_STOPS draws that is one level before the level the same
        # scan finds without dropping the states that cannot finish
        for w, spec in [*_cutoff_instances(seed=606, per_draw=60), *EARLIER_STOPS]:
            for algorithm in ("naive", "batched"):
                try:
                    full = _solve_any(w, spec, algorithm, cutoff=False)
                except NoFeasibleTree:
                    continue
                expected = _first_dominated_level(w, spec, full)
                assert _solve_any(w, spec, algorithm).levels_filled == expected
                cost_only = _solve_any(w, spec, algorithm, keep_tables=False)
                assert cost_only.levels_filled == expected
        for w, spec in EARLIER_STOPS:
            full = _solve_any(w, spec, "batched", cutoff=False)
            assert (_first_dominated_level(w, spec, full)
                    == _first_dominated_level(w, spec, full, finish_aware=False) - 1)


def _fill_cells(prev: dict, n: int, r: int, keep, algorithm: str, dense: bool) -> int:
    """Cells of one level fill, from the cell definition: a naive state, or
    the only state listed on its diagonal, reads its whole window
    ``B + 1 - ceil(b / r)``, and a batched diagonal of two or more states
    reads its row once, from the least listed b's window up to B, plus one
    cell per state.  A diagonal ``d`` lists the valid signatures ``(d - b,
    b)`` the level keeps whose window holds a slot, ``b <= r * B``; B is
    ``d // r`` on a dense fill and the largest ``b'`` of a previous state
    feeding d on a sparse one."""
    if dense:
        reach = {d: d // r for d in [*range(1, n + 1), *range(max(n + 1, r), n + r)]}
    else:
        reach = {}
        for m, b in prev:
            if m + r * b < n + r:
                reach[m + r * b] = max(reach.get(m + r * b, 0), b)
    cells = 0
    for d, B in reach.items():
        listed = [b for b in (range(min(r * B, d) + 1) if d <= n else (0,))
                  if valid_signature(d - b, b, n, r) and keep(d - b, b)]
        windows = [B + 1 - -(-b // r) for b in listed]
        if algorithm == "naive" or len(listed) == 1:
            cells += sum(windows)
        elif listed:
            cells += max(windows) + len(listed)
    return cells


def _tail_cells(table: dict, w, r: int, c: int, algorithm: str) -> int:
    """Cells of a level-free tail fill, from the tail's cell definition.
    Diagonal d's row holds ``b' = 1 .. phi``: phi is the largest
    ``b' <= d // r`` whose predecessor ``(d - r * b', b')`` is stored, 0 if
    none is.  With a row, d lists ``b = 1 .. r * phi`` if ``d <= n`` and
    ``(d, 0)`` from ``d = max(n, r)`` on.  A naive diagonal reads each
    distinct window of its listed states once, ``b' >= j`` for
    ``j = 1 .. phi`` if ``d <= n`` and the whole row past n; a batched
    diagonal reads its row once, phi cells, plus one cell per listed state
    whose bound, window minimum decoded plus ``c * W_m``, is at most UB: the
    least one-level finish of the states stored on earlier diagonals with
    ``max(n, r) <= m + r * b <= n + r - 1``.  Seeds cost no cell."""
    n = w.n
    K = 2 * n + 2
    ub = UNREACHABLE
    cells = 0
    for d in [*range(1, n + 1), *range(max(n + 1, r), n + r)]:
        phi = max([bp for bp in range(1, d // r + 1) if (d - r * bp, bp) in table], default=0)
        row = [table.get((d - r * bp, bp), UNREACHABLE) + c * K * w.tail_weight(d - r * bp) + 1
               for bp in range(1, phi + 1)]
        listed = [*(range(1, r * phi + 1) if d <= n else ()),
                  *((0,) if phi and d >= max(n, r) else ())]
        windows = {b: row[max(1, -(-b // r)) - 1:] for b in listed}
        if algorithm == "naive":
            cells += sum(set(map(len, windows.values())))  # each distinct window once
        else:
            cells += phi + sum(min(x) < UNREACHABLE and min(x) // K + c * w.tail_weight(d - b) <= ub
                               for b, x in windows.items())
        ub = min([ub] + [v // K + c * w.tail_weight(m) for (m, b), v in table.items()
                         if m + b == d and max(n, r) <= m + r * b <= n + r - 1])
    return cells


def _derived_cells(w, spec, res, algorithm: str, cutoff: bool) -> int:
    """``cells_updated`` of a solve as the sum of its level fills' cells
    (``_fill_cells``), each option's fill read from the previous table the
    solve kept, and the level-free tail's (``_tail_cells``) read from its
    own table.  A cut-off fill keeps what ``_keeps`` keeps; a full fill is
    dense and keeps every state."""
    n = w.n
    keeps = _keeps(spec, n) if cutoff else [lambda m, b: True] * (spec.num_levels + 1)
    s = cut_tail_start(res, spec, n) if cutoff else None
    cells = 0
    for i in range(1, res.levels_filled + 1):
        if i == s:
            cells += _tail_cells(res.tables[s].costs, w, *spec.options(s)[0], algorithm)
        else:
            cells += sum(_fill_cells(res.tables[i - 1].costs, n, r, keeps[i], algorithm,
                                     dense=not cutoff) for r, _ in spec.options(i))
    return cells


CELL_CASES = {
    # one level: the spec's last, finished states only
    "last-level": (normalize_weights([9, 5, 3, 2, 1, 1]), LevelSpec([(8, 1)])),
    # caps on levels 1..3, the finish window on level 4, the last level on 5
    "cap-and-window": (normalize_weights(random_weights(random.Random(3), 14)),
                       LevelSpec.constant(2, 1, 5)),
    # reserved-g at g = 3: choice levels, the window shared by the options
    "choice-window": (normalize_weights(range(20, 0, -1)),
                      ChoiceLevelSpec([problems.glengths_options(2, 20)] * 3)),
    # arities past n, the widest 2**70: only finished states past n
    "r-past-n": (normalize_weights([4, 4, 3, 1, 1]),
                 LevelSpec([(2, 1), (6, 1), (2**70, 2)])),
    "r-2**70": (normalize_weights([7, 1, 1]), LevelSpec([(2**70, 1), (2, 1)])),
    # level-free tails: Huffman's from level 1, mixed radix 4 2 3 seeded
    # from level 2
    "tail": (normalize_weights(random_weights(random.Random(5), 12)), LevelSpec.constant(2, 1, 12)),
    "seeded-tail": (normalize_weights(random_weights(random.Random(7), 16)),
                    LevelSpec([(4, 1), (2, 1)] + [(3, 1)] * 14)),
}


class TestCells:
    @pytest.mark.parametrize("algorithm", ["naive", "batched"])
    @pytest.mark.parametrize("cutoff", [True, False], ids=["cut-off", "dense"])
    @pytest.mark.parametrize("case", sorted(CELL_CASES))
    def test_cells_follow_the_cell_definition(self, case, cutoff, algorithm):
        w, spec = CELL_CASES[case]
        res = _solve_any(w, spec, algorithm, cutoff=cutoff)
        assert res.cells_updated == _derived_cells(w, spec, res, algorithm, cutoff)
        assert _solve_any(w, spec, algorithm, cutoff=cutoff,
                          keep_tables=False).cells_updated == res.cells_updated
        if case.endswith("tail"):
            assert (cut_tail_start(res, spec, w.n) is not None) == cutoff

    @pytest.mark.parametrize("algorithm", ["naive", "batched"])
    def test_cells_follow_the_cell_definition_randomized(self, algorithm):
        checked = 0
        for w, spec in [*_cutoff_instances(seed=929, per_draw=40),
                        *_wide_instances(seed=939, per_draw=12),
                        *_tail_instances(seed=949, per_draw=20)]:
            for cutoff in (True, False):
                try:
                    res = _solve_any(w, spec, algorithm, cutoff=cutoff)
                except NoFeasibleTree:
                    continue
                assert res.cells_updated == _derived_cells(w, spec, res, algorithm, cutoff)
                checked += 1
        assert checked >= 300


def _random_table(rng: random.Random, n: int, rp: int) -> dict:
    """Random costs on a random share of the valid signatures of a level of
    arity ``rp``, holes left, inserted in random order."""
    sigs = [(d - b, b) for d in range(1, n + 1) for b in range(1, d + 1)]
    sigs += [(m, 0) for m in range(max(n, rp), n + rp)]
    share = rng.random()
    sigs = [sig for sig in sigs if rng.random() < share]
    rng.shuffle(sigs)
    hi = rng.choice([2, 100])
    return {sig: rng.randint(0, hi) for sig in sigs}


def _fold_inputs(seed: int):
    """``(prev, i, n, options, suffix)`` level fill inputs: random tables with
    holes, each with one to three random options, and the merged choice
    tables of reserved-g solves at g = 2..4, r = 2 and 3, each with the
    option set of its next level."""
    rng = random.Random(seed)
    for _ in range(60):
        n = rng.randint(1, 40)
        w = normalize_weights(random_weights(rng, n))
        options = [(rng.randint(2, n + 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        yield (_random_table(rng, n, rng.randint(2, 6)), rng.randint(1, 6), n,
               list(dict.fromkeys(options)), w.suffix)
    for g in (2, 3, 4):
        for radix in (2, 3):
            for cutoff in (True, False):
                n = rng.randint(2, 80)
                w = normalize_weights(random_weights(rng, n))
                params = problems.Params(radix=radix, g=g)
                spec = problems.PROBLEMS["reserved-g"].levels(params, n)
                tables = problems.solve("reserved-g", w, params, cutoff=cutoff).dp.tables
                for table in tables[:-1]:
                    i = table.level + 1
                    yield table.costs, i, n, spec.options(i), w.suffix


def _merged_folds(prev, i, n, options, suffix, algorithm, dense, **kw):
    """The per-option ``reference_fill_level`` folds merged by minimum in
    option order: the merged table, the ``(cost, i, m)`` of each finished
    state that lowered its entry, and the summed cells."""
    costs, zeros, cells = {}, [], 0
    for r, c in options:
        table, k = reference_fill_level(prev, n, r, c, suffix, algorithm, dense, **kw)
        cells += k
        for (m, b), v in table.items():
            if v < costs.get((m, b), UNREACHABLE):
                costs[m, b] = v
                if not b:
                    zeros.append((v, i, m))
    return costs, zeros, cells


class TestReferenceFold:
    """``_fill_level`` reads only pushed candidates, ``reference_fill_level``
    every row entry, holes included.  One ``_fill_level`` call over a level's
    options stores the same entries in the same order, reports the same
    finished states and counts the same cells as the per-option folds merged
    by minimum, under every storage rule."""

    @pytest.mark.parametrize("algorithm", ["naive", "batched"])
    def test_fill_matches_the_hole_reading_fold(self, algorithm):
        rng = random.Random(2024)
        compared = stored = merged = 0
        for prev, i, n, options, suffix in _fold_inputs(seed=1212):
            arities = {rng.randint(2, n + 3) for _ in range(rng.randint(1, 4))}
            ref_windows = {d: finish_window(n, arities, d) for d in range(1, n + 1)}
            cap = min(n, rng.randint(2, 12))
            for dense, kw, ref_kw in [
                (True, {}, {}),
                (False, {}, {}),
                (False, dict(cap=cap), dict(cap=cap)),
                (False, dict(windows=_FinishWindows(n, arities)), dict(windows=ref_windows)),
                (False, dict(cap=0), dict(cap=0)),
            ]:
                got, *rest = _fill_level(prev, i, n, options, suffix, algorithm, dense, **kw)
                want, *want_rest = _merged_folds(prev, i, n, options, suffix, algorithm, dense,
                                                 **ref_kw)
                assert list(got.items()) == list(want.items())
                assert rest == want_rest
                compared += len(options)
                stored += len(got)
                merged += len(options) > 1 and len(got)
        assert compared >= 1000 and stored >= 50_000 and merged >= 20_000

    @pytest.mark.parametrize("algorithm", ["naive", "batched"])
    @pytest.mark.parametrize("r, want, cells", [
        (2, {(4, 0): 7, (5, 0): 7}, 3 + 3),
        (7, {(8, 0): 3, (9, 0): 7, (10, 0): 8}, 1 + 2 + 2),
    ])
    def test_last_level_keeps_each_finished_minimum_and_spans_its_largest_push(
            self, r, want, cells, algorithm):
        # n = 4.  Arity 2 lists (4, 0) and (5, 0): (0, 2), (2, 1) and the
        # finished (4, 0) all reach (4, 0), whose row spans b' = 0 .. 2 though
        # (2, 1) wins.  Arity 7 is above n: it lists (7, 0) .. (10, 0), which
        # (2, 1), (3, 1) and the finished (8, 0) reach and (4, 0) does not.
        w = normalize_weights([5, 3, 2, 1])
        prev = {(0, 2): 10, (2, 1): 4, (4, 0): 9, (1, 2): 1, (3, 1): 7, (5, 0): 20, (8, 0): 3}
        got, zeros, k = _fill_level(prev, 3, 4, [(r, 1)], w.suffix, algorithm, False, cap=0)
        assert list(got.items()) == list(want.items())
        assert (zeros, k) == ([(v, 3, m) for (m, _), v in want.items()], cells)
        assert reference_fill_level(prev, 4, r, 1, w.suffix, algorithm, False, cap=0) == (got, k)

    def test_finish_windows_match_the_range_formula(self):
        rng = random.Random(77)
        for _ in range(3000):
            n = rng.randint(1, 60)
            arities = {rng.randint(2, 2 * n + 4) for _ in range(rng.randint(1, 5))}
            windows = _FinishWindows(n, arities)
            for d in range(1, n + 1):
                assert windows[d] == finish_window(n, arities, d), (n, sorted(arities), d)


# Tie-heavy draws (seeded runs of the generator above with n up to 24) on
# which the finish-aware fill stops a level earlier than a fill that keeps
# every state: the stop level's cheap states cannot finish.
EARLIER_STOPS = [
    (normalize_weights([1] * 7 + [0] * 7),
     LevelSpec([(2, 1), (3, 1), (3, 1), (3, 2), (2, 2)])),
    (normalize_weights([2] * 5 + [1] * 5 + [0] * 8),
     ChoiceLevelSpec([[(4, 3)], [(3, 1)], [(2, 1)], [(3, 2)], [(2, 1), (2, 2)]])),
]


def _first_dominated_level(w, spec, full, finish_aware=True):
    """A test-side scan of the full-depth result ``full``: the first level
    whose cheapest state costs at least the cheapest finished state so far,
    or the level-free tail's first level if the loop reaches it.  With
    ``finish_aware`` a tail-free scan first drops each level's entries that
    cannot finish (see ``_keeps``), as the cut-off fill does."""
    s = tail_start(spec, w.n)
    keeps = _keeps(spec, w.n)
    best = UNREACHABLE
    expected = spec.num_levels
    for table in full.tables[1:]:
        costs = table.costs
        if finish_aware and s is None:
            costs = {sig: v for sig, v in costs.items() if keeps[table.level](*sig)}
        best = min([best] + [v for (m, b), v in costs.items() if b == 0])
        if min(costs.values(), default=UNREACHABLE) >= best:
            expected = table.level
            break
    return expected if s is None else min(expected, s)


def _package_merge_cost(weights, L: int) -> int:
    """Larmore & Hirschberg's package-merge (J. ACM, 1990): the least cost
    of a binary code for ``n >= 2`` weights with no word longer than L,
    ``2**L >= n``.  Pair up the sorted items, merge the packages with the
    weights, L - 1 times; a weight's code length is the number of the first
    2n - 2 final items that hold it, so the cost is their total weight."""
    items = sorted(weights)
    current = items
    for _ in range(L - 1):
        packages = [a + b for a, b in zip(current[0::2], current[1::2])]
        current = sorted(items + packages)
    return sum(current[:2 * len(weights) - 2])


def _assert_code_of_cost(codebook, w, spec, cost):
    """A prefix-free codebook whose words, weights shallowest-first, cost
    ``cost`` under ``spec``."""
    assert len(codebook.words) == w.n and check_prefix_free(codebook.words)
    assert codebook.cost == cost
    assert sum(p * spec.depth(len(word)) for p, word in zip(w.weights, codebook.words)) == cost


class TestPackageMerge:
    """L binary unit-edge levels are length-limited coding.  With L < n no
    level-free tail runs, so the leveled fill is checked far past the
    exhaustive oracles' n <= 8, by an algorithm that shares no DP code."""

    @pytest.mark.parametrize("hi", [1, 2, 50, 10**6])
    def test_length_limited_binary_matches_package_merge(self, hi):
        rng = random.Random(hi)
        for _ in range(8):
            n = rng.randint(2, 120)
            w = normalize_weights(random_weights(rng, n, 0, hi))
            shortest = (n - 1).bit_length()  # ceil(log2 n)
            for L in range(shortest, shortest + 5):
                expected = _package_merge_cost(list(w.weights), L)
                for solve in (solve_naive, solve_batched):
                    assert solve(w, BINARY(L), keep_tables=False).cost == expected
                res = problems.solve("gmr", w, problems.Params(levels=BINARY(L)))
                _assert_code_of_cost(res.codebook, w, BINARY(L), expected)
                assert max(res.codebook.lengths) <= L

    @pytest.mark.parametrize("n", [500, 1000])
    def test_length_limited_binary_with_code_at_scale(self, n):
        # with L near log2 n the levels keep only states that can still
        # reach n leaves, so these solves take milliseconds
        rng = random.Random(n)
        for hi in (1, 10**6):
            w = normalize_weights(random_weights(rng, n, 0, hi))
            shortest = (n - 1).bit_length()
            for L in (shortest, shortest + 1):
                res = problems.solve("gmr", w, problems.Params(levels=BINARY(L)))
                _assert_code_of_cost(res.codebook, w, BINARY(L),
                                     _package_merge_cost(list(w.weights), L))
                assert max(res.codebook.lengths) <= L


class TestOracleBeyondTheExhaustiveRange:
    def test_random_short_specs_match_the_memoized_oracle(self):
        # specs shorter than n, where the fill keeps only states that can
        # still finish, against the level-count oracle at n up to 40
        rng = random.Random(909)
        budget = OracleBudget(max_n=40, max_depth=6)
        feasible = infeasible = 0
        for _ in range(150):
            n = rng.randint(1, 40)
            spec = LevelSpec([(rng.randint(2, 6), rng.randint(1, 3))
                              for _ in range(rng.randint(1, 6))])
            w = normalize_weights(random_weights(rng, n, 0, rng.choice([1, 50, 10**6])))
            try:
                expected = enumerate_gmr(w, spec, spec.num_levels, budget)
            except NoFeasibleTree:
                infeasible += 1
                for solve in (solve_naive, solve_batched):
                    with pytest.raises(NoFeasibleTree):
                        solve(w, spec, keep_tables=False)
                continue
            feasible += 1
            for solve in (solve_naive, solve_batched):
                assert solve(w, spec, keep_tables=False).cost == expected
            res = problems.solve("gmr", w, problems.Params(levels=spec))
            _assert_code_of_cost(res.codebook, w, spec, expected)
        assert feasible >= 50 and infeasible >= 10


def _tail_instances(seed: int, per_draw: int):
    """``per_draw`` random ``(w, spec)`` pairs per weight draw with n <= 12
    and n .. n + 2 plain levels, alternating random levels and a random
    prefix of up to three levels ahead of a constant tail."""
    rng = random.Random(seed)
    for draw in WEIGHT_DRAWS:
        for k in range(per_draw):
            n = rng.randint(1, 12)
            ml = rng.randint(n, n + 2)
            w = normalize_weights(draw(rng, n))
            if k % 2:
                levels = [rng.choice(OPTIONS) for _ in range(ml)]
            else:
                head = [rng.choice(OPTIONS) for _ in range(rng.randint(0, min(3, ml - 1)))]
                levels = head + [rng.choice(OPTIONS)] * (ml - len(head))
            yield w, LevelSpec(levels)


class TestLevelFreeTail:
    def test_tail_table_is_the_minimum_over_deeper_levels(self):
        reached = 0
        for w, spec in _tail_instances(seed=707, per_draw=250):
            s = tail_start(spec, w.n)
            results = []
            for algorithm in ("naive", "batched"):
                full = _solve_any(w, spec, algorithm, cutoff=False)
                cut = _solve_any(w, spec, algorithm)
                assert (cut.cost, cut.level, cut.leaves_full) == (
                    full.cost, full.level, full.leaves_full)
                assert cut.expansions == full.expansions
                assert cut.leaf_sequence == full.leaf_sequence
                if cut_tail_start(cut, spec, w.n) is None:
                    assert cut.levels_filled < s  # the level loop stopped first
                    continue
                assert cut.tables[:s] == full.tables[:s]
                assert cut.tables[s].level == s
                assert_pruned_tail(cut.tables[s].costs, full.tables, s, spec, w, cut.cost)
                results.append(cut)
            if results:
                assert_same_solution(*results)
                naive, batched = results
                assert list(naive.tables[s].costs.items()) == list(batched.tables[s].costs.items())
                reached += 1
        assert reached >= 300

    @pytest.mark.parametrize("n", [100, 300, 640])
    def test_huffman_through_the_tail_matches_greedy(self, n):
        rng = random.Random(n)
        for r in range(2, 6):
            for draw in WEIGHT_DRAWS:
                w = normalize_weights(draw(rng, n))
                algorithms = ("naive", "batched") if n <= 100 else ("batched",)
                for algorithm in algorithms:
                    res = solve_huffman_reference_adapter(w, r, algorithm=algorithm)
                    assert res.dp.levels_filled == 1  # every level in the tail
                    assert res.dp.cost == res.codebook.cost == huffman_greedy(w, r)
                    assert check_prefix_free(res.codebook.words)

    def test_mixed_radix_tail_matches_the_full_fill(self):
        # (4, 2, 3): two leveled levels, then arity 3 from level 3 on
        rng = random.Random(60)
        mrspec = MixedRadixSpec((4, 2, 3))
        reached = 0
        for draw in WEIGHT_DRAWS:
            for _ in range(2):
                w = normalize_weights(draw(rng, 60))
                full = problems.solve("mixed-radix", w, problems.Params(arities=mrspec.arities),
                                      cutoff=False)
                for algorithm in ("naive", "batched"):
                    cut = solve_mixed_radix(w, mrspec, algorithm=algorithm)
                    assert (cut.dp.cost, cut.dp.level) == (full.dp.cost, full.dp.level)
                    assert cut.dp.expansions == full.dp.expansions
                    assert cut.dp.leaf_sequence == full.dp.leaf_sequence
                    assert cut.codebook == full.codebook
                    reached += cut.dp.levels_filled == 3
        assert reached >= 8


#: weights and spec whose level-2 finished seed (12, 0) lies past n + r - 1 = 11,
#: on a diagonal the tail loop never visits
SEED_PAST_THE_LOOP = ([15, 14, 14, 13, 13, 7, 6, 5, 4, 3], [(4, 1), (5, 1)] + [(2, 1)] * 11)


class TestTailView:
    """``tables[s].costs`` of a tail solve: a read-only ``(m, b)`` mapping
    over the tail's rows and its finished states past n."""

    def _tails(self, weights, levels):
        w, spec = normalize_weights(weights), LevelSpec(levels)
        results = [solve_choice(w, spec, algorithm=a) for a in ("naive", "batched")]
        assert all(res.levels_filled == tail_start(spec, w.n) for res in results)
        return w, spec, [res.tables[-1].costs for res in results]

    def test_seed_past_the_loop_is_kept_and_is_the_answer(self):
        w, spec, views = self._tails(*SEED_PAST_THE_LOOP)
        res = solve_batched(w, spec)
        assert (res.cost, res.level, res.leaves_full) == (159, 2, 12)
        for view in views:
            assert view[(12, 0)] == view.get((12, 0)) == 159 * 22 + 2
            assert list(view)[-1] == (12, 0)
        assert list(views[0].items()) == list(views[1].items())

    def test_get_returns_the_default_off_the_rows(self):
        w, spec, views = self._tails(*SEED_PAST_THE_LOOP)
        n = w.n
        for view in views:
            for sig in [(-1, 3), (-3, 1), (3, -1), (n, 1), (n - 1, 3), (2**80, 0), (n + 2**70, 0)]:
                assert view.get(sig) is None and view.get(sig, "x") == "x", sig
                assert sig not in view
                with pytest.raises(KeyError):
                    view[sig]
            assert (7, 1) in view and view.get((7, 1)) == view[(7, 1)]

    def test_read_only(self):
        _, _, views = self._tails(*SEED_PAST_THE_LOOP)
        with pytest.raises(TypeError):
            views[1][(7, 1)] = 0

    def test_iteration_order_and_len(self):
        reached = 0
        for w, spec in _tail_instances(seed=31, per_draw=80):
            res = solve_batched(w, spec)
            s = cut_tail_start(res, spec, w.n)
            if s is None:
                continue
            view = res.tables[s].costs
            keys = list(view)
            assert len(view) == len(keys) == len(set(keys))
            # ascending diagonals, ascending m within one; past n only (d, 0), last
            assert keys == sorted(keys, key=lambda sig: (sig[0] + sig[1], sig[0]))
            assert all(b == 0 for m, b in keys if m + b > w.n)
            assert list(view.values()) == [view[sig] for sig in keys]
            reached += 1
        assert reached >= 100

    @pytest.mark.parametrize("head", [[], [(2, 1)], [(3, 1), (2, 1)]])
    def test_huge_arity_tail_keeps_one_finished_state_far_past_n(self, head):
        # a 2**70-ary head would be no test of this: every state of its level
        # is finished, so the level loop stops before the tail
        n, r = 40, 2**70
        w = normalize_weights(random_weights(random.Random(40), n, 1))
        spec = LevelSpec(head + [(r, 1)] * (n - len(head)))
        s = len(head) + 1
        full = solve_batched(w, spec, cutoff=False)
        views = []
        for algorithm in ("naive", "batched"):
            cut = solve_choice(w, spec, algorithm=algorithm)
            assert cut.levels_filled == s
            assert (cut.cost, cut.level, cut.leaves_full) == (
                full.cost, full.level, full.leaves_full)
            assert (cut.expansions, cut.leaf_sequence) == (full.expansions, full.leaf_sequence)
            view = cut.tables[s].costs
            assert_pruned_tail(view, full.tables, s, spec, w, cut.cost)
            past = [(m, b) for m, b in view if m + b > n]
            assert len(past) == 1 and past[0][1] == 0 and r <= past[0][0] < r + n
            views.append(list(view.items()))
        assert views[0] == views[1]
