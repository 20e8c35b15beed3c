import hashlib
import itertools
import random

import pytest
from helpers import random_weights

from prefixcodes import (
    LevelTable,
    OracleBudget,
    bench,
    check_prefix_free,
    enumerate_one_ended,
    normalize_weights,
    solve_one_ended,
)
from prefixcodes.one_ended import _oe_predecessors


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
                assert rb.table.costs == rn.table.costs, name
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
                assert rb.table.costs == rn.table.costs, name


class TestNaiveFill:
    def test_naive_fill_agrees_with_predecessor_enumeration(self):
        # every state below diagonal n with a stored predecessor is stored, at
        # the least stored cost plus W_m' over its enumerated predecessors, and
        # nothing else is stored; the naive fill spends one cell per enumerated
        # predecessor and the answer scan one per state it evaluates
        for name, draw in WEIGHT_DRAWS.items():
            rng = random.Random(43)
            for n in range(1, 13):
                w = normalize_weights(draw(rng, n))
                res = solve_one_ended(w, algorithm="naive")
                costs = res.table.costs
                sigs = [(m, b) for m in range(n) for b in range(1, n - m) if (m, b) != (0, 1)]
                assert costs[(0, 1)] == 0, name
                assert set(costs) - {(0, 1)} <= set(sigs), name
                for sig in sigs:
                    cands = [costs[p] + w.suffix[p[0]] for p in _oe_predecessors(sig) if p in costs]
                    assert costs.get(sig) == (min(cands) if cands else None), (name, sig)
                scanned = sum(1 for m, b in costs if m + 2 * b >= n)
                assert res.cells_updated == sum(len(_oe_predecessors(s)) for s in sigs) + scanned, name


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
        assert res.cells_updated == 158_593  # 119,400 fill + 39,193 scan


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
