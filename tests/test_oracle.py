import random

import pytest
from helpers import random_weights

from prefixcodes import (
    BudgetExceeded,
    ChoiceLevelSpec,
    InvalidInput,
    LevelSpec,
    NoFeasibleTree,
    OracleBudget,
    enumerate_choice,
    enumerate_gmr,
    enumerate_one_ended,
    huffman_greedy,
    normalize_weights,
)


class TestHuffmanGreedy:
    def test_hand_executable(self):
        # merges 1+1, 2+2, 3+4 -> 2 + 4 + 7
        assert huffman_greedy(normalize_weights([3, 2, 1, 1]), 2) == 13

    def test_single_ternary_merge(self):
        assert huffman_greedy(normalize_weights([1, 1, 1]), 3) == 3

    def test_pair(self):
        assert huffman_greedy(normalize_weights([1, 1]), 2) == 2

    def test_padding_for_wide_alphabets(self):
        # r=3, n=4: one dummy, merges (0,1,1)=2 then (2,2,3)=7
        assert huffman_greedy(normalize_weights([3, 2, 1, 1]), 3) == 9

    def test_single_weight_convention(self):
        assert huffman_greedy(normalize_weights([7]), 2) == 7


class TestEnumerateGmr:
    def test_balanced(self):
        w = normalize_weights([1, 1, 1, 1])
        assert enumerate_gmr(w, LevelSpec.constant(2, 1, 4), 4) == 8

    def test_skewed(self):
        w = normalize_weights([3, 2, 1, 1])
        assert enumerate_gmr(w, LevelSpec.constant(2, 1, 4), 4) == 13

    def test_mixed_levels(self):
        w = normalize_weights([1] * 5)
        assert enumerate_gmr(w, LevelSpec([(2, 1), (3, 1)]), 2) == 10

    def test_budget_guard(self):
        w = normalize_weights([1] * 9)
        with pytest.raises(BudgetExceeded):
            enumerate_gmr(w, LevelSpec.constant(2, 1, 9), 9)

    def test_budget_override(self):
        w = normalize_weights([1] * 9)
        budget = OracleBudget(max_n=9, max_depth=9)
        assert enumerate_gmr(w, LevelSpec.constant(2, 1, 9), 9, budget) > 0

    def test_infeasible(self):
        w = normalize_weights([1] * 5)
        with pytest.raises(NoFeasibleTree):
            enumerate_gmr(w, LevelSpec.constant(2, 1, 2), 2)

    def test_agrees_with_greedy_huffman(self):
        rng = random.Random(211)
        for _ in range(20):
            n = rng.randint(1, 8)
            r = rng.choice([2, 3, 4])
            w = normalize_weights(random_weights(rng, n))
            spec = LevelSpec.constant(r, 1, n)
            assert enumerate_gmr(w, spec, n, OracleBudget(max_n=8, max_depth=8)) == \
                huffman_greedy(w, r)


class TestEnumerateOneEnded:
    @pytest.mark.parametrize("weights,want", [
        ([1, 1], 3),
        ([2, 1], 4),
        ([1, 1, 1], 6),
        ([1], 1),
        ([9], 9),
    ])
    def test_known_values(self, weights, want):
        assert enumerate_one_ended(normalize_weights(weights)) == want

    def test_budget_guard(self):
        with pytest.raises(BudgetExceeded):
            enumerate_one_ended(normalize_weights([1] * 7))


class TestEnumerateChoice:
    def test_degenerate_single_option(self):
        w = normalize_weights([3, 2, 1, 1])
        cspec = ChoiceLevelSpec([[(2, 1)]] * 4)
        assert enumerate_choice(w, cspec, 4) == enumerate_gmr(w, LevelSpec.constant(2, 1, 4), 4)

    def test_two_option_levels(self):
        w = normalize_weights([1, 1, 1, 1])
        cspec = ChoiceLevelSpec([[(2, 1), (4, 2)]] * 2)
        assert enumerate_choice(w, cspec, 2) == 8
        assert enumerate_gmr(w, cspec, 2) == 8

    def test_empty_option_set_rejected(self):
        with pytest.raises(InvalidInput):
            ChoiceLevelSpec([[(2, 1)], []])

    def test_option_budget_guard(self):
        w = normalize_weights([1, 1])
        opts = [[(2, 1), (3, 1), (4, 1), (5, 1)]]
        with pytest.raises(BudgetExceeded):
            enumerate_choice(w, ChoiceLevelSpec(opts), 1)
