import random

import pytest
from helpers import InsufficientLeaves, cost_of_leaf_sequence, kraft_slack
from hypothesis import given, settings
from hypothesis import strategies as st

from prefixcodes import (
    MAX_WEIGHT,
    ChoiceLevelSpec,
    InvalidInput,
    InvalidLeafSequence,
    LeafSequence,
    LevelSpec,
    WeightSeq,
    check_prefix_free,
    normalize_weights,
)

BINARY3 = LevelSpec.constant(2, 1, 3)


class TestNormalizeWeights:
    def test_sorts_and_sums(self):
        w = normalize_weights([1, 3, 2])
        assert w.weights == (3, 2, 1)
        assert w.suffix == (6, 3, 1, 0)

    def test_suffix_values(self):
        w = normalize_weights([3, 2, 1, 1])
        assert w.tail_weight(0) == 7
        assert w.tail_weight(2) == 2
        assert w.tail_weight(4) == 0

    def test_single(self):
        w = normalize_weights([5])
        assert w.weights == (5,)
        assert w.suffix == (5, 0)

    def test_order_maps_back_to_caller(self):
        w = normalize_weights([1, 3, 2])
        assert [1, 3, 2][w.order[0]] == 3
        assert [w.weights[k] for k in range(3)] == [[1, 3, 2][w.order[k]] for k in range(3)]

    def test_ties_keep_input_order(self):
        w = normalize_weights([7, 9, 7])
        assert w.order == (1, 0, 2)

    @pytest.mark.parametrize("bad", [[], [-1], [1, -2, 3], [1.5], [MAX_WEIGHT + 1], [True]])
    def test_rejects_bad_input(self, bad):
        with pytest.raises(InvalidInput):
            normalize_weights(bad)

    @pytest.mark.parametrize("bad,message", [
        (True, "weights must be exact integers, got True"),
        (-1, "weights must be non-negative, got -1"),
        (MAX_WEIGHT + 1, f"weight {MAX_WEIGHT + 1} exceeds the 64-bit input range"),
        (1.5, "weights must be exact integers, got 1.5"),
    ])
    @pytest.mark.parametrize("at", [0, 2])
    def test_names_the_first_bad_weight(self, bad, message, at):
        # a later bad weight of another kind does not change the message
        raw = [5, 4, 3, "x"]
        raw[at] = bad
        for build in (normalize_weights, WeightSeq):
            with pytest.raises(InvalidInput) as exc:
                build(raw)
            assert str(exc.value) == message

    def test_padding_reads_as_zero(self):
        w = normalize_weights([4, 2])
        assert w.tail_weight(99) == 0

    @given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_suffix_invariants(self, raw):
        w = normalize_weights(raw)
        assert w.suffix[0] == sum(raw)
        assert w.suffix[w.n] == 0
        assert all(a >= b for a, b in zip(w.suffix, w.suffix[1:]))
        assert all(a >= b for a, b in zip(w.weights, w.weights[1:]))

    def test_rejects_unsorted_direct_construction(self):
        with pytest.raises(InvalidInput):
            WeightSeq([1, 2])

    @pytest.mark.parametrize("order", [[0, 0], [1, 2], [0, 1, 2], [0]])
    def test_rejects_an_order_that_is_no_permutation(self, order):
        assert WeightSeq([2, 1], [1, 0]).order == (1, 0)
        with pytest.raises(InvalidInput, match="permutation"):
            WeightSeq([2, 1], order)


class TestCostOfLeafSequence:
    def test_uniform_depth_two(self):
        w = normalize_weights([1, 1, 1, 1])
        assert cost_of_leaf_sequence(LeafSequence({2: 4}), w, BINARY3) == 8

    def test_mixed_depths(self):
        w = normalize_weights([4, 1, 1])
        assert cost_of_leaf_sequence(LeafSequence({1: 1, 2: 2}), w, BINARY3) == 8

    def test_level_zero_count_ignored(self):
        w = normalize_weights([1, 2, 3, 4])
        assert cost_of_leaf_sequence(LeafSequence({2: 4, 0: 0}), w, BINARY3) == 20

    def test_weighted_edges(self):
        w = normalize_weights([1, 1])
        spec = LevelSpec([(2, 3)])
        assert cost_of_leaf_sequence(LeafSequence({1: 2}), w, spec) == 6

    def test_unrealizable(self):
        w = normalize_weights([1, 1, 1])
        with pytest.raises(InvalidLeafSequence):
            cost_of_leaf_sequence(LeafSequence({1: 3}), w, BINARY3)

    def test_insufficient(self):
        w = normalize_weights([1, 1, 1])
        with pytest.raises(InsufficientLeaves):
            cost_of_leaf_sequence(LeafSequence({1: 2}), w, BINARY3)

    def test_padding_never_changes_cost(self):
        # zero-weight leaves dropped into the terminal level's spare slot
        w = normalize_weights([5, 3])
        base = cost_of_leaf_sequence(LeafSequence({1: 1, 2: 1}), w, BINARY3)
        padded = cost_of_leaf_sequence(LeafSequence({1: 1, 2: 2}), w, BINARY3)
        assert padded == base == 11


class TestCheckPrefixFree:
    def test_classic_positive(self):
        assert check_prefix_free(["01", "00", "100"])

    def test_classic_violation(self):
        assert not check_prefix_free(["01", "00", "001"])

    def test_empty(self):
        assert check_prefix_free([])

    def test_duplicates_rejected(self):
        assert not check_prefix_free(["01", "01"])

    def test_tuple_words(self):
        assert check_prefix_free([(0,), (1, 0), (1, 1)])
        assert not check_prefix_free([(1,), (1, 0)])

    @given(st.lists(st.text(alphabet="012", min_size=1, max_size=5), max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_matches_quadratic_definition(self, words):
        naive = all(
            not (len(a) <= len(b) and b.startswith(a))
            for i, a in enumerate(words)
            for j, b in enumerate(words)
            if i != j
        )
        assert check_prefix_free(words) == naive


class TestKraftSlack:
    def test_exactly_full(self):
        assert kraft_slack(LeafSequence({1: 2}), BINARY3) == 0

    def test_overfull(self):
        assert kraft_slack(LeafSequence({1: 3}), BINARY3) == -1

    def test_spare_slot(self):
        assert kraft_slack(LeafSequence({1: 3}), LevelSpec([(4, 1)])) == 1

    def test_empty_sequence(self):
        assert kraft_slack(LeafSequence({}), BINARY3) == 1

    def test_deficit_propagates(self):
        assert kraft_slack(LeafSequence({1: 3, 2: 1}), BINARY3) == -3


class TestLevelSpec:
    @pytest.mark.parametrize("levels", [
        [(2.9, 1.5)],
        [("3", True)],
        [(3, True)],
        [(2, 1), (2.0, 1)],
    ])
    def test_rejects_non_integers_and_bools(self, levels):
        # once coerced by int(): [(2.9, 1.5)] became [(2, 1)]
        with pytest.raises(InvalidInput, match="exact integers"):
            LevelSpec(levels)

    @pytest.mark.parametrize("make", [
        lambda: LevelSpec.constant(2, 1, 2.5),
        lambda: LevelSpec.constant(2, 1, True),
        lambda: LevelSpec.constant(2, 1, 0),
        lambda: LevelSpec([(2, 1), (3, 1)], 1),
        lambda: LevelSpec([3]),
        lambda: LevelSpec([(2, 1, 1)]),
        lambda: LevelSpec(5),
        lambda: ChoiceLevelSpec(None),
        lambda: ChoiceLevelSpec([5]),
        lambda: ChoiceLevelSpec([[3]]),
        lambda: ChoiceLevelSpec([[(2, 1, 3)]]),
        lambda: ChoiceLevelSpec([[([2], 1)]]),
    ])
    def test_rejects_malformed_pairs_and_counts(self, make):
        # constant(2, 1, 2.5) and LevelSpec([3]) once raised TypeError, from
        # [pair] * 2.5 and from unpacking 3 as a pair; ChoiceLevelSpec(None),
        # ([5]) and ([[(2, 1, 3)]]) raised TypeError or ValueError
        with pytest.raises(InvalidInput):
            make()

    @pytest.mark.parametrize("read", [
        lambda spec: spec.arity(0),
        lambda spec: spec.arity(5),
        lambda spec: spec.arity(9),
        lambda spec: spec.options(0),
        lambda spec: spec.options(-1),
        lambda spec: spec.options(5),
        lambda spec: spec.depth(-1),
        lambda spec: spec.depth(5),
    ])
    def test_reads_outside_the_levels_raise(self, read):
        # arity(0) and arity(9) once returned 2, depth(-1) 2 and depth(9) 9
        spec = LevelSpec([(3, 1), (2, 1)], 4)
        assert (spec.arity(1), spec.arity(4), spec.depth(0), spec.depth(4)) == (3, 2, 0, 4)
        with pytest.raises(InvalidInput, match="outside"):
            read(spec)

    @pytest.mark.parametrize("i", [0, -1, 3])
    def test_choice_options_outside_the_levels_raise(self, i):
        spec = ChoiceLevelSpec([[(2, 1)], [(2, 1), (4, 2)]])
        assert spec.options(2) == ((2, 1), (4, 2))
        with pytest.raises(InvalidInput, match="outside"):
            spec.options(i)

    def test_keeps_integer_pairs_as_tuples(self):
        spec = LevelSpec([[3, 1], [2, 2]])
        assert spec.num_levels == 2
        assert (spec.options(1), spec.options(2)) == (((3, 1),), ((2, 2),))

    def test_compact_spec_matches_the_expanded_list(self):
        rng = random.Random(32)
        for _ in range(300):
            head = [(rng.randint(2, 3), rng.randint(1, 2)) for _ in range(rng.randint(0, 3))]
            run = (rng.randint(2, 3), rng.randint(1, 2))
            listed = head + [run] * rng.randint(1, 40)
            expanded, compact = LevelSpec(listed), LevelSpec(head + [run], len(listed))
            assert expanded.num_levels == compact.num_levels == len(listed)
            for i, (r, c) in enumerate(listed, start=1):
                depth = sum(c for _, c in listed[:i])
                for spec in (expanded, compact):
                    assert (spec.arity(i), spec.depth(i), spec.options(i)) == (r, depth, ((r, c),))

    def test_constant_spec_stores_one_pair(self):
        spec = LevelSpec.constant(2, 1, 10**9)
        assert spec.depth(10**9) == 10**9
        assert repr(spec) == "LevelSpec([(2, 1)], count=1000000000)"
        assert repr(LevelSpec([(3, 1), (2, 1), (2, 1)])) == "LevelSpec([(3, 1), (2, 1)], count=3)"


class TestLeafSequence:
    def test_normalizes(self):
        assert LeafSequence({2: 1, 1: 0}) == LeafSequence({2: 1})
        assert LeafSequence({1: 2}).total == 2
        assert LeafSequence({3: 1, 1: 1}).deepest == 3

    def test_rejects_bad_levels(self):
        with pytest.raises(InvalidInput):
            LeafSequence({0: 1})
        with pytest.raises(InvalidInput):
            LeafSequence({1: -1})

    @pytest.mark.parametrize("counts", [{1.9: 2.2}, {True: 2}, {"2": "4"}])
    def test_rejects_non_integers_and_bools(self, counts):
        # once coerced by int(): {1.9: 2.2} became {1: 2}
        with pytest.raises(InvalidInput, match="exact integers"):
            LeafSequence(counts)
