import random

import pytest
from helpers import random_weights

from prefixcodes import (
    ArityOverflow,
    GLengthsSpec,
    InvalidInput,
    LevelSpec,
    MixedRadixSpec,
    NoFeasibleTree,
    ProblemResult,
    ReservedSpec,
    check_prefix_free,
    huffman_greedy,
    leafseq_to_codewords,
    normalize_weights,
    problems,
    solve_batched,
    solve_huffman_reference_adapter,
    solve_mixed_radix,
    solve_naive,
    solve_one_ended,
    solve_reserved_g,
    solve_reserved_given,
)
from prefixcodes.problems import PROBLEMS, Params


class TestMixedRadix:
    def test_binary_matches_huffman(self):
        res = solve_mixed_radix(normalize_weights([3, 2, 1, 1]), MixedRadixSpec((2,)))
        assert res.codebook.cost == 13

    def test_two_then_three(self):
        res = solve_mixed_radix(normalize_weights([1] * 5), MixedRadixSpec((2, 3)))
        assert res.codebook.cost == 10

    def test_all_fit_on_first_level(self):
        res = solve_mixed_radix(normalize_weights([1, 1, 1]), MixedRadixSpec((4,)))
        assert res.codebook.cost == 3
        assert res.codebook.words == ((0,), (1,), (2,))

    def test_symbols_respect_per_level_arity(self):
        rng = random.Random(101)
        for _ in range(20):
            n = rng.randint(1, 10)
            arities = tuple(rng.randint(2, 5) for _ in range(rng.randint(1, 4)))
            spec = MixedRadixSpec(arities)
            w = normalize_weights(random_weights(rng, n))
            res = solve_mixed_radix(w, spec)
            for word in res.codebook.words:
                for pos, sym in enumerate(word, start=1):
                    assert 0 <= sym < arities[min(pos, len(arities)) - 1]
            levels = problems.PROBLEMS["mixed-radix"].levels(Params(arities=arities), n)
            assert [levels.arity(i) for i in range(1, levels.num_levels + 1)] == [
                arities[min(pos, len(arities)) - 1] for pos in range(1, n + 1)]

    def test_constant_arity_equals_adapter(self):
        rng = random.Random(103)
        for _ in range(15):
            n = rng.randint(1, 20)
            r = rng.choice([2, 3, 4])
            w = normalize_weights(random_weights(rng, n))
            a = solve_mixed_radix(w, MixedRadixSpec((r,)), want_code=False)
            b = solve_huffman_reference_adapter(w, r, want_code=False)
            assert a.dp.cost == b.dp.cost


class TestReservedGiven:
    def test_single_forced_length(self):
        res = solve_reserved_given(normalize_weights([1, 2, 3, 4]), ReservedSpec(2, (2,)))
        assert res.codebook.cost == 20
        assert res.codebook.words == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_two_lengths(self):
        res = solve_reserved_given(normalize_weights([4, 1, 1]), ReservedSpec(2, (1, 2)))
        assert res.codebook.cost == 8
        assert res.codebook.words == ((0,), (1, 0), (1, 1))

    def test_infeasible(self):
        with pytest.raises(NoFeasibleTree):
            solve_reserved_given(normalize_weights([1, 1, 1]), ReservedSpec(2, (1,)))

    def test_figure_instance(self):
        # frozen from the exhaustive oracle before the solver was written
        w = normalize_weights(list(range(1, 17)))
        res = solve_reserved_given(w, ReservedSpec(2, (1, 3, 6)))
        assert res.codebook.cost == 573
        assert set(res.codebook.lengths) <= {1, 3, 6}

    def test_arity_overflow(self):
        with pytest.raises(ArityOverflow):
            solve_reserved_given(normalize_weights([1, 1]), ReservedSpec(2, (1, 1000)))

    def test_large_gap_exercises_wide_levels(self):
        # arity 2**20 on the second meta level, far above n
        w = normalize_weights([5, 4, 3])
        res = solve_reserved_given(w, ReservedSpec(2, (1, 21)))
        assert set(res.codebook.lengths) <= {1, 21}
        assert check_prefix_free(res.codebook.words)

    def test_lengths_always_in_lambda(self):
        rng = random.Random(107)
        for _ in range(20):
            n = rng.randint(1, 10)
            lengths = tuple(sorted(rng.sample(range(1, 9), rng.randint(1, 3))))
            w = normalize_weights(random_weights(rng, n))
            try:
                res = solve_reserved_given(w, ReservedSpec(2, lengths))
            except NoFeasibleTree:
                assert 2 ** lengths[-1] < n
                continue
            assert set(res.codebook.lengths) <= set(lengths)
            assert check_prefix_free(res.codebook.words)

    def test_naive_equals_batched(self):
        w = normalize_weights(list(range(1, 17)))
        a = solve_reserved_given(w, ReservedSpec(2, (1, 3, 6)), algorithm="naive")
        b = solve_reserved_given(w, ReservedSpec(2, (1, 3, 6)), algorithm="batched")
        assert a.codebook == b.codebook


class TestReservedG:
    def test_one_length(self):
        res = solve_reserved_g(normalize_weights([1, 1, 1, 1]), GLengthsSpec(2, 1))
        assert res.codebook.cost == 8
        assert len(set(res.codebook.lengths)) == 1

    def test_two_lengths(self):
        res = solve_reserved_g(normalize_weights([4, 1, 1]), GLengthsSpec(2, 2))
        assert res.codebook.cost == 8
        assert set(res.codebook.lengths) == {1, 2}

    def test_large_budget_reaches_huffman(self):
        rng = random.Random(109)
        for _ in range(10):
            n = rng.randint(1, 10)
            w = normalize_weights(random_weights(rng, n))
            res = solve_reserved_g(w, GLengthsSpec(2, n))
            assert res.codebook.cost == huffman_greedy(w, 2)

    def test_envelope_monotone_in_g(self):
        rng = random.Random(113)
        for _ in range(10):
            n = rng.randint(2, 10)
            w = normalize_weights(random_weights(rng, n))
            costs = [solve_reserved_g(w, GLengthsSpec(2, g), want_code=False).dp.cost
                     for g in range(1, 5)]
            assert all(a >= b for a, b in zip(costs, costs[1:]))
            assert costs[-1] >= huffman_greedy(w, 2)

    @pytest.mark.parametrize("algorithm", ["naive", "batched"])
    @pytest.mark.parametrize("weights,g,cost,chain,options,lengths", [
        ([1] * 6, 3, 16, ((0, 1), (2, 2), (6, 0)), (1, 0), (2, 2, 3, 3, 3, 3)),
        # options tie here; trying the last option first changes the chain
        ([2, 1, 1, 1, 0], 2, 11, ((0, 1), (3, 1), (5, 0)), (1, 0), (2, 2, 2, 3, 3)),
    ])
    def test_tied_weights_pin_options_and_lengths(self, algorithm, weights, g, cost, chain,
                                                  options, lengths):
        # frozen from the solver that stored per-entry options
        res = solve_reserved_g(normalize_weights(weights), GLengthsSpec(2, g),
                               algorithm=algorithm)
        assert res.dp.cost == cost
        assert res.dp.expansions == chain
        assert res.dp.options == options
        assert res.codebook.lengths == lengths

    def test_distinct_length_budget_respected(self):
        rng = random.Random(127)
        for _ in range(20):
            n = rng.randint(1, 12)
            g = rng.randint(1, 3)
            r = rng.choice([2, 3])
            w = normalize_weights(random_weights(rng, n))
            res = solve_reserved_g(w, GLengthsSpec(r, g))
            assert len(set(res.codebook.lengths)) <= g
            assert check_prefix_free(res.codebook.words)


class TestHuffmanAdapter:
    @pytest.mark.parametrize("weights,r,want", [
        ([3, 2, 1, 1], 2, 13),
        ([1, 1, 1], 3, 3),
        ([1, 1], 2, 2),
    ])
    def test_known_values(self, weights, r, want):
        res = solve_huffman_reference_adapter(normalize_weights(weights), r)
        assert res.codebook.cost == want

    def test_matches_greedy_randomized(self):
        rng = random.Random(131)
        for _ in range(25):
            n = rng.randint(1, 12)
            r = rng.choice([2, 3, 4])
            w = normalize_weights(random_weights(rng, n))
            res = solve_huffman_reference_adapter(w, r, want_code=False)
            assert res.dp.cost == huffman_greedy(w, r)


@pytest.mark.parametrize("solve,spec", [
    (solve_huffman_reference_adapter, 2),
    (solve_mixed_radix, MixedRadixSpec((2, 3))),
    (solve_reserved_given, ReservedSpec(2, (1, 3))),
    (solve_reserved_g, GLengthsSpec(2, 2)),
])
def test_unknown_algorithm_rejected(solve, spec):
    for want_code in (True, False):
        with pytest.raises(InvalidInput):
            solve(normalize_weights([3, 2, 1]), spec, algorithm="foo", want_code=want_code)


@pytest.mark.parametrize("make", [
    lambda: ReservedSpec(2.5, (1,)),
    lambda: ReservedSpec(2, (True, 3)),
    lambda: GLengthsSpec(2.5, 2),
    lambda: GLengthsSpec(2, 2.5),
    lambda: GLengthsSpec(2, True),
    lambda: solve_huffman_reference_adapter(normalize_weights([3, 2, 1]), "2"),
])
def test_specs_reject_non_integers_and_bools(make):
    # ReservedSpec(2.5, (1,)) once failed with an AttributeError while
    # building its meta arities; GLengthsSpec(2.5, 2) gave float arities;
    # a huffman radix "2" once raised TypeError comparing it with 2
    with pytest.raises(InvalidInput):
        make()


# -- the registry: problems.solve is the one solve path --------------------

GMR_LEVELS = LevelSpec([(3, 1), (2, 2)] + [(2, 1)] * 6)
REGISTRY_PARAMS = {
    "gmr": Params(levels=GMR_LEVELS),
    "huffman": Params(radix=3),
    "mixed-radix": Params(arities=(4, 2, 3)),
    "reserved-given": Params(radix=2, lengths=(1, 3, 6)),
    "reserved-g": Params(radix=2, g=2),
    "one-ended": Params(),
}


def _named_solve(name, w, algorithm, want_code):
    """The answer of ``name`` by its named entry point, not the registry."""
    kw = dict(algorithm=algorithm, want_code=want_code)
    if name == "gmr":
        solver = solve_naive if algorithm == "naive" else solve_batched
        dp = solver(w, GMR_LEVELS, keep_tables=want_code)
        code = leafseq_to_codewords(dp.leaf_sequence, GMR_LEVELS, w) if want_code else None
        return ProblemResult(code, dp)
    if name == "huffman":
        return solve_huffman_reference_adapter(w, 3, **kw)
    if name == "mixed-radix":
        return solve_mixed_radix(w, MixedRadixSpec((4, 2, 3)), **kw)
    if name == "reserved-given":
        return solve_reserved_given(w, ReservedSpec(2, (1, 3, 6)), **kw)
    if name == "reserved-g":
        return solve_reserved_g(w, GLengthsSpec(2, 2), **kw)
    raise AssertionError(name)


def test_registry_covers_the_six_problems():
    assert sorted(PROBLEMS) == sorted(REGISTRY_PARAMS)


@pytest.mark.parametrize("want_code", [True, False])
@pytest.mark.parametrize("algorithm", ["naive", "batched"])
@pytest.mark.parametrize("name", sorted(REGISTRY_PARAMS))
def test_registry_solve_matches_the_named_entry_point(name, algorithm, want_code):
    w = normalize_weights([9, 5, 3, 2, 1, 1, 1, 1])
    got = problems.solve(name, w, REGISTRY_PARAMS[name], algorithm=algorithm,
                         want_code=want_code)
    assert (got.codebook is not None) == want_code
    if name == "one-ended":
        res = solve_one_ended(w, algorithm=algorithm, with_code=want_code)
        assert got.codebook == res.codebook
        assert (got.dp.cost, got.dp.expansions, got.dp.cells_updated) == (
            res.cost, res.expansions, res.cells_updated)
        assert got.dp.level == len(res.expansions) - 1
    else:
        assert got == _named_solve(name, w, algorithm, want_code)


@pytest.mark.parametrize("want_code", [True, False])
@pytest.mark.parametrize("cutoff", [True, False])
def test_one_ended_dp_is_the_engine_result(want_code, cutoff):
    w = normalize_weights([9, 5, 3, 2, 1, 1, 1, 1, 0, 0])
    got = problems.solve("one-ended", w, Params(), want_code=want_code, cutoff=cutoff)
    assert got.dp == solve_one_ended(w, with_code=want_code, cutoff=cutoff)
    assert got.dp.codebook is got.codebook


def _random_params(rng, name, n):
    if name == "gmr":
        return Params(levels=LevelSpec([(rng.randint(2, 3), rng.randint(1, 2))
                                        for _ in range(rng.randint(n, n + 2))]))
    if name == "huffman":
        return Params(radix=rng.randint(2, 4))
    if name == "mixed-radix":
        return Params(arities=tuple(rng.randint(2, 4) for _ in range(rng.randint(1, 3))))
    if name == "reserved-given":
        # one length of 3 or more: 2**3 words hold any n <= 6
        lengths = {rng.randint(3, 5), *rng.sample(range(1, 6), rng.randint(0, 2))}
        return Params(radix=2, lengths=tuple(sorted(lengths)))
    if name == "reserved-g":
        return Params(radix=rng.randint(2, 3), g=rng.randint(1, 3))
    return Params()


@pytest.mark.parametrize("name", sorted(REGISTRY_PARAMS))
def test_registry_oracle_agrees_on_random_instances(name):
    # the wiring ``verify`` uses: the oracle reads the engine spec ``levels`` builds
    rng = random.Random(sum(map(ord, name)))
    problem = PROBLEMS[name]
    for _ in range(12):
        n = rng.randint(1, 6)
        w = normalize_weights(random_weights(rng, n))
        params = _random_params(rng, name, n)
        want = problem.oracle(w, problem.levels(params, n), 8)
        for algorithm in ("naive", "batched"):
            assert problems.solve(name, w, params, algorithm=algorithm).dp.cost == want


def test_unknown_problem_rejected():
    with pytest.raises(InvalidInput, match="unknown problem 'nonsense'"):
        problems.solve("nonsense", normalize_weights([3, 2, 1]), Params())
