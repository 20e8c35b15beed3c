import random

import pytest
from helpers import assert_same_solution, random_weights

from prefixcodes import (
    ChoiceLevelSpec,
    InvalidInput,
    LevelSpec,
    NoFeasibleTree,
    OracleBudget,
    check_prefix_free,
    enumerate_choice,
    enumerate_gmr,
    normalize_weights,
    problems,
    solve_batched,
    solve_choice,
)
from prefixcodes.gmr import backtrack
from prefixcodes.problems import glengths_options

TWO_OPTIONS = [(2, 1), (4, 2)]


class TestSpecValidation:
    def test_rejects_duplicate_options(self):
        with pytest.raises(InvalidInput):
            ChoiceLevelSpec([[(2, 1), (2, 1)]])

    def test_rejects_empty_level(self):
        with pytest.raises(InvalidInput):
            ChoiceLevelSpec([[]])

    @pytest.mark.parametrize("options", [[(2.5, 1)], [(2, True)], [("4", 2)], [(2, 1), (4.0, 2)]])
    def test_rejects_non_integers_and_bools(self, options):
        with pytest.raises(InvalidInput, match="exact integers"):
            ChoiceLevelSpec([options])


class TestSolveChoice:
    def test_degenerate_single_option(self):
        w = normalize_weights([3, 2, 1, 1])
        rc = solve_choice(w, ChoiceLevelSpec([[(2, 1)]] * 4))
        rb = solve_batched(w, LevelSpec.constant(2, 1, 4))
        assert rc.cost == rb.cost == 13
        assert rc.expansions == rb.expansions
        # choice specs always fill level by level; the plain cut-off solve
        # keeps a level-free tail, so compare with the plain full-depth fill.
        # Level 3 keeps only the states (m, b >= 1) that the binary level 4
        # finishes, n <= m + 2b <= n + 1: (2, 2) would make 6 leaves.
        full = solve_batched(w, LevelSpec.constant(2, 1, 4), cutoff=False)
        expected = [t.costs for t in full.tables]
        expected[3] = {(m, b): v for (m, b), v in expected[3].items()
                       if b == 0 or w.n <= m + 2 * b <= w.n + 1}
        assert (2, 2) in full.tables[3].costs and (2, 2) not in expected[3]
        assert [t.costs for t in rc.tables] == expected[:len(rc.tables)]

    def test_tied_routes(self):
        w = normalize_weights([1, 1, 1, 1])
        res = solve_choice(w, ChoiceLevelSpec([TWO_OPTIONS] * 4))
        assert res.cost == 8  # depth-2 binary ties the single arity-4 level

    def test_skewed_weights(self):
        # frozen from the option-assignment enumeration oracle
        w = normalize_weights([8, 1, 1, 1])
        res = solve_choice(w, ChoiceLevelSpec([TWO_OPTIONS] * 4))
        assert res.cost == 16
        assert res.options == (0, 0, 0)

    def test_options_recorded_along_chain(self):
        w = normalize_weights([1, 1, 1, 1])
        cspec = ChoiceLevelSpec([TWO_OPTIONS] * 4)
        res = solve_choice(w, cspec)
        assert len(res.options) == res.level
        assert all(0 <= j < 2 for j in res.options)
        chain, _full, options = backtrack(res.tables, (res.level, res.leaves_full, res.cost),
                                          cspec, w)
        assert chain == res.expansions and options == res.options

    def test_cost_only_mode_skips_tables_and_options(self):
        w = normalize_weights([8, 1, 1, 1])
        res = solve_choice(w, ChoiceLevelSpec([TWO_OPTIONS] * 4), keep_tables=False)
        assert res.cost == 16
        assert res.tables is None and res.options is None

    def test_unknown_algorithm_rejected(self):
        w = normalize_weights([1, 1])
        with pytest.raises(InvalidInput):
            solve_choice(w, ChoiceLevelSpec([TWO_OPTIONS]), algorithm="fast")


class TestPerOptionFill:
    """One option's level fill, seen through a single-option choice level."""

    def test_root_expansion_binary(self):
        # the full fill keeps every state; the default one fills the spec's
        # last level with finished states only
        w = normalize_weights([1, 1])
        cspec = ChoiceLevelSpec([TWO_OPTIONS[:1]])
        for algorithm in ("naive", "batched"):
            res = solve_choice(w, cspec, algorithm=algorithm, cutoff=False)
            assert res.tables[1].costs == {(0, 2): 2, (1, 1): 2, (2, 0): 2}
            res = solve_choice(w, cspec, algorithm=algorithm)
            assert res.tables[1].costs == {(2, 0): 2}

    def test_root_expansion_wide(self):
        w = normalize_weights([1, 1])
        for algorithm in ("naive", "batched"):
            res = solve_choice(w, ChoiceLevelSpec([TWO_OPTIONS[1:]]), algorithm=algorithm)
            assert res.tables[1].costs == {(4, 0): 4}  # edge length 2 charges 2 * W_0

    def test_combined_level_takes_the_cheaper_option(self):
        # both options above on one level: (2, 0) costs 2 and wins; (4, 0)
        # costs 4 and is reached through option 1 only
        w = normalize_weights([1, 1])
        cspec = ChoiceLevelSpec([TWO_OPTIONS])
        res = solve_choice(w, cspec, cutoff=False)
        assert res.tables[1].costs == {(0, 2): 2, (1, 1): 2, (2, 0): 2, (4, 0): 4}
        res = solve_choice(w, cspec)
        assert res.tables[1].costs == {(2, 0): 2, (4, 0): 4}
        assert backtrack(res.tables, (1, 4, 4), cspec, w)[2] == (1,)
        assert res.options == (0,)

    def test_unreachable_propagates(self):
        # (4, 0) is no valid binary state for n = 2, so level 2 is empty,
        # and so is every level filled from it
        w = normalize_weights([1, 1])
        cspec = ChoiceLevelSpec([[(4, 1)], [(2, 1)], [(2, 1)]])
        res = solve_choice(w, cspec, cutoff=False)
        assert res.tables[1].costs == {(4, 0): 2}
        assert res.tables[2].costs == {} and res.tables[3].costs == {}
        assert res.cost == 2 and res.options == (0,)
        # by default the loop stops after level 1: its only state is the
        # finished (4, 0), so no deeper level can beat it, and the empty
        # level 2 is never filled
        res = solve_choice(w, cspec)
        assert res.levels_filled == 1 and len(res.tables) == 2
        assert res.cost == 2 and res.options == (0,)


class TestInvariants:
    def test_degeneracy_randomized(self):
        rng = random.Random(71)
        for _ in range(25):
            n = rng.randint(1, 30)
            ml = rng.randint(1, 6)
            levels = [(rng.randint(2, 4), rng.randint(1, 3)) for _ in range(ml)]
            w = normalize_weights(random_weights(rng, n))
            try:
                rb = solve_batched(w, LevelSpec(levels))
            except NoFeasibleTree:
                with pytest.raises(NoFeasibleTree):
                    solve_choice(w, ChoiceLevelSpec([[lv] for lv in levels]))
                continue
            rc = solve_choice(w, ChoiceLevelSpec([[lv] for lv in levels]))
            assert rc.cost == rb.cost and rc.expansions == rb.expansions

    def test_naive_and_batched_option_fills_agree(self):
        rng = random.Random(55)
        for _ in range(15):
            n = rng.randint(1, 12)
            w = normalize_weights(random_weights(rng, n))
            cspec = ChoiceLevelSpec([TWO_OPTIONS] * 3)
            try:
                rb = solve_choice(w, cspec)
            except NoFeasibleTree:
                continue
            rn = solve_choice(w, cspec, algorithm="naive")
            assert_same_solution(rn, rb)
            assert rn.options == rb.options

    def test_option_dominance(self):
        rng = random.Random(17)
        for _ in range(15):
            n = rng.randint(1, 8)
            w = normalize_weights(random_weights(rng, n))
            base = [[(2, 1)]] * 3
            richer = [[(2, 1), (3, 1)]] * 3
            try:
                a = solve_choice(w, ChoiceLevelSpec(base)).cost
            except NoFeasibleTree:
                continue
            b = solve_choice(w, ChoiceLevelSpec(richer)).cost
            assert b <= a

    def test_oracle_equivalence_small(self):
        # up to n levels at n <= 8; some levels offer reserved-g's own four
        # jumps (2, 1) .. (16, 4)
        rng = random.Random(23)
        budget = OracleBudget(max_n=8, max_depth=8, max_option_sets=4)
        for _ in range(60):
            n = rng.randint(1, 8)
            ml = rng.randint(1, n)
            options = []
            for _ in range(ml):
                if rng.random() < 0.3:
                    options.append(glengths_options(2, 8))
                    continue
                k = rng.randint(1, 3)
                opts = set()
                while len(opts) < k:
                    opts.add((rng.randint(2, 4), rng.randint(1, 2)))
                options.append(sorted(opts))
            w = normalize_weights(random_weights(rng, n))
            cspec = ChoiceLevelSpec(options)
            try:
                want = enumerate_choice(w, cspec, ml, budget)
            except NoFeasibleTree:
                with pytest.raises(NoFeasibleTree):
                    solve_choice(w, cspec)
                continue
            assert solve_choice(w, cspec).cost == want

    @pytest.mark.parametrize("g", [3, 4])
    def test_reserved_g_matches_the_memoized_oracle_past_n_8(self, g):
        # past the exhaustive range: at most g levels, each offering every
        # jump (r**t, t), so level g - 1 keeps only what level g can finish
        rng = random.Random(g)
        budget = OracleBudget(max_n=14, max_depth=g)
        for n in range(9, 15):
            for radix in (2, 3):
                w = normalize_weights(random_weights(rng, n, 0, rng.choice([1, 50, 10**6])))
                params = problems.Params(radix=radix, g=g)
                cspec = problems.PROBLEMS["reserved-g"].levels(params, n)
                want = enumerate_gmr(w, cspec, cspec.num_levels, budget)
                for algorithm in ("naive", "batched"):
                    res = problems.solve("reserved-g", w, params, algorithm=algorithm)
                    assert res.dp.cost == res.codebook.cost == want
                    assert check_prefix_free(res.codebook.words)
                    assert len(set(res.codebook.lengths)) <= g
