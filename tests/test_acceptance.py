"""Acceptance criteria, one test per criterion.

Each test prints one PASS line (visible with ``pytest -s``); a failed assert
is the FAIL signal.  Tolerances are fixed here, not tuned elsewhere:

1. GMR solvers equal the exhaustive oracle on 500 random instances (exact).
2. One-ended solvers equal the exhaustive oracle on 300 instances (exact).
3. Constant-arity adapter equals greedy Huffman on 500 instances (exact).
4. Naive/batched bit-equality of tables, answers and backtraces, 200
   instances per family with n <= 40 (exact).
5. Reduction soundness on 1000 emitted codebooks (zero violations).
6. Complexity scaling over n in {50, 100, 200, 400}: log-log slopes
   gmr 3.0/4.0 +- 0.3, reserved-given 2.0/3.0 +- 0.3, one-ended batched
   2.0 +- 0.4 vs naive 3.0 +- 0.3, reserved-g batched <= 2.5.
7. Telescoped backtrace cost equals the answer on every criterion-1/2/4
   instance (exact).
8. The reserved-length showcase instance (r=2, lengths {1,3,6}, weights
   1..16) solves to the oracle-frozen cost 573 via both algorithms.
"""

import random

import pytest
from helpers import assert_same_solution, random_weights, telescoped_cost

from prefixcodes import (
    GLengthsSpec,
    LevelSpec,
    MixedRadixSpec,
    NoFeasibleTree,
    OracleBudget,
    ReservedSpec,
    check_prefix_free,
    enumerate_gmr,
    enumerate_one_ended,
    huffman_greedy,
    normalize_weights,
    solve_batched,
    solve_huffman_reference_adapter,
    solve_mixed_radix,
    solve_naive,
    solve_one_ended,
    solve_reserved_g,
    solve_reserved_given,
)
from prefixcodes import bench as bench_mod


def _criterion1_instances():
    rng = random.Random(0xC1)
    for _ in range(500):
        n = rng.randint(1, 8)
        ml = rng.randint(1, 5)
        spec = LevelSpec([(rng.randint(2, 4), rng.randint(1, 3)) for _ in range(ml)])
        yield normalize_weights(random_weights(rng, n, 0, 50)), spec


def test_criterion_1_gmr_oracle_equivalence():
    checked = 0
    for w, spec in _criterion1_instances():
        try:
            want = enumerate_gmr(w, spec, spec.num_levels)
        except NoFeasibleTree:
            with pytest.raises(NoFeasibleTree):
                solve_naive(w, spec)
            with pytest.raises(NoFeasibleTree):
                solve_batched(w, spec)
            continue
        assert solve_naive(w, spec).cost == want
        assert solve_batched(w, spec).cost == want
        checked += 1
    assert checked > 300
    print(f"\nACCEPTANCE 1 PASS: gmr naive/batched == oracle on {checked} feasible of 500 instances")


def _criterion2_instances():
    rng = random.Random(0xC2)
    for _ in range(300):
        n = rng.randint(1, 6)
        yield normalize_weights(random_weights(rng, n, 0, 50))


def test_criterion_2_one_ended_oracle_equivalence():
    for w in _criterion2_instances():
        want = enumerate_one_ended(w)
        assert solve_one_ended(w, with_code=False).cost == want
        assert solve_one_ended(w, algorithm="naive", with_code=False).cost == want
    print("\nACCEPTANCE 2 PASS: one-ended naive/batched == oracle on 300 instances")


def test_criterion_3_huffman_cross_check():
    rng = random.Random(0xC3)
    for _ in range(500):
        n = rng.randint(1, 12)
        r = rng.choice([2, 3, 4])
        w = normalize_weights(random_weights(rng, n, 0, 10**6))
        res = solve_huffman_reference_adapter(w, r, want_code=False)
        assert res.dp.cost == huffman_greedy(w, r)
    print("\nACCEPTANCE 3 PASS: constant-arity adapter == greedy Huffman on 500 instances")


def _criterion4_gmr_instances():
    rng = random.Random(0xC4)
    for _ in range(200):
        n = rng.randint(1, 40)
        ml = rng.randint(1, n)
        spec = LevelSpec([(rng.randint(2, 5), rng.randint(1, 3)) for _ in range(ml)])
        yield normalize_weights(random_weights(rng, n, 0, 10**6)), spec


def _criterion4_one_ended_instances():
    rng = random.Random(0xC5)
    for _ in range(200):
        n = rng.randint(1, 40)
        yield normalize_weights(random_weights(rng, n, 0, 10**6))


def test_criterion_4_naive_batched_bit_equality():
    gmr_checked = 0
    for w, spec in _criterion4_gmr_instances():
        try:
            rn = solve_naive(w, spec)
        except NoFeasibleTree:
            with pytest.raises(NoFeasibleTree):
                solve_batched(w, spec)
            continue
        rb = solve_batched(w, spec)
        assert_same_solution(rn, rb)
        gmr_checked += 1
    for w in _criterion4_one_ended_instances():
        rn = solve_one_ended(w, algorithm="naive")
        rb = solve_one_ended(w)
        assert rn.cost == rb.cost
        assert rn.expansions == rb.expansions
        assert rn.table.costs == rb.table.costs
    print(f"\nACCEPTANCE 4 PASS: bit-equal tables/answers/backtraces "
          f"({gmr_checked} feasible gmr + 200 one-ended instances)")


def test_criterion_5_reduction_soundness():
    rng = random.Random(0xC6)
    violations = 0
    total = 0
    for _ in range(200):
        n = rng.randint(1, 10)
        w = normalize_weights(random_weights(rng, n, 0, 100))

        arities = tuple(rng.randint(2, 4) for _ in range(rng.randint(1, 3)))
        res = solve_mixed_radix(w, MixedRadixSpec(arities))
        total += 1
        if not check_prefix_free(res.codebook.words) or not all(
            0 <= sym < arities[min(pos, len(arities)) - 1]
            for word in res.codebook.words
            for pos, sym in enumerate(word, start=1)
        ):
            violations += 1

        lengths = tuple(sorted(rng.sample(range(1, 9), rng.randint(1, 3))))
        total += 1
        try:
            res = solve_reserved_given(w, ReservedSpec(2, lengths))
            if not check_prefix_free(res.codebook.words) or not (
                set(res.codebook.lengths) <= set(lengths)
            ):
                violations += 1
        except NoFeasibleTree:
            if 2 ** lengths[-1] >= n:
                violations += 1

        g = rng.randint(1, 3)
        r = rng.choice([2, 3])
        res = solve_reserved_g(w, GLengthsSpec(r, g))
        total += 1
        if not check_prefix_free(res.codebook.words) or len(set(res.codebook.lengths)) > g:
            violations += 1

        res = solve_one_ended(w)
        total += 1
        if not check_prefix_free(res.codebook.words) or not all(
            word[-1] == 1 for word in res.codebook.words
        ):
            violations += 1

        r = rng.choice([2, 3, 4])
        res = solve_huffman_reference_adapter(w, r)
        total += 1
        if not check_prefix_free(res.codebook.words) or not all(
            0 <= sym < r for word in res.codebook.words for sym in word
        ):
            violations += 1
    assert total == 1000 and violations == 0
    print(f"\nACCEPTANCE 5 PASS: {total} emitted codebooks, zero violations")


@pytest.mark.slow
def test_criterion_6_complexity_scaling():
    sizes = [50, 100, 200, 400]
    slopes = {}
    for problem, algorithms in [
        ("gmr", ["naive", "batched"]),
        ("reserved-given", ["naive", "batched"]),
        ("one-ended", ["naive", "batched"]),
        ("reserved-g", ["batched"]),
    ]:
        rows = bench_mod.run_scaling(problem, sizes, algorithms, seed=1)
        for (prob, algo), slope in bench_mod.slope_summary(rows).items():
            slopes[(prob, algo)] = slope
    bounds = {
        ("gmr", "batched"): (2.7, 3.3),
        ("gmr", "naive"): (3.7, 4.3),
        ("reserved-given", "batched"): (1.7, 2.3),
        ("reserved-given", "naive"): (2.7, 3.3),
        ("one-ended", "batched"): (1.6, 2.4),
        ("one-ended", "naive"): (2.7, 3.3),
        ("reserved-g", "batched"): (None, 2.5),
    }
    for key, (lo, hi) in bounds.items():
        slope = slopes[key]
        assert slope <= hi, f"{key}: slope {slope:.3f} above {hi}"
        if lo is not None:
            assert slope >= lo, f"{key}: slope {slope:.3f} below {lo}"
    summary = ", ".join(f"{p}/{a}={s:.2f}" for (p, a), s in sorted(slopes.items()))
    print(f"\nACCEPTANCE 6 PASS: {summary}")


def test_criterion_7_telescoping_identity():
    checked = 0
    for w, spec in _criterion1_instances():
        try:
            res = solve_batched(w, spec)
        except NoFeasibleTree:
            continue
        assert telescoped_cost(res.expansions, w, spec) == res.cost
        checked += 1
    for w, spec in _criterion4_gmr_instances():
        try:
            res = solve_batched(w, spec)
        except NoFeasibleTree:
            continue
        assert telescoped_cost(res.expansions, w, spec) == res.cost
        checked += 1
    for w in list(_criterion2_instances()) + list(_criterion4_one_ended_instances()):
        res = solve_one_ended(w, with_code=False)
        total = sum(w.tail_weight(res.expansions[i - 1][0])
                    for i in range(1, len(res.expansions)))
        assert total == res.cost
        checked += 1
    print(f"\nACCEPTANCE 7 PASS: telescoped backtrace cost exact on {checked} instances")


def test_criterion_8_reserved_length_showcase():
    w = normalize_weights(list(range(1, 17)))
    want = enumerate_gmr(w, LevelSpec([(2, 1), (4, 2), (8, 3)]), 3,
                         OracleBudget(max_n=16, max_depth=3))
    assert want == 573  # frozen before the solvers were written
    for algorithm in ("naive", "batched"):
        res = solve_reserved_given(w, ReservedSpec(2, (1, 3, 6)), algorithm=algorithm)
        assert res.dp.cost == want
        assert res.codebook.cost == want
        assert set(res.codebook.lengths) <= {1, 3, 6}
    print("\nACCEPTANCE 8 PASS: showcase instance solves to the frozen oracle cost 573")
