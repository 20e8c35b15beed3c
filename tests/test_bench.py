import os

import pytest

from prefixcodes import LevelSpec, bench, cli, normalize_weights, problems

# stdout of ``prefixcodes bench --problem P --sizes "8 16 50" --algorithms
# "naive batched" --seed 3`` for each problem in turn, CSV rows with their
# "# params" and "# slope" lines.  Regenerate it (``regen_golden.py``) only
# for an intended change to the fills, the cell counts or the CSV layout.
GOLDEN_CSV = os.path.join(os.path.dirname(__file__), "data", "bench_golden.csv")
GOLDEN_PROBLEMS = ("gmr", "huffman", "mixed-radix", "reserved-given", "reserved-g", "one-ended")


def bench_argv(problem):
    return ["bench", "--problem", problem, "--sizes", "8 16 50",
            "--algorithms", "naive batched", "--seed", "3"]

# cells_updated of the full-depth fill (cutoff=False) at n = 50.  Bench CSV
# rows, demo 05 and acceptance criterion 6 read these counts, so they must
# not come from a solve that stops early.
FULL_DEPTH_CELLS = {
    "gmr": (555_100, 95_150),
    "huffman": (555_100, 95_150),
    "reserved-given": (34_684, 6_742),
    "reserved-g": (64_914, 19_749),
}


@pytest.mark.parametrize("problem", sorted(FULL_DEPTH_CELLS))
def test_scaling_cells_are_full_depth(problem):
    rows = bench.run_scaling(problem, [50], ["naive", "batched"], seed=1)
    assert tuple(row["cells_updated"] for row in rows) == FULL_DEPTH_CELLS[problem]


def test_one_ended_scaling_cells():
    # one-ended has no levels to fill; the full fill prunes no state, so both
    # counts cover every reachable state below diagonal n, each diagonal swept
    # over every b that a predecessor reaches, and depend on n alone.  The
    # answer scan inside that sweep costs no cell of its own
    rows = bench.run_scaling("one-ended", [50], ["naive", "batched"], seed=1)
    assert tuple(row["cells_updated"] for row in rows) == (5_205, 1_689)


def test_reserved_given_cut_off_fill_visits_only_reached_diagonals():
    # a plain solve fills only the diagonals the previous level reaches: the
    # three binary levels keep at most 8 states, and each feeds one diagonal
    # of the meta level.  That meta level is the spec's last, so only its
    # finished states are filled, and the binary level before it keeps only
    # the states that one meta expansion can finish.  The full-depth fill above visits every
    # diagonal.
    n = 1600
    w = normalize_weights(bench.generate_weights(n, "zipf", seed=1))
    params = problems.Params(radix=2, lengths=bench.reserved_given_lengths(n))
    cut, full = (problems.solve("reserved-given", w, params, algorithm="batched",
                                want_code=False, cutoff=cutoff).dp for cutoff in (True, False))
    assert cut.cost == full.cost
    assert cut.cells_updated == 36
    assert full.cells_updated == 6_652_522
    assert cut.cells_updated < full.cells_updated / 100


@pytest.mark.parametrize("name,n,dist,params,levels,cells", [
    ("reserved-g", 400, "uniform", problems.Params(radix=2, g=2), 2, 945),
    ("gmr", 1000, "zipf", problems.Params(levels=LevelSpec.constant(2, 1, 10)), 10, 1_150),
], ids=["reserved-g-400-uniform-g2", "gmr-1000-zipf-L10"])
def test_cut_off_fill_keeps_only_states_that_can_finish(name, n, dist, params, levels, cells):
    # with fewer levels than n and no level-free tail, a level keeps only the
    # states that can still reach n leaves in the levels left, the level before
    # the last only those that one last-level expansion can finish, and the
    # spec's last level only finished trees
    w = normalize_weights(bench.generate_weights(n, dist, 1))
    assert problems.solve(name, w, params, want_code=False).dp.cells_updated == cells
    dp = problems.solve(name, w, params).dp
    assert dp.cells_updated == cells and dp.levels_filled == levels == len(dp.tables) - 1
    assert dp.tables[-1].costs and all(b == 0 for _, b in dp.tables[-1].costs)


@pytest.mark.parametrize("n,cells,middle_states", [(300, 28_418, 2_127), (400, 46_950, 3_019)],
                         ids=["n300", "n400"])
def test_reserved_g3_middle_level_keeps_only_finishable_states(n, cells, middle_states):
    # reserved-g at g = 3: level 3's widest option has more than n slots, so
    # m + b * cap >= n holds for every b >= 1; level 2 keeps only the states
    # that some level-3 option finishes, one or two per diagonal and option
    w = normalize_weights(bench.generate_weights(n, "uniform", 1))
    params = problems.Params(radix=2, g=3)
    assert problems.solve("reserved-g", w, params, want_code=False).dp.cells_updated == cells
    dp = problems.solve("reserved-g", w, params).dp
    assert dp.cells_updated == cells and dp.levels_filled == 3
    assert len(dp.tables[2].costs) == middle_states


# The level-free tail at n = 160, Huffman from level 1 and mixed radix
# (4, 2, 3) from level 3: (states stored, batched cells).  It stores only the
# states whose bound stays within the running best finish; stored unpruned,
# the tail held 12,419 and 12,197 states for 19,283 and 17,106 cells.
TAIL_PINS = {
    ("huffman", "uniform"): (6_227, 12_513),
    ("huffman", "zipf"): (6_165, 12_451),
    ("huffman", "geometric"): (10_977, 17_263),
    ("mixed-radix", "uniform"): (2_520, 6_707),
    ("mixed-radix", "zipf"): (3_221, 7_408),
    ("mixed-radix", "geometric"): (5_919, 10_106),
}
# each problem's parameters and the first level of its tail
TAIL_PARAMS = {"huffman": (problems.Params(radix=2), 1),
               "mixed-radix": (problems.Params(arities=(4, 2, 3)), 3)}


@pytest.mark.parametrize("name,dist", sorted(TAIL_PINS))
def test_level_free_tail_keeps_only_states_within_the_running_bound(name, dist):
    w = normalize_weights(bench.generate_weights(160, dist, 1))
    params, tail = TAIL_PARAMS[name]
    states, cells = TAIL_PINS[name, dist]
    assert problems.solve(name, w, params, want_code=False).dp.cells_updated == cells
    dp = problems.solve(name, w, params).dp
    assert dp.levels_filled == tail
    assert (len(dp.tables[-1].costs), dp.cells_updated) == (states, cells)


def test_bench_csv_is_pinned(capsysbinary):
    for problem in GOLDEN_PROBLEMS:
        assert cli.main(bench_argv(problem)) == 0
    with open(GOLDEN_CSV, "rb") as fh:
        assert capsysbinary.readouterr().out == fh.read()
