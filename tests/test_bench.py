import os

import pytest

from prefixcodes import bench, cli, normalize_weights, problems

# stdout of ``prefixcodes bench --problem P --sizes "8 16 50" --algorithms
# "naive batched" --seed 3`` for each problem in turn, CSV rows with their
# "# params" and "# slope" lines.  Regenerate it only for an intended change
# to the fills, the cell counts or the CSV layout.
GOLDEN_CSV = os.path.join(os.path.dirname(__file__), "data", "bench_golden.csv")
GOLDEN_PROBLEMS = ("gmr", "huffman", "mixed-radix", "reserved-given", "reserved-g", "one-ended")

# cells_updated of the full-depth fill (cutoff=False) at n = 50.  Bench CSV
# rows, demo 05 and acceptance criterion 6 read these counts, so they must
# not come from a solve that stops early.
FULL_DEPTH_CELLS = {
    "gmr": (555_100, 101_350),
    "huffman": (555_100, 101_350),
    "reserved-given": (34_684, 7_274),
    "reserved-g": (71_841, 28_926),
}


@pytest.mark.parametrize("problem", sorted(FULL_DEPTH_CELLS))
def test_scaling_cells_are_full_depth(problem):
    rows = bench.run_scaling(problem, [50], ["naive", "batched"], seed=1)
    assert tuple(row["cells_updated"] for row in rows) == FULL_DEPTH_CELLS[problem]


def test_one_ended_scaling_cells():
    # one-ended has no levels to fill; both counts cover the diagonals below
    # n plus one cell per state the answer scan evaluates
    rows = bench.run_scaling("one-ended", [50], ["naive", "batched"], seed=1)
    assert tuple(row["cells_updated"] for row in rows) == (6_364, 2_364)


def test_reserved_given_cut_off_fill_visits_only_reached_diagonals():
    # a plain solve fills only the diagonals the previous level reaches: the
    # three binary levels keep at most 8 states, and each feeds one diagonal
    # of the meta level.  The full-depth fill above visits every diagonal.
    n = 1600
    w = normalize_weights(bench.generate_weights(n, "zipf", seed=1))
    params = problems.Params(radix=2, lengths=bench.reserved_given_lengths(n))
    cut, full = (problems.solve("reserved-given", w, params, algorithm="batched",
                                want_code=False, cutoff=cutoff).dp for cutoff in (True, False))
    assert cut.cost == full.cost
    assert cut.cells_updated == 13_983
    assert full.cells_updated == 6_669_825
    assert cut.cells_updated < full.cells_updated / 100


def test_bench_csv_is_pinned(capsysbinary):
    for problem in GOLDEN_PROBLEMS:
        assert cli.main(["bench", "--problem", problem, "--sizes", "8 16 50",
                         "--algorithms", "naive batched", "--seed", "3"]) == 0
    with open(GOLDEN_CSV, "rb") as fh:
        assert capsysbinary.readouterr().out == fh.read()
