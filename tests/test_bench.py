import pytest

from prefixcodes import ReservedSpec, bench, normalize_weights, solve_reserved_given

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
    # one-ended has no levels to fill; the batched count covers only the
    # predecessors some window reads (m' <= n)
    rows = bench.run_scaling("one-ended", [50], ["naive", "batched"], seed=1)
    assert tuple(row["cells_updated"] for row in rows) == (55_524, 8_148)


def test_reserved_given_cut_off_fill_visits_only_reached_diagonals():
    # a plain solve fills only the diagonals the previous level reaches: the
    # three binary levels keep at most 8 states, and each feeds one diagonal
    # of the meta level.  The full-depth fill above visits every diagonal.
    n = 1600
    w = normalize_weights(bench.generate_weights(n, "zipf", seed=1))
    spec = ReservedSpec(2, bench.reserved_given_lengths(n))
    cut, full = (solve_reserved_given(w, spec, algorithm="batched", want_code=False,
                                      cutoff=cutoff).dp for cutoff in (True, False))
    assert cut.cost == full.cost
    assert cut.cells_updated == 13_983
    assert full.cells_updated == 6_669_825
    assert cut.cells_updated < full.cells_updated / 100
