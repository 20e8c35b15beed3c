"""Measure how the naive and batched table fills scale.

``cells_updated`` counts evaluated candidates, so the log-log slope exposes
the asymptotic exponent independent of the machine.  The batched fill wins a
full factor of n on every family.  Wall times are shown for orientation.
The harness runs the paper's full, dense fill (``cutoff=False``): every level
and every diagonal, and for one-ended codes every reachable state below
diagonal n, as the complexity bounds count them.  A plain solve stops once no
deeper level can beat its best tree, fills only the diagonals the previous
level reaches, and prunes one-ended states by a lower bound.

Run:  PYTHONPATH=src python demos/05_scaling.py   (a few seconds)
"""

from prefixcodes import bench

SIZES = [25, 50, 100, 200]

for problem, algorithms in [
    ("gmr", ["naive", "batched"]),
    ("one-ended", ["naive", "batched"]),
    ("reserved-given", ["naive", "batched"]),
    ("reserved-g", ["batched"]),
]:
    rows = bench.run_scaling(problem, SIZES, algorithms, seed=1)
    slopes = bench.slope_summary(rows)
    print(problem)
    for algorithm in algorithms:
        cells = [r["cells_updated"] for r in rows if r["algorithm"] == algorithm]
        wall = sum(r["wall_time"] for r in rows if r["algorithm"] == algorithm)
        slope = slopes[(problem, algorithm)]
        print(f"  {algorithm:<8} slope {slope:.2f}   cells {cells}   ({wall:.2f}s)")
print()
print("Slopes near 4 vs 3 (gmr) and 3 vs 2 (the rest) show the batching win.")
