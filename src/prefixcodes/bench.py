"""Benchmark harness: deterministic instance generators and scaling runs.

The metric is ``cells_updated`` -- the number of candidate evaluations the
solver performed -- so complexity claims are machine-independent.  Wall time
is reported alongside for orientation only.  Every instance is solved
through ``problems.solve`` with ``cutoff=False``, the paper's full, dense
fill: the level loop fills all of its levels and every diagonal of each, as
the paper's complexity bounds count them, and the one-ended fill prunes
nothing, so its table keeps every reachable state below diagonal n, about
n**2 / 2 of them (78,385 at n = 400).  A plain solve stops once no deeper
level can beat the best finished tree, on each level visits only the
diagonals the previous level reaches, and in the one-ended fill stores only
the states whose lower bound stays within its upper bound.

Weight distributions (all produce exact integers):

* ``uniform``   -- independent draws from [1, 10**6], seeded;
* ``geometric`` -- 10**6 halved per position (ratio 1/2, floored);
* ``zipf``      -- floor(10**6 / i) for position i (exponent 1.0).
"""

from __future__ import annotations

import math
import random
import time

from .core import WeightSeq, normalize_weights
from .errors import InvalidInput
from .problems import Params, solve

_SCALE = 10**6

DISTRIBUTIONS = ("uniform", "geometric", "zipf")


def generate_weights(n: int, distribution: str, seed: int, rep: int = 0) -> list[int]:
    if n < 1:
        raise InvalidInput("instance size must be >= 1")
    if distribution == "uniform":
        rng = random.Random(seed * 1_000_003 + n * 1_009 + rep)
        return [rng.randint(1, _SCALE) for _ in range(n)]
    if distribution == "geometric":
        return [_SCALE >> i for i in range(n)]
    if distribution == "zipf":
        return [_SCALE // i for i in range(1, n + 1)]
    raise InvalidInput(f"unknown distribution {distribution!r}")


def reserved_given_lengths(n: int) -> tuple[int, ...]:
    """Four permitted lengths whose deepest level can host any n words (r=2)."""
    return (1, 2, 3, max(4, n.bit_length() + 1))


def run_instance(problem: str, w: WeightSeq, algorithm: str, *,
                 radix: int = 2, g: int = 3) -> dict:
    """Solve one instance cost-only and full-depth; returns cost, cells and
    wall time.

    gmr and huffman both run constant arity ``radix``, mixed-radix the
    single arity ``radix``, reserved-given :func:`reserved_given_lengths`.
    """
    params = Params(radix=radix, arities=(radix,), lengths=reserved_given_lengths(w.n), g=g)
    start = time.perf_counter()
    dp = solve(problem, w, params, algorithm=algorithm, want_code=False, cutoff=False).dp
    return {
        "problem": problem,
        "algorithm": algorithm,
        "n": w.n,
        "cost": dp.cost,
        "cells_updated": dp.cells_updated,
        "wall_time": time.perf_counter() - start,
    }


def run_scaling(problem: str, sizes, algorithms, *, distribution: str = "uniform",
                seed: int = 1, repetitions: int = 1, radix: int = 2, g: int = 3) -> list[dict]:
    rows = []
    for n in sizes:
        for rep in range(repetitions):
            w = normalize_weights(generate_weights(n, distribution, seed, rep))
            for algorithm in algorithms:
                rows.append(run_instance(problem, w, algorithm, radix=radix, g=g))
    return rows


def fit_slope(points) -> float | None:
    """Least-squares slope of log(cells) against log(n) over the sizes that
    spend cells; None below 2 such sizes."""
    points = [(n, c) for n, c in points if c > 0]
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(c) for _, c in points]
    if len(set(xs)) < 2:
        return None
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx


def slope_summary(rows) -> dict[tuple[str, str], float | None]:
    """Per (problem, algorithm) slope over the mean cells at each size."""
    grouped: dict[tuple[str, str], dict[int, list[int]]] = {}
    for row in rows:
        key = (row["problem"], row["algorithm"])
        grouped.setdefault(key, {}).setdefault(row["n"], []).append(row["cells_updated"])
    out = {}
    for key, by_n in grouped.items():
        points = [(n, sum(cs) / len(cs)) for n, cs in sorted(by_n.items())]
        out[key] = fit_slope(points)
    return out
