"""Golden ``solve`` output: the full stdout document for every problem,
output mode and algorithm on two small instances.

The pinned bytes include ``cells_updated`` and ``options``, so any change to
the fill, the backtrack or the JSON layout shows up here.  The expected
documents live in ``data/cli_golden.json``; ``regen_golden.py`` re-pins
them when only counts move.
"""

import json
import os

import pytest

from prefixcodes import cli

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "cli_golden.json")

PROBLEM_ARGS = {
    "gmr": ["--spec", "ternary"],
    "huffman": ["--radix", "2"],
    "mixed-radix": ["--arities", "4 2 3"],
    "reserved-given": ["--lengths", "1 3 6"],
    "reserved-g": ["--g", "2"],
    "one-ended": [],
}
WEIGHTS = ("9 5 3 2 1 1", "7")
OUTPUTS = ("cost", "code", "leafseq", "trace")
ALGORITHMS = ("naive", "batched")

CASES = [
    (problem, weights, output, algorithm)
    for problem in PROBLEM_ARGS
    for weights in WEIGHTS
    for output in OUTPUTS
    for algorithm in ALGORITHMS
]


def _key(problem, weights, output, algorithm):
    return f"{problem}|{weights}|{output}|{algorithm}"


def solve_argv(problem, weights, output, algorithm):
    return ["solve", "--problem", problem, "--weights", weights, *PROBLEM_ARGS[problem],
            "--output", output, "--algorithm", algorithm]


def _solve_stdout(capsys, problem, weights, output, algorithm):
    assert cli.main(solve_argv(problem, weights, output, algorithm)) == 0
    return capsys.readouterr().out


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("problem,weights,output,algorithm", CASES)
def test_solve_stdout_is_pinned(capsys, golden, problem, weights, output, algorithm):
    key = _key(problem, weights, output, algorithm)
    assert _solve_stdout(capsys, problem, weights, output, algorithm) == golden[key]


def test_golden_covers_exactly_the_cases(golden):
    assert sorted(golden) == sorted(_key(*case) for case in CASES)
