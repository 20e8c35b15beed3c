"""Re-pin the golden CLI files when only counts move.

Run from the repository root:

    PYTHONPATH=src python tests/regen_golden.py

It reruns every ``solve`` command of ``test_cli_golden.py`` and every
``bench`` command of ``test_bench.py`` and compares the output with
``data/cli_golden.json`` and ``data/bench_golden.csv``.  Only the values of
``cells_updated`` (a key of the solve documents, a column of the bench rows)
and of the ``# slope`` lines may differ.  If anything else differs, it names
the first such document, writes nothing and exits 1.  Otherwise it prints
each moved value, old -> new, then a tally of the counts that went down,
the counts that went up and the slopes that moved, writes both files and
exits 0.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_bench import GOLDEN_CSV, GOLDEN_PROBLEMS, bench_argv  # noqa: E402
from test_cli_golden import CASES, GOLDEN, _key, solve_argv  # noqa: E402

from prefixcodes import cli  # noqa: E402

CELLS = re.compile(r'(?<="cells_updated": )\d+')
SLOPE = re.compile(r"^(# slope .* value=)(\S+)$")


def _stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    if status != 0:
        sys.exit(f"regen_golden: {' '.join(argv)} exited {status}")
    return out.getvalue()


def _solve_counts(key: str, doc: str) -> tuple[str, list[tuple[str, str, str]]]:
    """The document with its ``cells_updated`` values masked, and those values
    as ``(key, "count", value)``."""
    return CELLS.sub("#", doc), [(key, "count", v) for v in CELLS.findall(doc)]


def _bench_counts(csv_text: str) -> tuple[str, list[tuple[str, str, str]]]:
    """The CSV with its ``cells_updated`` column and slope values masked, and
    those values in order as ``(row, "count", value)`` or ``(line, "slope",
    value)``; a row is named by its fields before the count."""
    masked, values = [], []
    column = None
    for line in csv_text.splitlines(keepends=True):
        body = line.rstrip("\r\n")
        end = line[len(body):]
        fields = body.split(",")
        slope = SLOPE.match(body)
        if slope:
            values.append((slope.group(1)[2:].removesuffix(" value="), "slope", slope.group(2)))
            body = slope.group(1) + "#"
        elif "cells_updated" in fields:
            column = fields.index("cells_updated")
        elif column is not None and len(fields) > column and not body.startswith("#"):
            values.append(("bench " + ",".join(fields[:column]), "count", fields[column]))
            fields[column] = "#"
            body = ",".join(fields)
        masked.append(body + end)
    return "".join(masked), values


def _moved(old: list, new: list) -> list[tuple[str, str, str, str]]:
    """``(where, kind, old, new)`` for each value that moved."""
    return [(where, kind, a, b) for (where, kind, a), (*_, b) in zip(old, new) if a != b]


def main() -> int:
    with open(GOLDEN) as fh:
        old_docs = json.load(fh)
    new_docs = {_key(*case): _stdout(solve_argv(*case)) for case in CASES}
    with open(GOLDEN_CSV, "rb") as fh:
        old_csv = fh.read().decode()
    new_csv = "".join(_stdout(bench_argv(problem)) for problem in GOLDEN_PROBLEMS)

    if sorted(old_docs) != sorted(new_docs):
        print("regen_golden: the set of solve documents changed", file=sys.stderr)
        return 1
    moves = []
    for key in sorted(new_docs):
        (old_masked, old_values), (new_masked, new_values) = (
            _solve_counts(key, old_docs[key]), _solve_counts(key, new_docs[key]))
        if old_masked != new_masked:
            print(f"regen_golden: {key} differs beyond cells_updated; nothing written",
                  file=sys.stderr)
            return 1
        moves += _moved(old_values, new_values)
    (old_masked, old_values), (new_masked, new_values) = (
        _bench_counts(old_csv), _bench_counts(new_csv))
    if old_masked != new_masked:
        print("regen_golden: bench CSV differs beyond cells_updated and slopes; "
              "nothing written", file=sys.stderr)
        return 1
    moves += _moved(old_values, new_values)

    for where, _, a, b in moves:
        print(f"{where}: {a} -> {b}")
    counts = [(int(a), int(b)) for _, kind, a, b in moves if kind == "count"]
    print(f"{len(moves)} values moved: {sum(b < a for a, b in counts)} counts down, "
          f"{sum(b > a for a, b in counts)} counts up, {len(moves) - len(counts)} slopes")
    with open(GOLDEN, "w") as fh:
        json.dump(new_docs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open(GOLDEN_CSV, "wb") as fh:
        fh.write(new_csv.encode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
