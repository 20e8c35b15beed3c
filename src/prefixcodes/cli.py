"""Command-line front end: solve, verify against oracles, benchmark.

Results are JSON on stdout, diagnostics on stderr; ``bench`` emits CSV.
Output is byte-identical across runs for a fixed seed and configuration:
timing fields stay null/empty unless ``--timing`` is passed.

Exit codes: 0 ok, 2 usage or input error, 3 no feasible code, 4 arity
overflow, 5 oracle budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import time

from . import bench
from .core import ALGORITHMS, LevelSpec, normalize_weights
from .errors import (
    ArityOverflow,
    BudgetExceeded,
    InvalidInput,
    NoFeasibleTree,
    PrefixCodeError,
)
from .problems import PROBLEMS, Params, solve

_SPEC_ALIASES = {"binary": 2, "ternary": 3, "quaternary": 4}

#: The exit code of each typed failure; any other handled error exits 2.
_EXIT_CODES = ((NoFeasibleTree, 3), (ArityOverflow, 4), (BudgetExceeded, 5))

#: The problem-parameter flags each problem reads; giving any other is an
#: error rather than silently ignored.  gmr takes at most one of its three.
_PROBLEM_FLAGS = {
    "gmr": ("--radix", "--spec", "--spec-file"),
    "huffman": ("--radix",),
    "mixed-radix": ("--arities",),
    "reserved-given": ("--radix", "--lengths"),
    "reserved-g": ("--radix", "--g"),
    "one-ended": (),
}


def _parse_int_list(text: str, flag: str) -> list[int]:
    """Integers separated by spaces or commas; errors name the ``flag``."""
    parts = text.replace(",", " ").split()
    if not parts:
        raise ValueError(f"{flag}: empty integer list")
    values = []
    for p in parts:
        try:
            values.append(int(p))
        except ValueError:
            raise ValueError(f"{flag}: {p!r} is not an integer") from None
    return values


def _read_weights(args) -> list[int]:
    if args.weights is not None:
        return _parse_int_list(args.weights, "--weights")
    if args.weights_file is not None:
        with open(args.weights_file) as fh:
            text = fh.read()
        stripped = text.lstrip()
        if stripped.startswith("["):
            data = _load_json(text, args.weights_file)
            if not isinstance(data, list) or not all(isinstance(x, int) for x in data):
                raise ValueError("weights file JSON must be an array of integers")
            return data
        values = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            if line.strip():
                token, *extra = line.split()
                if extra:
                    raise ValueError(f"{args.weights_file}: line {lineno}: "
                                     f"expected one integer, got {line.strip()!r}")
                try:
                    values.append(int(token))
                except ValueError:
                    raise ValueError(f"{args.weights_file}: line {lineno}: "
                                     f"{token!r} is not an integer") from None
        return values
    raise ValueError("provide --weights or --weights-file")


def _load_json(text: str, path: str):
    """``json.loads(text)``; a malformed document names its file."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_spec_file(path: str) -> LevelSpec:
    with open(path) as fh:
        pairs = _load_json(fh.read(), path)
    if not isinstance(pairs, list) or not all(
        isinstance(pair, list) and len(pair) == 2
        and all(isinstance(x, int) and not isinstance(x, bool) for x in pair)
        for pair in pairs
    ):
        raise InvalidInput(f"{path}: expected a JSON array [[arity, edge_length], ...] "
                           "of integer pairs")
    return LevelSpec(pairs)


def _given_flags(args, flags, allowed) -> list[str]:
    """The ``flags`` given on the command line; one not in ``allowed`` is an error."""
    given = [flag for flag in flags if getattr(args, flag[2:].replace("-", "_")) is not None]
    for flag in given:
        if flag not in allowed:
            raise InvalidInput(f"{flag} is not read by {args.problem}")
    return given


def _params(args) -> Params:
    """The shared problem parameters from the command line.  ``--spec NAME``
    sets gmr's radix; ``--spec-file`` gives its levels."""
    allowed = _PROBLEM_FLAGS[args.problem]
    given = _given_flags(args, ("--radix", "--spec", "--spec-file", "--arities", "--lengths",
                                "--g"), allowed)
    if args.problem == "gmr" and len(given) > 1:
        raise InvalidInput(f"gmr takes at most one of {', '.join(allowed)}; got {' '.join(given)}")
    radix = _SPEC_ALIASES[args.spec] if args.spec else args.radix
    return Params(
        radix=2 if radix is None else radix,
        arities=tuple(_parse_int_list(args.arities, "--arities")) if args.arities else None,
        lengths=tuple(_parse_int_list(args.lengths, "--lengths")) if args.lengths else None,
        g=args.g,
        levels=_read_spec_file(args.spec_file) if args.spec_file else None,
    )


def _in_caller_order(items, order) -> list:
    """``items`` in sorted weight order, put back in the caller's order."""
    out = [None] * len(items)
    for k, item in enumerate(items):
        out[order[k]] = item
    return out


def _words_as_json(codebook, order):
    """Codewords in the caller's original weight order; digit strings when
    every symbol fits one character, symbol arrays otherwise."""
    by_caller = _in_caller_order(codebook.words, order)
    if all(s < 10 for word in codebook.words for s in word):
        return ["".join(str(s) for s in word) for word in by_caller]
    return [list(word) for word in by_caller]


def cmd_solve(args) -> int:
    w = normalize_weights(_read_weights(args))
    want_code = args.output != "cost"
    start = time.perf_counter()
    res = solve(args.problem, w, _params(args), algorithm=args.algorithm,
                want_code=want_code)
    elapsed = time.perf_counter() - start
    dp = res.dp
    doc = {
        "problem": args.problem,
        "n": w.n,
        "cost": dp.cost,
        "algorithm": args.algorithm,
        "cells_updated": dp.cells_updated,
        "lengths": _in_caller_order(res.codebook.lengths, w.order) if res.codebook else None,
        "elapsed": elapsed if args.timing else None,
    }
    if args.output == "code":
        doc["codewords"] = _words_as_json(res.codebook, w.order)
    elif args.output == "leafseq":
        doc["leaf_sequence"] = {str(k): v for k, v in dp.leaf_sequence.items()}
    elif args.output == "trace":
        doc["expansions"] = [list(s) for s in dp.expansions]
        doc["options"] = list(dp.options) if dp.options is not None else None
    print(json.dumps(doc, sort_keys=True))
    return 0


def cmd_verify(args) -> int:
    if args.max_oracle_n < 1:
        raise ValueError(f"--max-oracle-n: must be at least 1, got {args.max_oracle_n}")
    w = normalize_weights(_read_weights(args))
    params = _params(args)
    cost = solve(args.problem, w, params, algorithm=args.algorithm, want_code=False).dp.cost
    problem = PROBLEMS[args.problem]
    oracle_cost = problem.oracle(w, problem.levels(params, w.n), args.max_oracle_n)
    agree = cost == oracle_cost
    doc = {
        "problem": args.problem,
        "n": w.n,
        "algorithm": args.algorithm,
        "solver_cost": cost,
        "oracle_cost": oracle_cost,
        "agree": agree,
    }
    print(json.dumps(doc, sort_keys=True))
    if not agree:
        print(f"mismatch: solver={cost} oracle={oracle_cost}", file=sys.stderr)
    return 0 if agree else 1


def cmd_bench(args) -> int:
    allowed = _PROBLEM_FLAGS[args.problem]
    if "--arities" in allowed:  # bench's --radix is mixed-radix's single arity
        allowed += ("--radix",)
    _given_flags(args, ("--radix", "--g"), allowed)
    radix = 2 if args.radix is None else args.radix
    sizes = _parse_int_list(args.sizes, "--sizes")
    algorithms = args.algorithms.replace(",", " ").split()
    if not algorithms:
        raise ValueError("--algorithms: empty algorithm list")
    if args.repetitions < 1:
        raise ValueError(f"--repetitions: must be at least 1, got {args.repetitions}")
    g = 3 if args.g is None else args.g
    rows = bench.run_scaling(args.problem, sizes, algorithms,
                             distribution=args.distribution, seed=args.seed,
                             repetitions=args.repetitions, radix=radix, g=g)
    writer = csv.writer(sys.stdout)
    writer.writerow(["problem", "algorithm", "n", "cells_updated", "wall_time"])
    for row in rows:
        wall = f"{row['wall_time']:.6f}" if args.timing else ""
        writer.writerow([row["problem"], row["algorithm"], row["n"],
                         row["cells_updated"], wall])
    budget = f" g={g}" if args.problem == "reserved-g" else ""
    print(f"# params distribution={args.distribution} seed={args.seed} "
          f"repetitions={args.repetitions} radix={radix}{budget}")
    for (problem, algorithm), slope in sorted(bench.slope_summary(rows).items()):
        if slope is not None:
            print(f"# slope problem={problem} algorithm={algorithm} value={slope:.4f}")
    return 0


def _add_common(p):
    p.add_argument("--problem", required=True, choices=tuple(PROBLEMS))
    p.add_argument("--algorithm", default="batched", choices=ALGORITHMS)
    p.add_argument("--weights", help="inline weights, e.g. '3 2 1 1'")
    p.add_argument("--weights-file", help="one integer per line, or a JSON array")
    p.add_argument("--radix", type=int, help="alphabet size (default 2)")
    p.add_argument("--spec", choices=tuple(_SPEC_ALIASES),
                   help="named level spec for gmr: constant arity, unit edges")
    p.add_argument("--spec-file", help="JSON [[arity, edge_length], ...] for gmr")
    p.add_argument("--arities", help="mixed-radix per-position arities, e.g. '4 2 3'")
    p.add_argument("--lengths", help="reserved-given permitted lengths, e.g. '1 3 6'")
    p.add_argument("--g", type=int, help="reserved-g distinct-length budget")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.  Parsing fills a new
    namespace per call and never changes the parser, so calls share it."""
    parser = argparse.ArgumentParser(
        prog="prefixcodes",
        description="Minimum-cost prefix-free codes under structural constraints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one instance and print JSON")
    _add_common(p)
    p.add_argument("--output", default="code", choices=("cost", "code", "leafseq", "trace"))
    p.add_argument("--timing", action="store_true", help="include wall-clock timings")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="cross-check the solver against an oracle")
    _add_common(p)
    p.add_argument("--max-oracle-n", type=int, default=32,
                   help="largest n the exhaustive oracles enumerate (default 32)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="scaling run; CSV on stdout")
    p.add_argument("--problem", required=True, choices=tuple(PROBLEMS))
    p.add_argument("--sizes", default="50 100 200 400")
    p.add_argument("--algorithms", default="naive batched")
    p.add_argument("--distribution", default="uniform", choices=bench.DISTRIBUTIONS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--repetitions", type=int, default=1)
    p.add_argument("--radix", type=int, help="alphabet size or mixed-radix arity (default 2)")
    p.add_argument("--g", type=int, help="reserved-g distinct-length budget (default 3)")
    p.add_argument("--timing", action="store_true")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PrefixCodeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for kind, code in _EXIT_CODES if isinstance(exc, kind)), 2)


if __name__ == "__main__":
    sys.exit(main())
