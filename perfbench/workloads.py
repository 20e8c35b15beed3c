"""The four workloads: which instances a pass solves, how, and how each
answer is checked.

A pass is a fixed list of instance shapes (problem, size, distribution,
parameters, cost-only or with code); pass ``k`` of a run draws fresh weights
for every shape from ``(workload, seed, k)``.  Solves go through the public
entry points of ``prefixcodes``, looked up as module attributes at call time
so that the traced run can rebind them.

Workloads, all closed loops with one caller in one process:

* ``gmr-deep``: Huffman (r=2) and mixed-radix (4, 2, 3) adapters at n=160,
  cost-only and with code.  The gmr level fill does nearly all the work
  while the answer sits a few levels down.
* ``one-ended``: ``solve_one_ended`` with code at n=300..400.  The one-ended
  fill and its range-minimum index do all the work; gmr does none.
* ``reserved-wide``: ``solve_reserved_g`` (g=2, 3) at n=300..400 and
  ``solve_reserved_given`` at n=800..1600, with code.  Few, wide levels.
* ``small-codes``: 144 instances per pass with n=4..32 over all six problems
  through ``cli.main(["solve", ..., "--output", "code"])`` in-process.
  Per-call overheads (argument parsing, normalization, emission, JSON)
  dominate here.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field, replace
from time import perf_counter

from prefixcodes import cli, core, one_ended, oracle, problems
from prefixcodes.core import normalize_weights as _normalize_unwrapped

import inputs
from checks import codebook_faults

#: Exhaustive oracles are checked up to these sizes (the one-ended
#: enumeration grows much faster).
ORACLE_MAX_N = 8
ONE_ENDED_ORACLE_MAX_N = 6


@dataclass(frozen=True)
class Shape:
    problem: str
    n: int
    distribution: str
    with_code: bool = True
    radix: int = 2
    arities: tuple[int, ...] = ()
    lengths: tuple[int, ...] = ()
    g: int = 0


@dataclass
class Instance:
    shape: Shape
    raw: list[int]
    argv: list[str] | None = None  # set when the solve goes through the CLI
    label: str = field(init=False)

    def __post_init__(self):
        s = self.shape
        mode = "code" if s.with_code else "cost"
        self.label = f"{s.problem}/{s.distribution}/n{s.n}/{mode}"

    @property
    def gmr_backed(self) -> bool:
        """Solved by the plain gmr level fill (not the choice or one-ended DP)."""
        return self.shape.problem in ("huffman", "gmr", "mixed-radix", "reserved-given")


@dataclass(frozen=True)
class Workload:
    name: str
    shapes: tuple[Shape, ...]
    via_cli: bool
    #: untraced and traced passes in a ``--trace 1`` run
    trace_passes: int


def _reserved_lengths(n: int) -> tuple[int, ...]:
    """Four permitted binary lengths; the deepest can host any n words."""
    return (1, 2, 3, max(4, n.bit_length() + 1))


def _gmr_deep() -> tuple[Shape, ...]:
    shapes = []
    for dist in inputs.DISTRIBUTIONS:
        for family in (dict(problem="huffman", radix=2),
                       dict(problem="mixed-radix", arities=(4, 2, 3))):
            for with_code in (False, True):
                shapes.append(Shape(n=160, distribution=dist, with_code=with_code, **family))
    return tuple(shapes)


def _small_codes() -> tuple[Shape, ...]:
    kinds = (
        dict(problem="huffman", radix=2),
        dict(problem="gmr", radix=3),
        dict(problem="mixed-radix", arities=(4, 2, 3)),
        dict(problem="reserved-given", radix=2, lengths=(1, 3, 6)),
        dict(problem="reserved-g", radix=2),
        dict(problem="one-ended"),
    )
    shapes = []
    for j, n in enumerate((4, 5, 6, 7, 8, 10, 12, 16, 20, 24, 28, 32)):
        for copy in range(2):
            for k, kind in enumerate(kinds):
                dist = inputs.DISTRIBUTIONS[(j + copy + k) % 3]
                extra = dict(g=2 + copy) if kind["problem"] == "reserved-g" else {}
                shapes.append(Shape(n=n, distribution=dist, **kind, **extra))
    return tuple(shapes)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("gmr-deep", _gmr_deep(), via_cli=False, trace_passes=1),
        Workload("one-ended", (
            Shape("one-ended", 300, "uniform"),
            Shape("one-ended", 350, "zipf"),
            Shape("one-ended", 400, "geometric"),
        ), via_cli=False, trace_passes=2),
        Workload("reserved-wide", (
            Shape("reserved-g", 400, "uniform", g=2),
            Shape("reserved-given", 800, "zipf", lengths=_reserved_lengths(800)),
            Shape("reserved-g", 300, "geometric", g=3),
            Shape("reserved-given", 1200, "uniform", lengths=_reserved_lengths(1200)),
            Shape("reserved-g", 350, "zipf", g=2),
            Shape("reserved-given", 1600, "geometric", lengths=_reserved_lengths(1600)),
        ), via_cli=False, trace_passes=2),
        Workload("small-codes", _small_codes(), via_cli=True, trace_passes=8),
    )
}


def _cli_argv(shape: Shape, raw: list[int]) -> list[str]:
    argv = ["solve", "--problem", shape.problem, "--weights", " ".join(map(str, raw)),
            "--output", "code" if shape.with_code else "cost"]
    if shape.problem == "gmr":  # a named spec: constant arity, unit edges
        argv += ["--spec", {2: "binary", 3: "ternary", 4: "quaternary"}[shape.radix]]
    elif shape.problem == "mixed-radix":
        argv += ["--arities", " ".join(map(str, shape.arities))]
    elif shape.problem != "one-ended":
        argv += ["--radix", str(shape.radix)]
    if shape.problem == "reserved-given":
        argv += ["--lengths", " ".join(map(str, shape.lengths))]
    if shape.problem == "reserved-g":
        argv += ["--g", str(shape.g)]
    return argv


def make_pass(workload: Workload, seed: int, pass_index: int) -> list[Instance]:
    """The instances of one pass.  A cost-only shape followed by its
    with-code twin solves the same weights, so their costs can be compared."""
    rng = inputs.rng_for(workload.name, seed, pass_index)
    out = []
    for shape in workload.shapes:
        prev = out[-1] if out else None
        if prev and not prev.shape.with_code and replace(prev.shape, with_code=True) == shape:
            raw = prev.raw
        else:
            raw = inputs.weights(shape.n, shape.distribution, rng)
        out.append(Instance(shape, raw, _cli_argv(shape, raw) if workload.via_cli else None))
    return out


def _library_solve(inst: Instance):
    s = inst.shape
    w = core.normalize_weights(inst.raw)
    if s.problem == "huffman":
        return problems.solve_huffman_reference_adapter(w, s.radix, want_code=s.with_code)
    if s.problem == "mixed-radix":
        return problems.solve_mixed_radix(w, problems.MixedRadixSpec(s.arities),
                                          want_code=s.with_code)
    if s.problem == "reserved-given":
        return problems.solve_reserved_given(w, problems.ReservedSpec(s.radix, s.lengths),
                                             want_code=s.with_code)
    if s.problem == "reserved-g":
        return problems.solve_reserved_g(w, problems.GLengthsSpec(s.radix, s.g),
                                         want_code=s.with_code)
    if s.problem == "one-ended":
        return one_ended.solve_one_ended(w, with_code=s.with_code)
    raise ValueError(f"no library route for {s.problem!r}")


def timed_solve(inst: Instance):
    """Run one solve; returns ``(seconds, result, stdout)``.  Only the call
    into the package is timed.  CLI solves return their exit code and have
    stdout and stderr captured."""
    if inst.argv is None:
        start = perf_counter()
        result = _library_solve(inst)
        return perf_counter() - start, result, ""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        result = cli.main(inst.argv)
        elapsed = perf_counter() - start
    if result != 0:
        raise RuntimeError(f"exit code {result}: {err.getvalue().strip()}")
    return elapsed, result, out.getvalue()


def _arity_at(shape: Shape):
    if shape.problem == "mixed-radix":
        arities = shape.arities
        return lambda p: arities[min(p, len(arities)) - 1]
    radix = 2 if shape.problem == "one-ended" else shape.radix
    return lambda p: radix


def _glength_options(r: int, n: int) -> tuple[tuple[int, int], ...]:
    """Jump options (r**t, t) for t = 1 .. 1 + floor(log_r n)."""
    tmax, power = 1, r
    while power <= n:
        power *= r
        tmax += 1
    return tuple((r**t, t) for t in range(1, tmax + 1))


def exhaustive_cost(shape: Shape, raw: list[int]) -> int | None:
    """Optimal cost by exhaustive enumeration, or None above the oracle sizes."""
    n = len(raw)
    w = _normalize_unwrapped(raw)
    if shape.problem == "one-ended":
        if n > ONE_ENDED_ORACLE_MAX_N:
            return None
        budget = oracle.OracleBudget(max_n=ONE_ENDED_ORACLE_MAX_N, max_depth=n + 2)
        return oracle.enumerate_one_ended(w, budget=budget)
    if n > ORACLE_MAX_N:
        return None
    if shape.problem == "reserved-g":
        opts = _glength_options(shape.radix, n)
        budget = oracle.OracleBudget(max_n=ORACLE_MAX_N, max_depth=max(shape.g, 8),
                                     max_option_sets=len(opts))
        return oracle.enumerate_choice(w, core.ChoiceLevelSpec([opts] * shape.g), shape.g, budget)
    if shape.problem == "reserved-given":
        gaps = [b - a for a, b in zip((0,) + shape.lengths, shape.lengths)]
        spec = core.LevelSpec([(shape.radix**gap, gap) for gap in gaps])
        max_level = len(gaps)
    elif shape.problem == "mixed-radix":
        arity = _arity_at(shape)
        spec = core.LevelSpec([(arity(p), 1) for p in range(1, n + 1)])
        max_level = n
    else:  # huffman, gmr: constant radix, unit edges
        spec = core.LevelSpec.constant(shape.radix, 1, n)
        max_level = n
    budget = oracle.OracleBudget(max_n=ORACLE_MAX_N, max_depth=max(8, max_level))
    return oracle.enumerate_gmr(w, spec, max_level, budget)


def answer_faults(inst: Instance, result, stdout: str) -> tuple[list[str], int | None]:
    """Check one answer; returns ``(faults, cost)``."""
    s = inst.shape
    if inst.argv is not None:
        doc = json.loads(stdout)
        cost = doc["cost"]
        words = doc.get("codewords") if s.with_code else None
        lengths = doc.get("lengths")
        weights = inst.raw  # the CLI reports codewords in input order
        costs = [cost]
        faults = [] if doc.get("n") == s.n else [f"reported n={doc.get('n')}"]
    else:
        faults = []
        if s.problem == "one-ended":
            cost = result.cost
        else:
            cost = result.dp.cost
        book = result.codebook
        words = lengths = None
        costs = [cost]
        if book is not None:
            words, lengths = book.words, book.lengths
            costs.append(book.cost)
        weights = sorted(inst.raw, reverse=True)  # codebooks are in sorted order
    if s.with_code:
        if words is None:
            faults.append("no codewords returned")
        else:
            faults += codebook_faults(
                words, weights, costs, arity_at=_arity_at(s), lengths=lengths,
                allowed=s.lengths if s.problem == "reserved-given" else None,
                max_distinct=s.g if s.problem == "reserved-g" else None,
                ends_in_one=s.problem == "one-ended",
            )
    if s.problem == "huffman":
        greedy = oracle.huffman_greedy(_normalize_unwrapped(inst.raw), s.radix)
        if cost != greedy:
            faults.append(f"cost {cost} != greedy Huffman {greedy}")
    return faults, cost
