"""Reduction adapters: named coding problems expressed as mixed-radix solves.

Each adapter builds the level spec for its problem, runs the shared solver,
and maps the winning leaf sequence back to codewords over the original
alphabet.  Reserved-length codes collapse runs of levels between permitted
lengths into one "meta" level of arity r**gap and edge length gap; the
winning meta leaves are then re-expanded into r-ary words by the same
leftmost-slot rule the plain emitter uses.

``PROBLEMS`` is the registry the CLI and the bench harness dispatch through:
per problem name, how its spec is built from the shared ``Params``, and how
that one spec is solved and checked by an independent oracle.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

from . import one_ended, oracle
from .core import ChoiceLevelSpec, CodeBook, LeafSequence, LevelSpec, WeightSeq, check_algorithm
from .errors import ArityOverflow, InvalidInput, NoFeasibleTree
from .gmr import DPResult, leafseq_to_codewords, solve_batched, solve_choice, solve_naive

#: Meta arities beyond roughly 2**256 are rejected: they cannot change which
#: trees are optimal (a level never usefully exceeds r * n slots) and only
#: inflate the arithmetic.
_MAX_ARITY_BITS = 257


@dataclass(frozen=True)
class MixedRadixSpec:
    """Permitted arity per codeword position; the last entry repeats for
    deeper positions."""

    arities: tuple[int, ...]

    def __post_init__(self):
        if not self.arities:
            raise InvalidInput("need at least one arity")
        for t in self.arities:
            if not isinstance(t, int) or t < 2:
                raise InvalidInput(f"arities must be integers >= 2, got {t!r}")

    def arity_for_level(self, i: int) -> int:
        return self.arities[min(i - 1, len(self.arities) - 1)]


@dataclass(frozen=True)
class ReservedSpec:
    """Alphabet size and the exact set of permitted codeword lengths."""

    radix: int
    lengths: tuple[int, ...]

    def __post_init__(self):
        if self.radix < 2:
            raise InvalidInput("alphabet size must be >= 2")
        if not self.lengths:
            raise InvalidInput("need at least one permitted length")
        prev = 0
        for g in self.lengths:
            if not isinstance(g, int) or g <= prev:
                raise InvalidInput("lengths must be strictly increasing integers >= 1")
            prev = g


@dataclass(frozen=True)
class GLengthsSpec:
    """Alphabet size and a budget of distinct codeword lengths."""

    radix: int
    g: int

    def __post_init__(self):
        if self.radix < 2:
            raise InvalidInput("alphabet size must be >= 2")
        if self.g < 1:
            raise InvalidInput("length budget must be >= 1")


@dataclass(frozen=True)
class ProblemResult:
    """A solved problem: the emitted code (None in cost-only runs) plus the
    DP result.  One-ended solves report their answer in the same shape,
    without tables."""

    codebook: CodeBook | None
    dp: DPResult


def _run(w, spec, algorithm, want_code, cutoff):
    check_algorithm(algorithm)
    solver = solve_naive if algorithm == "naive" else solve_batched
    return solver(w, spec, keep_tables=want_code, cutoff=cutoff)


def _solve_levels(w: WeightSeq, spec: LevelSpec, *, algorithm: str,
                  want_code: bool, cutoff: bool = True) -> ProblemResult:
    """Solve over the levels of ``spec`` and emit its codewords directly."""
    dp = _run(w, spec, algorithm, want_code, cutoff)
    code = leafseq_to_codewords(dp.leaf_sequence, spec, w) if want_code else None
    return ProblemResult(code, dp)


def _mixed_levels(mrspec: MixedRadixSpec, n: int) -> LevelSpec:
    return LevelSpec([(mrspec.arity_for_level(i), 1) for i in range(1, n + 1)])


def solve_mixed_radix(w: WeightSeq, mrspec: MixedRadixSpec, *, algorithm: str = "batched",
                      want_code: bool = True, cutoff: bool = True) -> ProblemResult:
    """Arity varies by codeword position, all edges length 1."""
    return _solve_levels(w, _mixed_levels(mrspec, w.n), algorithm=algorithm, want_code=want_code,
                         cutoff=cutoff)


def solve_huffman_reference_adapter(w: WeightSeq, r: int, *, algorithm: str = "batched",
                                    want_code: bool = True, cutoff: bool = True) -> ProblemResult:
    """Constant arity r, unit edges: plain r-ary Huffman as a GMR instance."""
    if r < 2:
        raise InvalidInput("alphabet size must be >= 2")
    return _solve_levels(w, LevelSpec.constant(r, 1, w.n), algorithm=algorithm,
                         want_code=want_code, cutoff=cutoff)


def _meta_arity(r: int, gap: int) -> int:
    if gap * (r.bit_length() - 1) >= _MAX_ARITY_BITS or gap * r.bit_length() > 8 * _MAX_ARITY_BITS:
        raise ArityOverflow(f"{r}**{gap} exceeds the supported arity range")
    meta = r**gap
    if meta.bit_length() > _MAX_ARITY_BITS:
        raise ArityOverflow(f"{r}**{gap} exceeds the supported arity range")
    return meta


def _reserved_levels(rspec: ReservedSpec) -> LevelSpec:
    """One meta level per permitted length: arity r**gap, edge length gap."""
    gaps = [b - a for a, b in zip((0,) + rspec.lengths, rspec.lengths)]
    return LevelSpec([(_meta_arity(rspec.radix, gap), gap) for gap in gaps])


def _expand_to_radix(seq: LeafSequence, depth_of_level, r: int, w: WeightSeq) -> CodeBook:
    """Map meta-level leaves to r-ary words: leaf on meta level k becomes a
    word of length depth(k).  Leftmost-slot assignment at every level keeps
    the emitted code canonical."""
    counts = {depth_of_level(level): count for level, count in seq.items()}
    max_len = max(counts) if counts else 1
    return leafseq_to_codewords(LeafSequence(counts), LevelSpec.constant(r, 1, max_len), w)


def solve_reserved_given(w: WeightSeq, rspec: ReservedSpec, *, algorithm: str = "batched",
                         want_code: bool = True, cutoff: bool = True) -> ProblemResult:
    """All codeword lengths must come from the given set."""
    spec = _reserved_levels(rspec)
    capacity = rspec.radix ** rspec.lengths[-1]
    if capacity < w.n:
        raise NoFeasibleTree(
            f"only {capacity} words of permitted lengths exist, need {w.n}"
        )
    dp = _run(w, spec, algorithm, want_code, cutoff)
    code = None
    if want_code:
        code = _expand_to_radix(dp.leaf_sequence, lambda k: rspec.lengths[k - 1], rspec.radix, w)
    return ProblemResult(code, dp)


def glengths_options(r: int, n: int) -> tuple[tuple[int, int], ...]:
    """Option set (r**t, t) for t = 1 .. 1 + floor(log_r n).

    t = 0 would be a leaf-free no-op level, and no level ever needs more than
    r * n slots, which caps the useful jump at this range.
    """
    tmax = 1
    power = r
    while power <= n:
        power *= r
        tmax += 1
    return tuple((r**t, t) for t in range(1, tmax + 1))


def _glengths_levels(gspec: GLengthsSpec, n: int) -> ChoiceLevelSpec:
    """One choice level per distinct length, each offering every jump of
    :func:`glengths_options`.  n weights use at most n distinct lengths, so
    the spec has min(g, n) levels."""
    return ChoiceLevelSpec([glengths_options(gspec.radix, n)] * min(gspec.g, n))


def solve_reserved_g(w: WeightSeq, gspec: GLengthsSpec, *, algorithm: str = "batched",
                     want_code: bool = True, cutoff: bool = True) -> ProblemResult:
    """At most g distinct codeword lengths, the lengths themselves are free."""
    cspec = _glengths_levels(gspec, w.n)
    dp = solve_choice(w, cspec, algorithm=algorithm, keep_tables=want_code, cutoff=cutoff)
    code = None
    if want_code:
        depths = [0]
        for i, j in enumerate(dp.options, start=1):
            depths.append(depths[-1] + cspec.options(i)[j][1])
        code = _expand_to_radix(dp.leaf_sequence, lambda k: depths[k], gspec.radix, w)
    return ProblemResult(code, dp)


# -- registry ------------------------------------------------------------


@dataclass(frozen=True)
class Params:
    """Parameters shared by all problems; each problem reads only its own.

    ``levels`` is gmr's explicit level spec; without it gmr uses arity
    ``radix`` with unit edges on all n levels.
    """

    radix: int = 2
    arities: tuple[int, ...] | None = None
    lengths: tuple[int, ...] | None = None
    g: int | None = None
    levels: LevelSpec | None = None


@dataclass(frozen=True)
class Problem:
    """One named problem.  ``spec(params, n)`` builds its spec once;
    ``solve(w, spec, algorithm=..., want_code=..., cutoff=True)`` and
    ``oracle(w, spec, max_n)`` both read that spec.  ``cutoff=False`` selects
    the paper's full, dense fill: every level, every diagonal (see
    ``gmr._solve``).  The oracle shares
    no DP code; the exhaustive ones refuse instances above ``max_n`` weights."""

    spec: Callable[[Params, int], Any]
    solve: Callable[..., ProblemResult]
    oracle: Callable[[WeightSeq, Any, int], int]


def _required(value, what: str, problem: str):
    if value is None:
        raise InvalidInput(f"{problem} requires {what}")
    return value


def _solve_one_ended(w: WeightSeq, _spec, *, algorithm: str, want_code: bool,
                     cutoff: bool = True):
    # the one-ended DP has no levels to cut off, so ``cutoff`` changes nothing
    res = one_ended.solve_one_ended(w, algorithm=algorithm, with_code=want_code)
    book = res.codebook
    dp = DPResult(
        cost=res.cost,
        level=len(res.expansions) - 1,
        leaves_full=w.n,
        cells_updated=res.cells_updated,
        expansions=res.expansions,
        leaf_sequence=LeafSequence(Counter(book.lengths)) if book is not None else None,
    )
    return ProblemResult(book, dp)


def _enumerate_levels(w: WeightSeq, spec: LevelSpec, max_n: int) -> int:
    budget = oracle.OracleBudget(max_n=max_n, max_depth=max(max_n, 8))
    return oracle.enumerate_gmr(w, spec, spec.num_levels, budget)


def _enumerate_glengths(w: WeightSeq, gspec: GLengthsSpec, max_n: int) -> int:
    cspec = _glengths_levels(gspec, w.n)
    levels = cspec.num_levels
    budget = oracle.OracleBudget(max_n=max_n, max_depth=max(levels, 8),
                                 max_option_sets=len(cspec.options(1)))
    return oracle.enumerate_choice(w, cspec, levels, budget)


def _enumerate_one_ended(w: WeightSeq, _spec, max_n: int) -> int:
    budget = oracle.OracleBudget(max_n=min(max_n, 6), max_depth=w.n + 2)
    return oracle.enumerate_one_ended(w, budget=budget)


# The solve entries call the adapters by module attribute at call time, so
# that rebinding an adapter (as the per-layer tracer does) reaches them.
PROBLEMS: dict[str, Problem] = {
    "gmr": Problem(
        spec=lambda p, n: p.levels or LevelSpec.constant(p.radix, 1, n),
        solve=_solve_levels,
        oracle=_enumerate_levels,
    ),
    "huffman": Problem(
        spec=lambda p, n: p.radix,
        solve=lambda w, r, **kw: solve_huffman_reference_adapter(w, r, **kw),
        oracle=lambda w, r, _max_n: oracle.huffman_greedy(w, r),
    ),
    "mixed-radix": Problem(
        spec=lambda p, n: MixedRadixSpec(tuple(_required(p.arities, "arities", "mixed-radix"))),
        solve=lambda w, s, **kw: solve_mixed_radix(w, s, **kw),
        oracle=lambda w, s, max_n: _enumerate_levels(w, _mixed_levels(s, w.n), max_n),
    ),
    "reserved-given": Problem(
        spec=lambda p, n: ReservedSpec(p.radix,
                                       tuple(_required(p.lengths, "lengths", "reserved-given"))),
        solve=lambda w, s, **kw: solve_reserved_given(w, s, **kw),
        oracle=lambda w, s, max_n: _enumerate_levels(w, _reserved_levels(s), max_n),
    ),
    "reserved-g": Problem(
        spec=lambda p, n: GLengthsSpec(p.radix, _required(p.g, "g", "reserved-g")),
        solve=lambda w, s, **kw: solve_reserved_g(w, s, **kw),
        oracle=_enumerate_glengths,
    ),
    "one-ended": Problem(
        spec=lambda p, n: None,
        solve=_solve_one_ended,
        oracle=_enumerate_one_ended,
    ),
}
