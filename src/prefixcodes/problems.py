"""Named coding problems and the one solve path through them.

The paper's variations differ only in their level structure, so a
``Problem`` in the ``PROBLEMS`` registry is just that: it builds the engine
spec from the shared ``Params``, emits the code and names an oracle.
:func:`solve` is the one route from a problem name to an answer; the CLI,
the bench harness and the named adapters all call it.  Reserved-length
codes collapse runs of levels between permitted lengths into one "meta"
level of arity r**gap and edge length gap; the winning meta leaves are then
re-expanded into r-ary words by the same leftmost-slot rule the plain
emitter uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import one_ended, oracle
from .core import (ChoiceLevelSpec, CodeBook, LeafSequence, LevelSpec, WeightSeq,
                   check_algorithm, check_int)
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


@dataclass(frozen=True)
class ReservedSpec:
    """Alphabet size and the exact set of permitted codeword lengths."""

    radix: int
    lengths: tuple[int, ...]

    def __post_init__(self):
        if check_int(self.radix, "alphabet sizes") < 2:
            raise InvalidInput("alphabet size must be >= 2")
        if not self.lengths:
            raise InvalidInput("need at least one permitted length")
        prev = 0
        for g in self.lengths:
            if isinstance(g, bool) or not isinstance(g, int) or g <= prev:
                raise InvalidInput("lengths must be strictly increasing integers >= 1")
            prev = g


@dataclass(frozen=True)
class GLengthsSpec:
    """Alphabet size and a budget of distinct codeword lengths."""

    radix: int
    g: int

    def __post_init__(self):
        if check_int(self.radix, "alphabet sizes") < 2:
            raise InvalidInput("alphabet size must be >= 2")
        if check_int(self.g, "length budgets") < 1:
            raise InvalidInput("length budget must be >= 1")


@dataclass(frozen=True)
class ProblemResult:
    """A solved problem: the emitted code (None in cost-only runs) plus the
    DP result.  A one-ended solve's ``dp`` is the engine's ``OneEndedResult``,
    whose own ``codebook`` is this one."""

    codebook: CodeBook | None
    dp: DPResult


@dataclass(frozen=True)
class Params:
    """Parameters shared by all problems; each problem reads only its own.

    ``levels`` is gmr's explicit level spec; without it gmr, like huffman,
    uses ``LevelSpec.constant(radix, 1, n)``: arity ``radix`` and unit edges
    on all n levels, stored as one pair.
    """

    radix: int = 2
    arities: tuple[int, ...] | None = None
    lengths: tuple[int, ...] | None = None
    g: int | None = None
    levels: LevelSpec | None = None


@dataclass(frozen=True)
class Problem:
    """One named problem, as :func:`solve` runs it.  ``levels(params, n)``
    builds the engine spec -- a ``LevelSpec``, a ``ChoiceLevelSpec``, or None
    for the one-ended DP, which has no levels; ``emit(dp, spec, w, params)``
    gives the ``CodeBook`` and ``oracle(w, spec, max_n)`` the cost on that
    same spec.  The oracle shares no DP code; the exhaustive ones refuse
    instances above ``max_n`` weights."""

    levels: Callable[[Params, int], LevelSpec | ChoiceLevelSpec | None]
    emit: Callable[..., CodeBook] | None
    oracle: Callable[..., int]


def solve(name: str, w: WeightSeq, params: Params, *, algorithm: str = "batched",
          want_code: bool = True, cutoff: bool = True) -> ProblemResult:
    """Build the engine spec of problem ``name``, run the plain or choice
    engine with ``keep_tables=want_code``, and emit the code if ``want_code``.
    The one-ended DP has no spec: its engine emits the code itself, and its
    ``OneEndedResult`` is the result's ``dp``.  ``cutoff=False`` selects the
    paper's full fill in every engine (see ``gmr.solve_choice`` and
    ``one_ended.solve_one_ended``).  The engines and emitters are module
    globals looked up at call time."""
    if name not in PROBLEMS:
        raise InvalidInput(f"unknown problem {name!r}")
    problem = PROBLEMS[name]
    spec = problem.levels(params, w.n)
    if spec is None:
        res = one_ended.solve_one_ended(w, algorithm=algorithm, with_code=want_code,
                                        cutoff=cutoff)
        return ProblemResult(res.codebook, res)
    check_algorithm(algorithm)
    if isinstance(spec, ChoiceLevelSpec):
        dp = solve_choice(w, spec, algorithm=algorithm, keep_tables=want_code, cutoff=cutoff)
    else:
        engine = solve_naive if algorithm == "naive" else solve_batched
        dp = engine(w, spec, keep_tables=want_code, cutoff=cutoff)
    return ProblemResult(problem.emit(dp, spec, w, params) if want_code else None, dp)


def solve_mixed_radix(w: WeightSeq, mrspec: MixedRadixSpec, *, algorithm: str = "batched",
                      want_code: bool = True) -> ProblemResult:
    """Arity varies by codeword position, all edges length 1."""
    return solve("mixed-radix", w, Params(arities=mrspec.arities), algorithm=algorithm,
                 want_code=want_code)


def solve_huffman_reference_adapter(w: WeightSeq, r: int, *, algorithm: str = "batched",
                                    want_code: bool = True) -> ProblemResult:
    """Constant arity r, unit edges: plain r-ary Huffman as a GMR instance."""
    return solve("huffman", w, Params(radix=r), algorithm=algorithm, want_code=want_code)


def solve_reserved_given(w: WeightSeq, rspec: ReservedSpec, *, algorithm: str = "batched",
                         want_code: bool = True) -> ProblemResult:
    """All codeword lengths must come from the given set."""
    return solve("reserved-given", w, Params(radix=rspec.radix, lengths=rspec.lengths),
                 algorithm=algorithm, want_code=want_code)


def solve_reserved_g(w: WeightSeq, gspec: GLengthsSpec, *, algorithm: str = "batched",
                     want_code: bool = True) -> ProblemResult:
    """At most g distinct codeword lengths, the lengths themselves are free."""
    return solve("reserved-g", w, Params(radix=gspec.radix, g=gspec.g), algorithm=algorithm,
                 want_code=want_code)


def _required(value, what: str, problem: str):
    if value is None:
        raise InvalidInput(f"{problem} requires {what}")
    return value


def _mixed_levels(p: Params, n: int) -> LevelSpec:
    mrspec = MixedRadixSpec(tuple(_required(p.arities, "arities", "mixed-radix")))
    return LevelSpec([(r, 1) for r in mrspec.arities[:n]], n)


def _meta_arity(r: int, gap: int) -> int:
    # r**gap has more than gap * (r.bit_length() - 1) bits; refuse before building it
    if gap * (r.bit_length() - 1) >= _MAX_ARITY_BITS:
        raise ArityOverflow(f"{r}**{gap} exceeds the supported arity range")
    meta = r**gap
    if meta.bit_length() > _MAX_ARITY_BITS:
        raise ArityOverflow(f"{r}**{gap} exceeds the supported arity range")
    return meta


def _reserved_levels(p: Params, n: int) -> LevelSpec:
    """One meta level per permitted length: arity r**gap, edge length gap.
    The arities are checked before the capacity, so an arity overflow is
    reported even where no tree would fit."""
    rspec = ReservedSpec(p.radix, tuple(_required(p.lengths, "lengths", "reserved-given")))
    gaps = [b - a for a, b in zip((0,) + rspec.lengths, rspec.lengths)]
    spec = LevelSpec([(_meta_arity(rspec.radix, gap), gap) for gap in gaps])
    capacity = rspec.radix ** rspec.lengths[-1]
    if capacity < n:
        raise NoFeasibleTree(f"only {capacity} words of permitted lengths exist, need {n}")
    return spec


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


def _glengths_levels(p: Params, n: int) -> ChoiceLevelSpec:
    """One choice level per distinct length, each offering every jump of
    :func:`glengths_options`.  n weights use at most n distinct lengths, so
    the spec has min(g, n) levels."""
    gspec = GLengthsSpec(p.radix, _required(p.g, "g", "reserved-g"))
    return ChoiceLevelSpec([glengths_options(gspec.radix, n)] * min(gspec.g, n))


def _emit_levels(dp: DPResult, spec: LevelSpec, w: WeightSeq, _params: Params) -> CodeBook:
    """Codewords straight from the levels of ``spec``."""
    return leafseq_to_codewords(dp.leaf_sequence, spec, w)


def _emit_radix(dp: DPResult, spec, w: WeightSeq, params: Params) -> CodeBook:
    """Map meta-level leaves to ``params.radix``-ary words.  The word length
    of meta level k is the summed edge length of levels 1..k, over the chosen
    options for a choice spec.  Leftmost-slot assignment at every level keeps
    the emitted code canonical."""
    if isinstance(spec, ChoiceLevelSpec):
        spec = LevelSpec([spec.options(i)[j] for i, j in enumerate(dp.options, start=1)])
    seq = dp.leaf_sequence
    counts = {spec.depth(level): count for level, count in seq.items()}
    radix_levels = LevelSpec.constant(params.radix, 1, spec.depth(seq.deepest))
    return leafseq_to_codewords(LeafSequence(counts), radix_levels, w)


def _enumerate_levels(w: WeightSeq, spec: LevelSpec | ChoiceLevelSpec, max_n: int) -> int:
    """Enumerate at most n levels: d = m + b grows by at least 1 per level, so
    no optimal tree over n weights is deeper (see ``gmr._tail_start``)."""
    budget = oracle.OracleBudget(max_n=max_n, max_depth=max(max_n, 8))
    return oracle.enumerate_gmr(w, spec, min(spec.num_levels, w.n), budget)


def _enumerate_one_ended(w: WeightSeq, _spec, max_n: int) -> int:
    budget = oracle.OracleBudget(max_n=max_n, max_depth=w.n + 2)
    return oracle.enumerate_one_ended(w, budget=budget)


PROBLEMS: dict[str, Problem] = {
    "gmr": Problem(
        levels=lambda p, n: p.levels or LevelSpec.constant(p.radix, 1, n),
        emit=_emit_levels,
        oracle=_enumerate_levels,
    ),
    "huffman": Problem(
        levels=lambda p, n: LevelSpec.constant(p.radix, 1, n),
        emit=_emit_levels,
        oracle=lambda w, spec, _max_n: oracle.huffman_greedy(w, spec.arity(1)),
    ),
    "mixed-radix": Problem(levels=_mixed_levels, emit=_emit_levels, oracle=_enumerate_levels),
    "reserved-given": Problem(levels=_reserved_levels, emit=_emit_radix,
                              oracle=_enumerate_levels),
    "reserved-g": Problem(levels=_glengths_levels, emit=_emit_radix, oracle=_enumerate_levels),
    "one-ended": Problem(levels=lambda p, n: None, emit=None, oracle=_enumerate_one_ended),
}
