"""Minimum-cost prefix-free codes under structural constraints.

A top-down dynamic program over tree-level signatures solves generalized
mixed-radix instances exactly; reductions express mixed-radix coding,
reserved-length coding (given lengths, or a budget of distinct lengths) and
one-ended binary coding in the same framework.  Every solver has a naive and
a batched fill that produce bit-identical tables, and exhaustive oracles for
cross-checking at small sizes.
"""

from .core import (
    MAX_WEIGHT,
    UNREACHABLE,
    ChoiceLevelSpec,
    CodeBook,
    LeafSequence,
    LevelSpec,
    WeightSeq,
    check_prefix_free,
    normalize_weights,
)
from .errors import (
    ArityOverflow,
    BudgetExceeded,
    InternalInconsistency,
    InvalidInput,
    InvalidLeafSequence,
    NoFeasibleTree,
    PrefixCodeError,
)
from .gmr import (
    DPResult,
    LevelTable,
    leafseq_to_codewords,
    solve_batched,
    solve_choice,
    solve_naive,
)
from .one_ended import (
    OneEndedResult,
    solve_one_ended,
)
from .oracle import (
    OracleBudget,
    enumerate_choice,
    enumerate_gmr,
    enumerate_one_ended,
    huffman_greedy,
)
from .problems import (
    GLengthsSpec,
    MixedRadixSpec,
    ProblemResult,
    ReservedSpec,
    solve_huffman_reference_adapter,
    solve_mixed_radix,
    solve_reserved_g,
    solve_reserved_given,
)

__version__ = "0.1.0"

__all__ = [
    "ArityOverflow",
    "BudgetExceeded",
    "ChoiceLevelSpec",
    "CodeBook",
    "DPResult",
    "GLengthsSpec",
    "InternalInconsistency",
    "InvalidInput",
    "InvalidLeafSequence",
    "LeafSequence",
    "LevelSpec",
    "LevelTable",
    "MAX_WEIGHT",
    "MixedRadixSpec",
    "NoFeasibleTree",
    "OneEndedResult",
    "OracleBudget",
    "PrefixCodeError",
    "ProblemResult",
    "ReservedSpec",
    "UNREACHABLE",
    "WeightSeq",
    "check_prefix_free",
    "enumerate_choice",
    "enumerate_gmr",
    "enumerate_one_ended",
    "huffman_greedy",
    "leafseq_to_codewords",
    "normalize_weights",
    "solve_batched",
    "solve_choice",
    "solve_huffman_reference_adapter",
    "solve_mixed_radix",
    "solve_naive",
    "solve_one_ended",
    "solve_reserved_g",
    "solve_reserved_given",
]
