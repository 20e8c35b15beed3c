"""The package surface: the exported names, and stdlib-only runtime imports.

A new public name, or a dropped one, must be an edit to ``PUBLIC`` below.
"""

import ast
import pathlib
import sys

import prefixcodes

PACKAGE_DIR = pathlib.Path(prefixcodes.__file__).parent

PUBLIC = [
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


def test_all_is_pinned():
    assert sorted(prefixcodes.__all__) == PUBLIC


def test_every_exported_name_resolves():
    for name in prefixcodes.__all__:
        assert getattr(prefixcodes, name) is not None, name


def _absolute_imports(path: pathlib.Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_runtime_imports_are_stdlib_only():
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(sources) >= 10
    for path in sources:
        for module in _absolute_imports(path):
            top = module.split(".")[0]
            assert top in sys.stdlib_module_names or top == "prefixcodes", (path.name, module)
