"""Exception types shared across the package."""


class PrefixCodeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(PrefixCodeError):
    """Malformed caller input (empty weights, negative entries, bad specs)."""


class InvalidLeafSequence(PrefixCodeError):
    """A leaf sequence that no tree under the given level spec can realize."""


class NoFeasibleTree(PrefixCodeError):
    """No tree satisfying the constraints can host all codewords."""


class ArityOverflow(PrefixCodeError):
    """A derived per-level arity exceeds the supported magnitude."""


class BudgetExceeded(PrefixCodeError):
    """An exhaustive oracle was asked to search beyond its safety budget."""


class InternalInconsistency(PrefixCodeError):
    """A solver produced self-contradictory state; indicates a bug."""
