"""Output checks that share no code with the dynamic programs.

``codebook_faults`` re-derives every property of a finished code from the
words themselves; it deliberately does not call ``core.check_prefix_free``
or any other package helper.  ``Checker`` counts attempted and failed solves
so that a failed check is reported in ``failed`` and the run continues.
"""

from __future__ import annotations


def word_symbols(word) -> tuple[int, ...]:
    """A codeword as a symbol tuple; the CLI prints digit strings when every
    symbol fits one character and symbol arrays otherwise."""
    if isinstance(word, str):
        return tuple(int(ch) for ch in word)
    return tuple(word)


def _prefix_fault(words) -> str | None:
    """Insert every word into a trie; a word that ends on, or passes through,
    another word's end node breaks the prefix property."""
    root: dict = {}
    end = object()
    for word in words:
        node = root
        for sym in word:
            if end in node:
                return f"a codeword is a prefix of {word}"
            node = node.setdefault(sym, {})
        if node:
            return f"{word} is a prefix of, or equal to, another codeword"
        node[end] = True
    return None


def codebook_faults(words, weights, costs, *, arity_at, lengths=None, allowed=None,
                    max_distinct=None, ends_in_one=False) -> list[str]:
    """Every property a code must have, as a list of faults (empty when sound).

    ``words[k]`` is the codeword of ``weights[k]``.  ``costs`` holds each cost
    the solver reported for the code; each must equal the cost recomputed as
    the sum of weight times word length.  ``arity_at(p)`` is the alphabet
    size of 1-indexed position ``p``.  ``allowed`` restricts the lengths to a
    set, ``max_distinct`` bounds how many distinct lengths occur, and
    ``ends_in_one`` requires every word to end with symbol 1.
    """
    words = [word_symbols(word) for word in words]
    faults = []
    if len(words) != len(weights):
        faults.append(f"{len(words)} codewords for {len(weights)} weights")
    if lengths is not None and list(lengths) != [len(word) for word in words]:
        faults.append("reported lengths differ from the codeword lengths")
    if any(not word for word in words):
        faults.append("empty codeword")
    fault = _prefix_fault(words)
    if fault:
        faults.append(fault)
    for word in words:
        for pos, sym in enumerate(word, 1):
            if not 0 <= sym < arity_at(pos):
                faults.append(f"symbol {sym} at position {pos} of {word} exceeds arity {arity_at(pos)}")
                break
    distinct = {len(word) for word in words}
    if allowed is not None and not distinct <= set(allowed):
        faults.append(f"lengths {sorted(distinct - set(allowed))} are not permitted")
    if max_distinct is not None and len(distinct) > max_distinct:
        faults.append(f"{len(distinct)} distinct lengths exceed the budget {max_distinct}")
    if ends_in_one and any(word and word[-1] != 1 for word in words):
        faults.append("a one-ended codeword does not end in 1")
    recomputed = sum(w * len(word) for w, word in zip(weights, words))
    for cost in costs:
        if cost != recomputed:
            faults.append(f"reported cost {cost} != recomputed cost {recomputed}")
    return faults


class Checker:
    """Tally of checked solves; a solve fails on any fault, raise or bad exit."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.faults: list[str] = []

    def record(self, label: str, faults) -> None:
        self.attempted += 1
        if faults:
            self.failed += 1
            self.faults.append(f"{label}: {'; '.join(faults)}")
