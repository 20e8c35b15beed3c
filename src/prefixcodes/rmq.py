"""Static range-minimum (argmin) queries over a cost array.

Sparse-table construction: O(L log L) build, O(1) query.  An O(L)-build
structure would shave the log factor off the one-ended solver's total, but
the sparse table is far simpler and the difference is invisible at any
practical scale.  The index owns a copy of the values, so queries stay valid
after the caller discards its array.  Ties resolve to the smallest index.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InvalidInput, InvalidRange


class RMQIndex:
    """Argmin index over a fixed array; UNREACHABLE sorts above every cost."""

    __slots__ = ("_vals", "_rows", "build_ops")

    def __init__(self, values: Sequence):
        vals = list(values)
        if not vals:
            raise InvalidInput("cannot index an empty array")
        self._vals = vals
        length = len(vals)
        rows = [list(range(length))]
        ops = 0
        k = 1
        while (1 << k) <= length:
            half = 1 << (k - 1)
            prev = rows[-1]
            row = []
            for i in range(length - (1 << k) + 1):
                a = prev[i]
                b = prev[i + half]
                # blocks are disjoint and ordered, so <= keeps the smaller index
                row.append(a if vals[a] <= vals[b] else b)
                ops += 1
            rows.append(row)
            k += 1
        self._rows = rows
        self.build_ops = ops

    def __len__(self):
        return len(self._vals)

    def query(self, i: int, j: int) -> int:
        """Smallest index of a minimum value in the inclusive window [i, j]."""
        if i > j or i < 0 or j >= len(self._vals):
            raise InvalidRange(f"bad window [{i}, {j}] for length {len(self._vals)}")
        k = (j - i + 1).bit_length() - 1
        a = self._rows[k][i]
        b = self._rows[k][j - (1 << k) + 1]
        va = self._vals[a]
        vb = self._vals[b]
        if va < vb:
            return a
        if vb < va:
            return b
        return a if a < b else b
