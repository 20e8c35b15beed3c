"""Per-layer tracing from outside the package source.

``Tracer.installed()`` rebinds public names in the modules that call them
(for example ``problems.solve_batched``, which the adapters look up at call
time) to wrappers that record a span around each call, and restores every
binding on exit.  A span's self time is its duration minus the time of the
spans it encloses; the spans of one solve therefore add up to the solve.
Spans are aggregated per layer in memory instead of kept one by one.

Counts are read from solver results after each solve (``drain``), outside
every span, so that reading large tables costs no layer any time.  A name a
later version of the package no longer has is skipped, and its layer then
reads zero.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
from collections import Counter, defaultdict
from time import perf_counter

#: (module, attribute, layer) for every rebound name.
BINDINGS = (
    ("cli", "main", "cli.main"),
    ("cli", "normalize_weights", "core.normalize"),
    ("core", "normalize_weights", "core.normalize"),
    ("cli", "solve_huffman_reference_adapter", "problems.solve"),
    ("cli", "solve_mixed_radix", "problems.solve"),
    ("cli", "solve_reserved_given", "problems.solve"),
    ("cli", "solve_reserved_g", "problems.solve"),
    ("problems", "solve_huffman_reference_adapter", "problems.solve"),
    ("problems", "solve_mixed_radix", "problems.solve"),
    ("problems", "solve_reserved_given", "problems.solve"),
    ("problems", "solve_reserved_g", "problems.solve"),
    ("cli", "solve_batched", "gmr.solve"),
    ("cli", "solve_naive", "gmr.solve"),
    ("problems", "solve_batched", "gmr.solve"),
    ("problems", "solve_naive", "gmr.solve"),
    ("gmr", "backtrack", "gmr.backtrack"),
    ("gmr", "prune_to_n", "gmr.prune"),
    ("choice", "prune_to_n", "gmr.prune"),
    ("cli", "leafseq_to_codewords", "gmr.emit"),
    ("problems", "leafseq_to_codewords", "gmr.emit"),
    ("problems", "solve_choice", "choice.solve"),
    ("cli", "solve_one_ended", "one_ended.solve"),
    ("one_ended", "solve_one_ended", "one_ended.solve"),
)

LAYERS = ("core.normalize", "problems.solve", "gmr.solve", "gmr.backtrack", "gmr.prune",
          "gmr.emit", "choice.solve", "one_ended.solve", "rmq.build", "rmq.query", "cli.main")


def _module(name: str):
    try:
        return importlib.import_module(f"prefixcodes.{name}")
    except ModuleNotFoundError:
        return None


def _table_states(tables) -> int:
    return sum(len(t.costs) for t in tables)


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.gc_pause_s = 0.0
        self._stack: list[list[float]] = []  # child time of each open span
        self._results: list[tuple[str, object]] = []
        self._gc_start = 0.0

    # -- spans ---------------------------------------------------------

    def _wrap(self, layer: str, fn):
        stack, self_s, results = self._stack, self.self_s, self._results

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            results.append((layer, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _leaf_time(self, layer: str, elapsed: float) -> None:
        self.self_s[layer] += elapsed
        if self._stack:
            self._stack[-1][0] += elapsed

    def _traced_rmq(self, base):
        tracer = self

        class TracedRMQ(base):
            __slots__ = ()

            def __init__(self, values):
                start = perf_counter()
                super().__init__(values)
                tracer._leaf_time("rmq.build", perf_counter() - start)
                tracer.counts["rmq.builds"] += 1
                tracer.counts["rmq.build_ops"] += getattr(self, "build_ops", 0)

            def query(self, i, j):
                start = perf_counter()
                k = base.query(self, i, j)
                tracer._leaf_time("rmq.query", perf_counter() - start)
                tracer.counts["rmq.queries"] += 1
                return k

        return TracedRMQ

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.gc_pause_s += perf_counter() - self._gc_start
            self.counts["gc.collections"] += 1

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced name for the duration of the block."""
        saved = []
        try:
            for mod_name, attr, layer in BINDINGS:
                mod = _module(mod_name)
                fn = getattr(mod, attr, None)
                if fn is not None:
                    saved.append((mod, attr, fn))
                    setattr(mod, attr, self._wrap(layer, fn))
            oe = _module("one_ended")
            rmq = getattr(oe, "RMQIndex", None)
            if rmq is not None:
                saved.append((oe, "RMQIndex", rmq))
                oe.RMQIndex = self._traced_rmq(rmq)
            gc.callbacks.append(self._on_gc)
            yield self
        finally:
            if self._on_gc in gc.callbacks:
                gc.callbacks.remove(self._on_gc)
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    # -- counts ----------------------------------------------------------

    def drain(self) -> None:
        """Read the counters off the results of the solve just finished."""
        results = list(self._results)
        self._results.clear()  # the wrappers hold this list
        c = self.counts
        for layer, res in results:
            if layer == "gmr.solve":
                c["gmr.solves"] += 1
                c["gmr.cells"] += res.cells_updated
                tables = getattr(res, "tables", None)
                if tables:
                    # level statistics come from with-code solves, whose
                    # tables are retained
                    c["gmr.table_solves"] += 1
                    c["gmr.levels_filled"] += len(tables) - 1
                    c["gmr.answer_level"] += res.level
                    c["gmr.states_stored"] += _table_states(tables)
                    c["gmr.useful_states"] += sum(
                        1 for t in tables for v in t.costs.values() if v < res.cost)
            elif layer == "choice.solve":
                c["choice.cells"] += res.cells_updated
                c["choice.states_stored"] += _table_states(getattr(res, "tables", None) or ())
            elif layer == "one_ended.solve":
                c["one_ended.cells"] += res.cells_updated
                table = getattr(res, "table", None)
                c["one_ended.states_stored"] += len(table.costs) if table is not None else 0
