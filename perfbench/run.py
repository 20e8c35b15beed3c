"""Benchmark for prefixcodes: seeded workloads, checked answers, JSON metrics.

Run from the repository root:

    python3 perfbench/run.py --workload gmr-deep --seed 1 --seconds 28 --trace 0

Workloads are described in ``workloads.py``.  Each run is one closed loop
(one caller; the next solve starts when the previous one returns) in its own
process, importing the package from ``src/`` beside this directory.

``--trace 0`` solves for ``--seconds`` seconds of wall time and reports the
end-to-end metrics of the run's mean pass (see ``run_untraced``): solves per
second of timed solve time, the median and 90th-percentile seconds per
solve, peak RSS of this process, and set-up time (import of the package plus
generation of the first pass's inputs, in a fresh interpreter, median of
several).  Times are reported at the fixed reference host speed of
``hostspeed.py``; the measured seconds and the scale factor are printed
too.  ``--trace 1`` solves a fixed number of passes, alternating an untraced
pass and a traced pass on the same inputs, and reports the per-layer
metrics of ``layers.py`` in measured seconds, the tracing overhead, and
whether the predictions in ``predictions.json`` hold.

Every answer is checked (``checks.py``); a solve that raises, exits nonzero
or fails a check counts in ``failed`` and the run goes on.  Human-readable
lines come first; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 11
MIB = 1024 * 1024


def _import_package():
    """Import prefixcodes and the workload definitions from ``src/``; exits
    with status 2 when the package source is not there."""
    if not (SRC / "prefixcodes" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'prefixcodes'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import prefixcodes
    if Path(prefixcodes.__file__).resolve().parent != SRC / "prefixcodes":
        print(f"error: imported prefixcodes from {prefixcodes.__file__}", file=sys.stderr)
        sys.exit(2)
    import workloads
    return workloads


def setup_probe(workload: str, seed: int) -> float:
    """Import plus first-pass input generation, timed in this interpreter."""
    start = perf_counter()
    wl = _import_package()
    wl.make_pass(wl.WORKLOADS[workload], seed, 0)
    return perf_counter() - start


def setup_seconds(workload: str, seed: int, clock) -> float:
    """Median set-up time over fresh interpreters, one after the other; the
    host clock is sampled before each."""
    times = []
    for _ in range(SETUP_PROBES):
        clock.tick(force=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class Runner:
    """Solves instances, checks every answer and keeps the timings."""

    def __init__(self, wl, checker):
        self.wl = wl
        self.checker = checker
        #: solve seconds per position in the pass, one entry per pass
        self.times: dict[int, list[float]] = {}
        self._costs: dict[tuple[int, str], int] = {}

    def solve(self, inst, pass_index: int, position: int, tracer=None) -> float:
        """Time one solve and check it; returns its seconds (0 if it raised).
        Small instances of the first untraced pass are also checked against
        the exhaustive oracles."""
        wl = self.wl
        traced = tracer is not None
        try:
            try:
                elapsed, result, stdout = wl.timed_solve(inst)
            finally:
                if traced:
                    tracer.drain()
            if traced:
                tracer.counts["cli.stdout_bytes"] += len(stdout.encode())
            faults, cost = wl.answer_faults(inst, result, stdout)
            if pass_index == 0 and not traced:
                expected = wl.exhaustive_cost(inst.shape, inst.raw)
                if expected is not None and expected != cost:
                    faults.append(f"cost {cost} != exhaustive optimum {expected}")
        except Exception as exc:  # count the failure and keep measuring
            self.checker.record(inst.label, [f"raised {type(exc).__name__}: {exc}"])
            return 0.0
        key = (pass_index, f"{inst.shape.problem}/{inst.shape.distribution}/{inst.shape.n}")
        if key in self._costs and self._costs[key] != cost:
            faults.append(f"cost-only {self._costs[key]} != with-code {cost}")
        self._costs[key] = cost
        self.checker.record(inst.label, faults)
        self.times.setdefault(position, []).append(elapsed)
        return elapsed

    def run_pass(self, instances, pass_index: int, tracer=None, deadline=None,
                 between=None) -> float:
        """Solve one pass, or its prefix up to ``deadline`` (a perf_counter
        value), calling ``between()`` before each solve; returns the summed
        timed solve seconds."""
        if tracer is None:  # a traced pass collects before the tracer is installed
            gc.collect()
        total = 0.0
        for position, inst in enumerate(instances):
            if deadline is not None and perf_counter() >= deadline:
                break
            if between is not None:
                between()
            total += self.solve(inst, pass_index, position, tracer)
        self._costs.clear()
        return total


def run_untraced(wl, workload, seed: int, seconds: float, checker, clock) -> dict:
    """Solve passes until ``seconds`` of wall time have passed, sampling the
    host clock between solves.  The first pass is always whole; the last may
    stop part-way.

    The metrics describe the run's mean pass: each shape of the pass keeps
    the mean of its solve times, and rate and percentiles are taken over
    these per-shape means, so a cut-short last pass weighs no shape more
    than another.  Percentiles thus range over the instance shapes of the
    workload, not over repeats of one shape.  The times are measured
    seconds; ``main`` scales them to the reference host speed."""
    runner = Runner(wl, checker)
    deadline = perf_counter() + seconds
    passes = 0
    while not passes or perf_counter() < deadline:
        runner.run_pass(wl.make_pass(workload, seed, passes), passes,
                        deadline=deadline if passes else None, between=clock.tick)
        passes += 1
    if not runner.times:
        return {}
    means = [statistics.fmean(ts) for ts in runner.times.values()]
    counts = [len(ts) for ts in runner.times.values()]
    p90 = statistics.quantiles(means, n=10, method="inclusive")[8] if len(means) > 1 else means[0]
    print(f"{sum(counts)} timed solves of {len(means)} shapes in {passes} passes "
          f"({min(counts)}-{max(counts)} per shape)")
    return {
        "solves_per_s": (len(means) / sum(means), "1/s"),
        "solve_s_p50": (statistics.median(means), "s"),
        "solve_s_p90": (p90, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def table_peak_mib(wl, instances) -> float:
    """tracemalloc peak of the pass's first with-code gmr-backed solve; 0
    when the workload has none.  (tracemalloc slows allocation-heavy fills
    several times over, so one solve is probed, not the pass.)"""
    probe = next((i for i in instances if i.gmr_backed and i.shape.with_code), None)
    if probe is None:
        return 0.0
    gc.collect()
    tracemalloc.start()
    try:
        wl.timed_solve(probe)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / MIB


def run_traced(wl, workload, seed: int, checker) -> dict:
    from layers import LAYERS, Tracer

    runner = Runner(wl, checker)
    tracer = Tracer()
    plain_s = traced_s = 0.0
    for pass_index in range(workload.trace_passes):
        instances = wl.make_pass(workload, seed, pass_index)
        plain_s += runner.run_pass(instances, pass_index)
        gc.collect()
        with tracer.installed():
            traced_s += runner.run_pass(instances, pass_index, tracer)
    peak_mib = table_peak_mib(wl, wl.make_pass(workload, seed, 0))

    s, c = tracer.self_s, tracer.counts
    table_solves = c["gmr.table_solves"]
    metrics = {
        "core.normalize_s": (s["core.normalize"], "s"),
        "gmr.solve_s": (s["gmr.solve"], "s"),
        "gmr.cells": (c["gmr.cells"], "count"),
        "gmr.levels_filled": (c["gmr.levels_filled"] / table_solves if table_solves else 0, "levels"),
        "gmr.answer_level": (c["gmr.answer_level"] / table_solves if table_solves else 0, "levels"),
        "gmr.useful_level_share": (
            c["gmr.answer_level"] / c["gmr.levels_filled"] if c["gmr.levels_filled"] else 0, "ratio"),
        "gmr.states_stored": (c["gmr.states_stored"], "count"),
        "gmr.useful_state_share": (
            c["gmr.useful_states"] / c["gmr.states_stored"] if c["gmr.states_stored"] else 0, "ratio"),
        "gmr.table_peak_mib": (peak_mib, "MiB"),
        "gmr.backtrack_s": (s["gmr.backtrack"], "s"),
        "gmr.prune_s": (s["gmr.prune"], "s"),
        "gmr.emit_s": (s["gmr.emit"], "s"),
        "choice.solve_s": (s["choice.solve"], "s"),
        "choice.cells": (c["choice.cells"], "count"),
        "choice.states_stored": (c["choice.states_stored"], "count"),
        "one_ended.solve_s": (s["one_ended.solve"], "s"),
        "one_ended.cells": (c["one_ended.cells"], "count"),
        "one_ended.states_stored": (c["one_ended.states_stored"], "count"),
        "rmq.builds": (c["rmq.builds"], "count"),
        "rmq.build_ops": (c["rmq.build_ops"], "count"),
        "rmq.build_s": (s["rmq.build"], "s"),
        "rmq.queries": (c["rmq.queries"], "count"),
        "rmq.query_s": (s["rmq.query"], "s"),
        "problems.solve_s": (s["problems.solve"], "s"),
        "cli.main_s": (s["cli.main"], "s"),
        "cli.stdout_bytes": (c["cli.stdout_bytes"], "bytes"),
        "gc.collections": (c["gc.collections"], "count"),
        "gc.pause_s": (tracer.gc_pause_s, "s"),
        "trace.solve_s": (traced_s, "s"),
        "trace.attributed_share": (sum(s[layer] for layer in LAYERS) / traced_s if traced_s else 0,
                                   "ratio"),
        "trace.overhead_share": ((traced_s - plain_s) / plain_s if plain_s else 0, "ratio"),
    }
    print(f"traced {workload.trace_passes} pass(es): untraced {plain_s:.4f} s, traced {traced_s:.4f} s; "
          f"gmr level statistics over {table_solves} with-code gmr solves")
    report_predictions(workload.name, metrics, traced_s)
    return metrics


def report_predictions(workload: str, metrics: dict, traced_s: float) -> None:
    """Compare the measured layer shares with ``predictions.json``."""
    preds = json.loads((HERE / "predictions.json").read_text())["shares"]
    for pred in preds:
        if pred["workload"] != workload or not traced_s:
            continue
        share = sum(metrics[m][0] for m in pred["metrics"]) / traced_s
        if pred["test"] == "above":
            held = share > pred["value"]
            claim = f"> {pred['value']}"
        else:
            held = abs(share - pred["value"]) <= pred["tolerance"]
            claim = f"{pred['value']} +- {pred['tolerance']}"
        print(f"prediction {'+'.join(pred['metrics'])} share of traced solve time: "
              f"predicted {claim}, measured {share:.3f}: {'confirmed' if held else 'corrected'}")


def self_check() -> list[str]:
    """The validator must fire: a code with one flipped symbol and a result
    whose cost is off by one must each count as a failure."""
    from checks import Checker, codebook_faults
    from prefixcodes import core, problems

    raw = [40, 30, 20, 10, 5, 5]
    weights = sorted(raw, reverse=True)
    res = problems.solve_huffman_reference_adapter(core.normalize_weights(raw), 2)
    book = res.codebook
    words = [list(word) for word in book.words]
    words[-1][-1] ^= 1
    checker = Checker()
    for label, ws, cost in (("sound", book.words, book.cost),
                            ("flipped symbol", words, book.cost),
                            ("cost off by one", book.words, book.cost + 1)):
        checker.record(label, codebook_faults(ws, weights, [cost], arity_at=lambda p: 2))
    if checker.failed == 2 and checker.faults[0].startswith("flipped symbol") \
            and checker.faults[1].startswith("cost off by one"):
        return []
    return [f"{checker.failed} of 3 cases failed: {checker.faults}"]


def at_reference_speed(metrics: dict, clock) -> dict:
    """Scale the time metrics to the reference host speed (rates inversely)
    and print the measured values."""
    factor = clock.factor()
    print(f"host clock: {len(clock.samples)} reference samples; measured seconds "
          f"x {factor:.4f} = seconds at reference speed")
    scaled = {}
    for name, (value, unit) in metrics.items():
        if unit in ("s", "1/s"):
            print(f"  measured {name} {value} {unit}")
            value = value * factor if unit == "s" else value / factor
        scaled[name] = (value, unit)
    return scaled


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a name from workloads.WORKLOADS")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(repr(setup_probe(args.workload, args.seed)))
        return 0

    wl = _import_package()
    from checks import Checker
    from hostspeed import HostClock

    if args.workload not in wl.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(wl.WORKLOADS)}")
    workload = wl.WORKLOADS[args.workload]
    checker = Checker()
    broken = self_check()
    if args.trace:
        metrics = run_traced(wl, workload, args.seed, checker)
    else:
        clock = HostClock()
        metrics = run_untraced(wl, workload, args.seed, args.seconds, checker, clock)
        metrics["setup_s"] = (setup_seconds(args.workload, args.seed, clock), "s")
        metrics = at_reference_speed(metrics, clock)
    print("validator self-check: " + ("FAILED " + "; ".join(broken) if broken else
          "a flipped symbol and a cost off by one each counted as a failure"))
    for fault in checker.faults[:20]:
        print(f"FAIL {fault}")
    fail_share = checker.failed / checker.attempted if checker.attempted else 1.0
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value} {unit}")
    print(f"  fail_share {fail_share} ({checker.failed} of {checker.attempted})")
    print(json.dumps({
        "correct": not broken and checker.failed == 0 and checker.attempted > 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
