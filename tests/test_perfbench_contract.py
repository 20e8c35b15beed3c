"""The benchmark harness in ``perfbench/`` still reads the package.

``perfbench/workloads.py`` and ``perfbench/layers.py`` use names that no
other test pins as a whole: result fields (``cost``, ``codebook``,
``cells_updated``, ``table.costs``), ``oracle.OracleBudget``'s keywords, the
CLI flags of the small-codes argv and the functions the tracer rebinds.
These tests run the harness's own code, unchanged, on the first instances of
each workload, so a change that breaks one of those names fails here and not
only in a benchmark run.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layers  # noqa: E402
import workloads  # noqa: E402

#: The counter each workload's first traced solve must move; a rebinding the
#: tracer skips, because the package lost the name, leaves its layer at zero.
TRACED_COUNTER = {
    "gmr-deep": "gmr.cells",
    "one-ended": "one_ended.states_stored",
    "reserved-wide": "choice.cells",
    "small-codes": "gmr.cells",
}


def _first_instances(name):
    """Pass 0 of seed 1: all of small-codes, the first two shapes elsewhere."""
    instances = workloads.make_pass(workloads.WORKLOADS[name], 1, 0)
    return instances if name == "small-codes" else instances[:2]


def test_every_workload_is_covered():
    assert sorted(TRACED_COUNTER) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TRACED_COUNTER))
def test_answers_pass_the_workload_checks(name):
    for inst in _first_instances(name):
        _, result, stdout = workloads.timed_solve(inst)
        faults, cost = workloads.answer_faults(inst, result, stdout)
        assert faults == [], inst.label
        assert workloads.exhaustive_cost(inst.shape, inst.raw) in (None, cost), inst.label


@pytest.mark.parametrize("name", sorted(TRACED_COUNTER))
def test_traced_solve_drains(name):
    tracer = layers.Tracer()
    with tracer.installed():
        workloads.timed_solve(_first_instances(name)[0])
    tracer.drain()
    assert tracer.counts[TRACED_COUNTER[name]] > 0


def test_traced_with_code_solve_reads_the_whole_tables():
    # the first gmr-deep instance is cost-only and keeps no table; its
    # with-code twin ends in the level-free tail, whose table is a view
    inst = next(i for i in _first_instances("gmr-deep") if i.shape.with_code)
    tracer = layers.Tracer()
    with tracer.installed():
        _, result, _ = workloads.timed_solve(inst)
    tracer.drain()
    tables = result.dp.tables
    assert tracer.counts["gmr.table_solves"] == 1
    assert tracer.counts["gmr.states_stored"] == sum(len(t.costs) for t in tables) > 0


def test_traced_one_ended_solve_reads_the_whole_table():
    # the one-ended table is a view over the fill's diagonal rows
    inst = next(i for i in _first_instances("one-ended") if i.shape.with_code)
    tracer = layers.Tracer()
    with tracer.installed():
        _, result, _ = workloads.timed_solve(inst)
    tracer.drain()
    assert tracer.counts["one_ended.states_stored"] == len(result.table.costs) > 0
