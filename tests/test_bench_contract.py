"""The benchmark's contract with the library.

``perfbench/`` calls the library through ``perfbench/layers.py`` and checks
every task against closed forms of its own.  The test suite does not
collect ``perfbench/test_smoke.py``, so this module runs task 0 of each
workload (and task 1 of ``spectrum``, its ``verify spectrum`` command
path), plain and traced, and fails when a library change breaks what
the benchmark reads: ``SchrodingerSystem``, ``known_eigenpairs``,
``energy`` and the two ``residual_norm`` forms.  The benchmark's files are
imported, never changed.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


@pytest.mark.parametrize("workload, index", [
    ("spectrum", 0), ("spectrum", 1), ("orthogonality", 0), ("construct", 0),
])
def test_task_passes_plain_and_traced(workload, index):
    make_task = workloads.WORKLOADS[workload][0]
    task = make_task(7, workloads.MEASURE, index)
    plain = task.run(layers.plain())
    assert task.check(plain) is None
    tracer, sink = Tracer(), []
    with tracer.task(index):
        traced = task.run(layers.traced(tracer, sink))
    assert task.check(traced) is None
    assert repr(traced) == repr(plain)
    assert sum(tracer.calls.values()) > 0
    # the Exprs of every returned system were collected for node counts
    tree, dag = layers.node_counts(sink)
    assert tree >= dag
