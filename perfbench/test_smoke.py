"""Smoke test of the benchmark itself:

    python3 -m pytest -q perfbench

Runs each workload on a tiny seeded task list, checks that a wrong closed
form is reported as a failure, that traced and untraced outputs agree bit
for bit, that span self times add up, that task times scale by the
reference kernel's time nearby, and that a short run of the command
prints every metric BENCHMARK.json names, with its unit.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import workloads  # noqa: E402
from pace import NOMINAL_S, WINDOW_S, Pacer  # noqa: E402
from run import closed_loop, run_task  # noqa: E402
from spans import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {"spectrum": 3, "orthogonality": 2, "construct": 2}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_task_list_passes_and_traces_bit_identically(workload):
    make_task = workloads.WORKLOADS[workload][0]
    _, plain = closed_loop(make_task, 7, workloads.MEASURE, 0.0,
                           layers.plain(), count=TINY[workload])
    assert [error for _, _, _, error in plain] == [None] * TINY[workload]
    tracer, sink = Tracer(), []
    _, traced = closed_loop(make_task, 7, workloads.MEASURE, 0.0,
                            layers.traced(tracer, sink), tracer, sink,
                            count=TINY[workload])
    assert [repr(t[2]) for t in traced] == [repr(t[2]) for t in plain]
    assert sum(tracer.calls.values()) > len(traced)


def _wrong(monkeypatch, name, shift):
    real = getattr(workloads, name)
    monkeypatch.setattr(workloads, name,
                        lambda *args: real(*args) + shift)


@pytest.mark.parametrize("workload, index, closed_form", [
    ("spectrum", 0, "eigenvalue"),
    ("spectrum", 1, "eigenvalue"),
    ("construct", 0, "eigenvalue"),
    ("construct", 0, "cuberoot_energy"),
])
def test_wrong_closed_form_is_reported(monkeypatch, workload, index,
                                       closed_form):
    make_task = workloads.WORKLOADS[workload][0]
    _, _, error = run_task(make_task(7, workloads.MEASURE, index),
                           layers.plain())
    assert error is None
    _wrong(monkeypatch, closed_form, 1e-3)
    _, _, error = run_task(make_task(7, workloads.MEASURE, index),
                           layers.plain())
    assert error is not None


def test_off_diagonal_inner_product_beyond_tolerance_is_reported():
    assert workloads._check_inner([(0, 1, 0.0, 0.0)]) is None
    assert workloads._check_inner([(0, 1, 2e-8, 0.0)]) is not None


def test_self_times_account_for_the_task():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda x: x + 1)
    mid = tracer.wrap("mid", lambda: [leaf(i) for i in range(50)])
    with tracer.task(0):
        mid()
        leaf(0)
    total = tracer.records[0][2] - tracer.records[0][1]
    assert tracer.calls == {"leaf": 51, "mid": 1, "bench.task": 1}
    assert sum(tracer.self_s.values()) == pytest.approx(total, rel=1e-9)
    # the 50 leaves under "mid" coalesce into one record
    assert [r[0] for r in tracer.records] == ["bench.task", "mid", "leaf",
                                              "leaf"]
    assert tracer.records[2][5] == 50


def test_task_times_scale_by_the_kernel_time_nearby():
    pacer = Pacer()
    pacer.tasks = [(10.0, 0.5), (20.0, 0.5)]
    pacer.kernel_at = [10.0 - WINDOW_S / 2, 10.5, 20.0 - WINDOW_S / 2, 20.2,
                       20.0 + 2 * WINDOW_S]
    pacer.kernel_s = [2 * NOMINAL_S, 2 * NOMINAL_S, NOMINAL_S / 2,
                      NOMINAL_S / 2, 1.0]
    assert pacer.scaled() == pytest.approx([0.25, 1.0])
    pacer.after_task(0.0)
    assert len(pacer.kernel_s) == 6


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace, key", [(0, "end_to_end"),
                                        (1, "per_layer")])
def test_command_prints_every_metric_with_its_unit(workload, trace, key):
    cmd = [sys.executable, *BENCHMARK["command"][1:], "--workload",
           workload, "--seed", "3", "--seconds", "0.2", "--trace",
           str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert workload in {w["name"] for w in BENCHMARK["workloads"]}


def test_refuses_to_run_without_the_library():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        proc = subprocess.run(
            [sys.executable, *BENCHMARK["command"][1:], "--workload",
             "spectrum", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
