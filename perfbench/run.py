"""Benchmark for the solvable library: one seeded workload per run.

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 35

Run from the root of a checkout; the library is imported from ``src/``.
Load is a closed loop with one client: tasks run back to back in this
single-threaded process until ``--seconds`` have passed, each checked
against its closed form.  Task times and ``setup_s`` are scaled to a
nominal host speed measured between tasks (see ``pace.py``);
``tasks_per_s`` is tasks over their summed scaled times, and the detail
line keeps the unscaled figures.  Per-layer times are not scaled.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` a traced
run's per-layer metrics.  The line before last is a JSON record with the
environment, the tail percentile, the task breakdown, the unscaled
figures, every failure and the known-defect probe; the last line is the
result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import os

# pin BLAS and OpenMP pools before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

if not (SRC / "solvable" / "__init__.py").is_file():
    sys.exit(f"error: {SRC / 'solvable'} not found; run from the root of a "
             "checkout of the repository")
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402

import layers  # noqa: E402
import solvable  # noqa: E402
import workloads  # noqa: E402
from pace import Pacer  # noqa: E402
from spans import Tracer  # noqa: E402

if not Path(solvable.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"error: solvable imported from {solvable.__file__}, "
             f"not from {SRC}")

SETUP_REPEATS = 9
OVERHEAD_SAMPLE_S = 4.0
WARMUP_S = 0.5
TAIL_BEYOND = 10

END_TO_END = {
    "tasks_per_s": "1/s",
    "task_p50_ms": "ms",
    "task_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


LAYER_NAMES = [name for name, _, _ in layers.LAYERS.values()]
COUNTERS = ("oracle.eigenvalues_below.levels",
            "oracle.fd_hamiltonian.grid_points", "oracle.integrate.nodes",
            "expr.evaluate.points", "expr.tree_nodes", "expr.dag_nodes")
FAILS = ("oracle.integrate", "specfun.scalar_product")

# Per-layer metrics, each averaged over the tasks of the traced run so a
# faster program that completes more tasks does not inflate them.
PER_LAYER = (
    [(f"{n}.calls", "count/task") for n in LAYER_NAMES]
    + [(f"{n}.self_s", "s/task") for n in LAYER_NAMES]
    + [(c, "count/task") for c in COUNTERS]
    + [(f"{n}.fails", "count/task") for n in FAILS]
    + [("bench.task_s", "s/task"), ("bench.remainder_s", "s/task"),
       ("trace.overhead_pct", "%")])


def measure_setup():
    """Median wall time of a fresh interpreter running ``import solvable``,
    scaled to the nominal host speed like the task times, and the unscaled
    times.

    One untimed import first writes the bytecode cache, which users pay
    once per install, not per run."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import solvable"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)
    pacer = Pacer()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        pacer.after_task(time.perf_counter() - t0)
    return (statistics.median(pacer.scaled()),
            [s for _, s in pacer.tasks])


def environment():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return dict(git_sha=git_sha(), src_sha256=digest.hexdigest(),
                python=platform.python_version(), numpy=numpy.__version__,
                nproc=len(os.sched_getaffinity(0)), cpu_model=cpu,
                platform=platform.platform())


def git_sha():
    """HEAD's commit from the .git directory, or None outside a git
    checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_task(task, lib):
    """(seconds, output, error) of one task; an exception is a failure."""
    t0 = time.perf_counter()
    try:
        output = task.run(lib)
        error = task.check(output)
    except Exception as exc:  # a raising task is a recorded failure
        output = None
        error = "".join(traceback.format_exception_only(exc)).strip()
    return time.perf_counter() - t0, output, error


def closed_loop(make_task, seed, stream, seconds, lib, tracer=None,
                sink=None, count=None, pacer=None):
    """Run tasks back to back until ``seconds`` pass (at least one task),
    or ``count`` tasks, timing the host after each task if a ``pacer`` is
    given.  Returns (wall seconds, [(task, seconds, output, error)])."""
    done = []
    start = time.perf_counter()
    deadline = start + seconds
    index = 0
    while index < count if count is not None else \
            index == 0 or time.perf_counter() < deadline:
        task = make_task(seed, stream, index)
        if tracer is None:
            seconds_, output, error = run_task(task, lib)
        else:
            with tracer.task(index):
                seconds_, output, error = run_task(task, lib)
            tree, dag = layers.node_counts(sink)
            tracer.counters["expr.tree_nodes"] += tree
            tracer.counters["expr.dag_nodes"] += dag
            sink.clear()
        if pacer is not None:
            pacer.after_task(seconds_)
        done.append((task, seconds_, output, error))
        index += 1
    return time.perf_counter() - start, done


def timing_metrics(scaled):
    """End-to-end timing metrics from the scaled task times, and where the
    tail percentile lies."""
    times = sorted(scaled)
    n = len(times)
    if n > TAIL_BEYOND:
        tail, pct = times[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
    else:
        tail, pct = times[-1], 100.0
    metrics = dict(tasks_per_s=n / sum(times),
                   task_p50_ms=1e3 * statistics.median(times),
                   task_tail_ms=1e3 * tail)
    return metrics, dict(percentile=pct, samples=n,
                         samples_beyond=min(TAIL_BEYOND, n - 1))


def failures(done):
    return [dict(index=i, kind=task.kind, inputs=task.inputs, error=error)
            for i, (task, _, _, error) in enumerate(done) if error]


def kinds(done):
    by_kind = {}
    for task, t, _, _ in done:
        by_kind.setdefault(task.kind, []).append(t)
    return {k: dict(tasks=len(v), p50_ms=1e3 * statistics.median(v))
            for k, v in sorted(by_kind.items())}


def traced_run(workload, seed, seconds, plain):
    """Per-layer metrics from a traced closed loop, the tracing overhead
    and a bit-identity check of traced against untraced outputs."""
    make_task = workloads.WORKLOADS[workload][0]
    tracer, sink = Tracer(), []
    _, done = closed_loop(make_task, seed, workloads.MEASURE, seconds,
                          layers.traced(tracer, sink), tracer, sink)

    # Overhead: untraced tasks of one stream alternate with traced tasks of
    # a second stream of the same kinds, so drifts in machine speed hit both
    # sides alike and neither hits the other's caches.  Then the first
    # stream runs traced; its outputs must match the untraced ones bit for
    # bit.
    untraced_s = traced_s = 0.0
    untraced_out = []
    sample_tracer, sample_sink = Tracer(), []
    traced_lib = layers.traced(sample_tracer, sample_sink)
    while untraced_s + traced_s < 2.0 * OVERHEAD_SAMPLE_S:
        i = len(untraced_out)
        t, output, _ = run_task(make_task(seed, workloads.OVERHEAD_A, i),
                                plain)
        untraced_s += t
        untraced_out.append(output)
        with sample_tracer.task(i):
            t, _, _ = run_task(make_task(seed, workloads.OVERHEAD_B, i),
                               traced_lib)
        traced_s += t
    k = len(untraced_out)
    sample_sink.clear()
    _, again = closed_loop(make_task, seed, workloads.OVERHEAD_A, 0.0,
                           traced_lib, sample_tracer, sample_sink, count=k)
    mismatched = [i for i, (a, b) in enumerate(zip(untraced_out, again))
                  if repr(a) != repr(b[2])]

    totals = {}
    for name in LAYER_NAMES:
        totals[f"{name}.calls"] = tracer.calls[name]
        totals[f"{name}.self_s"] = tracer.self_s[name]
    for name in FAILS:
        totals[f"{name}.fails"] = tracer.fails[name]
    for key in COUNTERS:
        totals[key] = tracer.counters[key]
    task_s = sum(t for _, t, _, _ in done)
    totals["bench.task_s"] = task_s
    totals["bench.remainder_s"] = tracer.self_s["bench.task"]
    metrics = {k: dict(value=totals[k] / len(done), unit=unit)
               for k, unit in PER_LAYER if k in totals}
    metrics["trace.overhead_pct"] = dict(
        value=100.0 * (traced_s / untraced_s - 1.0), unit="%")

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}-{seed}.jsonl"
    tracer.write(spans_path)
    layer_s = sum(tracer.self_s[n] for n in LAYER_NAMES)
    detail = dict(
        spans_file=str(spans_path.relative_to(ROOT)),
        span_records=len(tracer.records),
        task_s=task_s, layer_self_s=layer_s,
        remainder_s=tracer.self_s["bench.task"],
        unaccounted_s=task_s - layer_s - tracer.self_s["bench.task"],
        overhead_sample=dict(tasks=k, untraced_s=untraced_s,
                             traced_s=traced_s),
        bit_identical=not mismatched, mismatched_tasks=mismatched)
    return done, metrics, detail, not mismatched


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    make_task, probe = workloads.WORKLOADS[args.workload]
    plain = layers.plain()
    detail = dict(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  environment=environment())
    if not args.trace:
        setup_s, detail["setup_runs_s"] = measure_setup()

    # warm numpy and the interpreter on a separate stream of inputs
    closed_loop(make_task, args.seed, workloads.WARMUP, WARMUP_S, plain)

    if args.trace:
        done, metrics, detail["trace"], correct = traced_run(
            args.workload, args.seed, args.seconds, plain)
    else:
        pacer = Pacer()
        wall, done = closed_loop(make_task, args.seed, workloads.MEASURE,
                                 args.seconds, plain, pacer=pacer)
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        timing, detail["tail"] = timing_metrics(pacer.scaled())
        detail["unscaled"] = dict(
            timing_metrics([t for _, t, _, _ in done])[0],
            tasks_per_wall_s=len(done) / wall, **pacer.summary())
        values = dict(timing, peak_rss_mb=peak_rss_mb, setup_s=setup_s)
        metrics = {k: dict(value=values[k], unit=u)
                   for k, u in END_TO_END.items()}
        correct = True
    failed = failures(done)
    detail["kinds"] = kinds(done)
    detail["fail_frac"] = len(failed) / len(done)
    detail["failures"] = failed
    if probe is not None:
        records = probe(args.seed, plain)
        bad = [r for r in records if r["error"]]
        detail["known_defects"] = dict(
            attempted=len(records), failed=len(bad),
            fail_frac=len(bad) / len(records), failures=bad)
    print(json.dumps(detail))
    print(json.dumps(dict(correct=correct and not failed,
                          attempted=len(done), failed=len(failed),
                          metrics=metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
