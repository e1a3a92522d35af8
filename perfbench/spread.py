"""Run the benchmark over several seeds and report each end-to-end
metric's median and quartile spread (Q3 - Q1 over the median):

    python3 perfbench/spread.py --workloads construct --seeds 101-105
    python3 perfbench/spread.py --seeds 101-110 --baseline

Runs go one after another, from the root of the checkout.  With
``--baseline`` it also makes one traced run per workload at the first
seed and writes everything to ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed, seconds, trace):
    """(detail, result) of one run of the benchmark command."""
    cmd = [*BENCHMARK["command"], "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return dict(median=statistics.median(values), q1=q1, q3=q3,
                spread=(q3 - q1) / statistics.median(values))


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="*",
                    default=[w["name"] for w in BENCHMARK["workloads"]])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-5"))
    ap.add_argument("--seconds", type=float,
                    default=BENCHMARK["run_seconds"])
    ap.add_argument("--baseline", action="store_true")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    report = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            detail, result = run(workload, seed, args.seconds, 0)
            runs.append((detail, result))
            print(workload, seed, json.dumps(
                {k: round(v["value"], 4)
                 for k, v in result["metrics"].items()}),
                "failed", result["failed"], file=sys.stderr, flush=True)
        entry = dict(correct=all(r["correct"] for _, r in runs),
                     attempted=[r["attempted"] for _, r in runs],
                     failed=[r["failed"] for _, r in runs],
                     end_to_end={})
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for _, r in runs]
            stats = summary(values)
            entry["end_to_end"][name] = dict(
                unit=runs[0][1]["metrics"][name]["unit"], **stats)
            flag = "" if stats["spread"] < bound / 3 else "  above bound/3"
            unscaled = ""
            if name in runs[0][0]["unscaled"]:
                raw = summary([d["unscaled"][name] for d, _ in runs])
                entry["end_to_end"][name]["unscaled"] = raw
                unscaled = f"  unscaled spread {raw['spread']:.3f}"
            print(f"{workload:14s} {name:14s} median {stats['median']:10.4f}"
                  f"  spread {stats['spread']:.3f} (bound {bound}){flag}"
                  f"{unscaled}")
        defects = [d["known_defects"] for d, _ in runs
                   if "known_defects" in d]
        if defects:
            entry["known_defects"] = dict(
                attempted=sum(d["attempted"] for d in defects),
                failed=sum(d["failed"] for d in defects))
        report[workload] = entry

    if args.baseline:
        env = runs[0][0]["environment"]
        per_layer = {}
        for workload in args.workloads:
            _, result = run(workload, args.seeds[0], args.seconds, 1)
            per_layer[workload] = {k: v["value"] for k, v in
                                   result["metrics"].items()}
        baseline = dict(
            commit=env["git_sha"], run_seconds=args.seconds,
            seeds=args.seeds, workloads=report,
            environment={k: env[k] for k in ("python", "numpy", "nproc",
                                             "cpu_model", "platform")},
            **{f"per_layer_seed_{args.seeds[0]}": per_layer})
        (HERE / "baseline.json").write_text(
            json.dumps(baseline, indent=1) + "\n")


if __name__ == "__main__":
    main()
