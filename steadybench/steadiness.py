"""Steadiness report: one commit's workloads back to back, N times.

Each run is its own process with its own seed, exactly as a benchmark
driver would start it.  For every end-to-end metric the report prints
the median, the quartiles and the spread (interquartile range over the
median, as ``statistics.quantiles(values, n=4)`` gives the quartiles),
for the drift-normalized value and for the raw one beside it.  The
bounds in BENCHMARK.json come from this report (see NOTES.md).

    python3 steadybench/run.py --steadiness 10 --seconds 15
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def spread(values: List[float]) -> Dict[str, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def one_run(workload: str, seed: int, seconds: float) -> Dict:
    done = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            "0",
        ],
        capture_output=True,
        text=True,
        timeout=600,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    raw = json.loads(next(l for l in lines if l.startswith("raw "))[4:])
    result = json.loads(lines[-1])
    return {"raw": raw, "result": result}


def report(args) -> None:
    names = list(workloads.WORKLOADS)
    runs: Dict[str, List[Dict]] = {name: [] for name in names}
    for rep in range(args.steadiness):
        for name in names:
            run = one_run(name, args.seed + rep, args.seconds)
            runs[name].append(run)
            result = run["result"]
            metrics = result["metrics"]
            print(
                f"# {name} seed {args.seed + rep}: correct={result['correct']}"
                f" attempted={result['attempted']} failed={result['failed']}"
                f" events_per_s={metrics['events_per_s']['value']:.5g}"
                f" (raw {run['raw']['events_per_s']:.5g})"
                f" p90={metrics['latency_p90_ms']['value']:.4g}"
                f" (raw {run['raw']['latency_p90_ms']:.4g})"
                f" calib_ms={run['raw']['calib_ms']:.3f}",
                flush=True,
            )
    summary = {}
    print(f"{'workload':16} {'metric':15} {'norm median':>12} {'q1':>12} {'q3':>12}"
          f" {'spread':>7} {'raw median':>12} {'raw spread':>10}")
    for name in names:
        summary[name] = {}
        for metric in runs[name][0]["result"]["metrics"]:
            norm = spread([r["result"]["metrics"][metric]["value"] for r in runs[name]])
            raw = spread([r["raw"][metric] for r in runs[name]])
            summary[name][metric] = {"normalized": norm, "raw": raw}
            print(
                f"{name:16} {metric:15} {norm['median']:12.5g} {norm['q1']:12.5g}"
                f" {norm['q3']:12.5g} {norm['spread']:7.2%} {raw['median']:12.5g}"
                f" {raw['spread']:10.2%}"
            )
    print(json.dumps({"summary": summary, "runs": runs}))
