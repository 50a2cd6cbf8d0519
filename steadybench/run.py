"""Drift-normalized benchmark of the repro monitor compiler.

One closed-loop process per workload drives the program through its
public ``repro.api`` surface, checks every pass's outputs against the
reference interpreter, and prints the metrics as the last stdout line::

    python3 steadybench/run.py --workload paper_fig9 --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (a separate mode: end-to-end figures come only from untraced runs).
Every time-based end-to-end figure is scaled by the calibration kernel
measured around it (see ``calib.py``); the raw figures are printed on a
``raw`` line before the result.

``--steadiness N`` runs the workloads back to back N times, each in its
own process with its own seed, and prints every metric's median,
quartiles and spread, raw and normalized (see NOTES.md).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from multiprocessing import resource_tracker
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import calib  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from layers import FEED_CALL_SITES, Layers  # noqa: E402

perf_counter = time.perf_counter

#: Each calibration brackets a round of passes at least this long.  A
#: busy neighbour flips the host's speed within a second, so rounds are
#: short; but the kernel slows the feed call right after it, so it runs
#: between rounds of several fast passes, not between passes.
ROUND_SECONDS = 0.25
#: Rounds a run makes even when they outlast ``--seconds``.
MIN_ROUNDS = 2
#: Fresh-interpreter set-up measurements per untraced run (after one
#: discarded warm-up that fills the bytecode cache).
SETUP_REPEATS = 5
#: Default/persistent pairs per Fig. 9 monitor, which side runs first
#: alternating.  Over six traced runs the smallest Seen Set / Map Window
#: gap was 1.39x with 3 pairs (NOTES.md, "Checks"); 5 pairs widen it.
SPEEDUP_PAIRS = 5


class BenchError(Exception):
    """The benchmark cannot run here (no program sources, bad args)."""


def import_program():
    init = os.path.join(SRC, "repro", "__init__.py")
    if not os.path.isfile(init):
        raise BenchError(f"program sources not found at {init}")
    sys.path.insert(0, SRC)
    import repro
    import repro.api
    import repro.compiler.pipeline
    import repro.frontend
    import repro.semantics.traceio

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported repro from {repro.__file__}, not {SRC}")
    return repro


# ---------------------------------------------------------------------------
# Correctness accounting
# ---------------------------------------------------------------------------


class Tally:
    """Checked operations: one per unit per pass, plus traced-run checks."""

    def __init__(self, refs: Dict[str, str]) -> None:
        self.refs = refs
        self.attempted = 0
        self.failed = 0

    def check_outputs(self, outputs: Dict[str, Any]) -> None:
        for key, expected in self.refs.items():
            got = outputs.get(key)
            try:
                ok = got is not None and reference.digest(got) == expected
            except (TypeError, ValueError):
                ok = False
            self.check(ok, f"outputs of {key} differ from the reference")

    def fail_all(self) -> None:
        for key in self.refs:
            self.check(False, f"{key} raised")

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {message}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Timed passes
# ---------------------------------------------------------------------------


@dataclass
class Pass:
    events: int
    elapsed: float
    latencies: List[float]
    #: Calibration of the round this pass ran in, and the factor it
    #: gives (``calib.time_scale``).
    calib_ms: float = 0.0
    scale: float = 1.0

    def factor(self, normalized: bool) -> float:
        return self.scale if normalized else 1.0

    def rate(self, normalized: bool) -> float:
        return self.events / (self.elapsed * self.factor(normalized))


def one_pass(workload, repro, tally: Tally, clock: Optional[Layers]) -> Optional[Pass]:
    """Run one pass and check its outputs; ``None`` if it raised."""
    latencies: List[float] = []
    if clock is not None:
        clock.calls = latencies
    start = perf_counter()
    try:
        events = workload.run_pass(repro)
        elapsed = perf_counter() - start
        outputs = workload.outputs()
    except Exception:
        traceback.print_exc()
        tally.fail_all()
        workload.reset()
        return None
    tally.check_outputs(outputs)
    workload.reset()
    return Pass(events, elapsed, latencies)


def timed_round(workload, repro, tally: Tally, clock: Optional[Layers]) -> List[Pass]:
    """Passes for at least ROUND_SECONDS, bracketed by calibrations."""
    before = calib.measure_ms(workload.kernel)
    passes: List[Pass] = []
    tries = 0
    start = perf_counter()
    while tries == 0 or perf_counter() - start < ROUND_SECONDS:
        tries += 1
        result = one_pass(workload, repro, tally, clock)
        if result is not None:
            passes.append(result)
    calib_ms = (before + calib.measure_ms(workload.kernel)) / 2
    scale = calib.time_scale(calib_ms, workload.kernel, workload.elasticity)
    for result in passes:
        result.calib_ms = calib_ms
        result.scale = scale
    return passes


def loop_rounds(seconds: float, step) -> None:
    """Call *step* until *seconds* have passed and MIN_ROUNDS were made."""
    deadline = perf_counter() + seconds
    made = 0
    while made < MIN_ROUNDS or perf_counter() < deadline:
        step()
        made += 1


def quantile(values: List[float], q: int) -> float:
    """The q-th decile (q=5: median) of *values*."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ---------------------------------------------------------------------------


def measure_setup(workload) -> List[Dict[str, float]]:
    """Fresh-interpreter set-up probes, each paired with the set-up
    calibration kernel run right after it."""
    samples = []
    for index in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, workload.name],
            capture_output=True,
            text=True,
            timeout=60,
        )
        if done.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{done.stderr}")
        import_ms = calib.import_kernel_ms()
        if index:
            samples.append({"raw_s": float(done.stdout.split()[-1]), "calib_ms": import_ms})
    return samples


def latency_ms(workload, passes: List[Pass], q: int, normalized: bool) -> float:
    """The q-th decile of feed-call latency in a typical pass: the median
    over passes of each pass's own decile.  Under a busy neighbour the
    slowest tenth of all calls pooled is just the calls a burst hit; per
    pass, a burst moves one pass, and the median over passes drops it.
    Where a pass is one batch job, the deciles are over jobs."""
    if not workload.feed_calls:
        return quantile([p.elapsed * 1e3 * p.factor(normalized) for p in passes], q)
    return statistics.median(
        quantile([lat * 1e3 * p.factor(normalized) for lat in p.latencies], q)
        for p in passes
    )


def end_to_end(workload, passes: List[Pass], setup, normalized: bool) -> Dict[str, float]:
    metrics = {
        "events_per_s": statistics.median(p.rate(normalized) for p in passes),
        "latency_p50_ms": latency_ms(workload, passes, 5, normalized),
        "latency_p90_ms": latency_ms(workload, passes, 9, normalized),
    }
    metrics["setup_s"] = statistics.median(
        s["raw_s"] * (calib.setup_scale(s["calib_ms"]) if normalized else 1.0)
        for s in setup
    )
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics


UNITS = {
    "events_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def run_untraced(repro, workload, tally: Tally, seconds: float, workdir: str):
    setup = measure_setup(workload)
    workload.prepare(repro, workdir)
    clock = Layers(repro, only=FEED_CALL_SITES, calls=[]) if workload.feed_calls else None
    passes: List[Pass] = []
    if clock is not None:
        clock.install()
    try:
        one_pass(workload, repro, tally, clock)  # warm-up, checked
        loop_rounds(seconds, lambda: passes.extend(timed_round(workload, repro, tally, clock)))
    finally:
        if clock is not None:
            clock.remove()
    if not passes:
        raise BenchError("every pass failed")
    metrics = end_to_end(workload, passes, setup, normalized=True)
    raw = end_to_end(workload, passes, setup, normalized=False)
    raw["calib_ms"] = statistics.median(p.calib_ms for p in passes)
    raw["setup_import_ms"] = statistics.median(s["calib_ms"] for s in setup)
    raw["passes"] = len(passes)
    return metrics, raw, passes


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------

PER_LAYER_UNITS = {
    "frontend.parse_ms": "ms",
    "lang.flatten_ms": "ms",
    "analysis.mutability_ms": "ms",
    "analysis.mutable_streams": "count",
    "compiler.compile_cold_ms": "ms",
    "compiler.compile_warm_ms": "ms",
    "compiler.plancache_hits": "count",
    "compiler.feed_busy_ms": "ms",
    "compiler.feed_calls": "count",
    "compiler.finish_ms": "ms",
    "compiler.vector_rows": "count",
    "compiler.vec001_fallbacks": "count",
    "structures.copies_performed": "count",
    "structures.inplace_updates": "count",
    "structures.inplace_speedup.seen_set": "x",
    "structures.inplace_speedup.map_window": "x",
    "structures.inplace_speedup.queue_window": "x",
    "semantics.parse_ms": "ms",
    "semantics.reorder_ms": "ms",
    "semantics.reordered_events": "count",
    "semantics.dropped_events": "count",
    "semantics.format_ms": "ms",
    "compiler.checkpoint_write_ms": "ms",
    "compiler.checkpoint_writes": "count",
    "compiler.checkpoint_bytes": "B",
    "parallel.pack_ms": "ms",
    "parallel.parent_cpu_ms": "ms",
    "parallel.worker_cpu_ms": "ms",
    "parallel.bytes_shared": "B",
    "parallel.bytes_pickled": "B",
    "parallel.retries": "count",
    "parallel.worker_restarts": "count",
    "parallel.quarantined": "count",
    "parallel.worker_peak_rss_mb": "MB",
    "parallel.serial_events_per_s": "1/s",
    "parallel.speedup_vs_serial": "x",
    "obs.trace_overhead_pct": "%",
    "bench.calib_ms": "ms",
}

#: Layer figures of one traced round's cold compile: metric -> (part,
#: key) in a Layers delta.
COMPILE_FIGURES = {
    "frontend.parse_ms": ("ms", "frontend.parse"),
    "lang.flatten_ms": ("ms", "lang.flatten"),
    "analysis.mutability_ms": ("ms", "analysis.mutability"),
    "compiler.compile_cold_ms": ("ms", "compiler.compile"),
}
#: Layer figures of a traced round's passes, reported per pass.
PASS_FIGURES = {
    "compiler.feed_busy_ms": ("ms", "compiler.feed"),
    "compiler.feed_calls": ("counts", "compiler.feed_calls"),
    "compiler.finish_ms": ("ms", "compiler.finish"),
    "compiler.vector_rows": ("counts", "compiler.vector_rows"),
    "semantics.parse_ms": ("ms", "semantics.parse"),
    "semantics.format_ms": ("ms", "semantics.format"),
    "compiler.checkpoint_write_ms": ("ms", "compiler.checkpoint_write"),
    "compiler.checkpoint_writes": ("counts", "compiler.checkpoint_writes"),
    "compiler.checkpoint_bytes": ("counts", "compiler.checkpoint_bytes"),
    "parallel.pack_ms": ("ms", "parallel.pack"),
}


def compile_all(repro, texts, options=None) -> List[Any]:
    return [repro.api.compile(text, options) for text in texts]


def vec001(monitor) -> int:
    return sum(1 for d in monitor.diagnostics() if d.code == "VEC001")


def cpu_seconds(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def run_traced(repro, workload, tally: Tally, seconds: float, workdir: str):
    """Alternate untraced and traced rounds; a traced round cold-compiles
    the workload's specs and runs its passes with every wrapper on."""
    from repro.obs import metrics as obs

    registry = obs.DEFAULT_REGISTRY
    pool_counters = {
        "parallel.bytes_shared": obs.POOL_BYTES_SHARED,
        "parallel.bytes_pickled": obs.POOL_BYTES_PICKLED,
        "parallel.retries": obs.POOL_RETRIES,
        "parallel.worker_restarts": obs.POOL_RESTARTS,
        "parallel.quarantined": obs.POOL_QUARANTINED,
    }
    workload.prepare(repro, workdir)
    layers = Layers(repro)
    plain: List[Pass] = []
    traced: List[Pass] = []
    rounds: List[Dict[str, float]] = []

    def one_round() -> None:
        plain.extend(timed_round(workload, repro, tally, None))
        before = layers.snapshot()
        counters_before = registry.snapshot()["counters"]
        cpu_before = time.process_time()
        kids_before = cpu_seconds(resource.getrusage(resource.RUSAGE_CHILDREN))
        registry.enabled = True
        try:
            with layers:
                monitors = compile_all(repro, workload.spec_texts)
                passes = timed_round(workload, repro, tally, None)
        finally:
            registry.enabled = False
        kids = cpu_seconds(resource.getrusage(resource.RUSAGE_CHILDREN)) - kids_before
        cpu = time.process_time() - cpu_before
        counters = registry.snapshot()["counters"]
        delta = Layers.delta(before, layers.snapshot())
        missing = layers.missing(workload.name, delta)
        tally.check(not missing, f"wrappers never fired in a traced round: {missing}")
        if not passes:
            return
        n = len(passes)
        figures = {m: delta[part].get(key, 0) for m, (part, key) in COMPILE_FIGURES.items()}
        figures.update(
            {m: delta[part].get(key, 0) / n for m, (part, key) in PASS_FIGURES.items()}
        )
        reader_ms = delta["ms"].get("semantics.reader", 0) - delta["ms"].get("semantics.parse", 0)
        figures["semantics.reorder_ms"] = reader_ms / n
        figures["compiler.vec001_fallbacks"] = sum(vec001(m) for m in monitors)
        figures["analysis.mutable_streams"] = sum(len(m.mutable_streams) for m in monitors)
        if isinstance(workload, workloads.PoolMany):
            figures["parallel.parent_cpu_ms"] = cpu * 1e3 / n
            figures["parallel.worker_cpu_ms"] = kids * 1e3 / n
            for metric, counter in pool_counters.items():
                figures[metric] = (counters.get(counter, 0) - counters_before.get(counter, 0)) / n
        if isinstance(workload, workloads.DurableIngest):
            figures["semantics.reordered_events"] = workload.ingest_stats.reordered_events
            figures["semantics.dropped_events"] = workload.ingest_stats.out_of_order_dropped
        rounds.append(figures)
        traced.extend(passes)

    one_pass(workload, repro, tally, None)  # warm-up, checked
    loop_rounds(seconds, one_round)
    if not plain or not traced:
        raise BenchError("every pass failed")

    metrics = {name: 0.0 for name in PER_LAYER_UNITS}
    for name in rounds[0]:
        metrics[name] = statistics.median(r[name] for r in rounds)
    metrics.update(standalone_probes(repro, workload, tally, workdir, plain))
    untraced_s = statistics.median(p.elapsed * p.scale for p in plain)
    traced_s = statistics.median(p.elapsed * p.scale for p in traced)
    metrics["obs.trace_overhead_pct"] = (traced_s / untraced_s - 1.0) * 100.0
    metrics["bench.calib_ms"] = statistics.median(p.calib_ms for p in plain + traced)
    return metrics, plain


def standalone_probes(repro, workload, tally: Tally, workdir: str, plain: List[Pass]):
    """Probes that run after the rounds: warm compile, the copy/in-place
    metrics run, and the workload-specific baselines."""
    api = repro.api
    out: Dict[str, float] = {}

    cache = api.CompileOptions(plan_cache=os.path.join(workdir, "plancache"))
    compile_all(repro, workload.spec_texts, cache)  # fills the cache
    warm = []
    for _ in range(3):
        start = perf_counter()
        monitors = compile_all(repro, workload.spec_texts, cache)
        warm.append((perf_counter() - start) * 1e3)
    out["compiler.compile_warm_ms"] = statistics.median(warm)
    out["compiler.plancache_hits"] = sum(1 for m in monitors if m.plan_cache_hit)

    copies = inplace = 0
    for key, rows in workload.probe_rows().items():
        monitor = workload.monitors[key]
        report = api.run(monitor, rows, api.RunOptions(metrics=True, batch_size=4096))
        streams = report.metrics["streams"].values()
        monitor_copies = sum(stats["copies_performed"] for stats in streams)
        copies += monitor_copies
        inplace += sum(stats["inplace_updates"] for stats in streams)
        if monitor.mutable_streams:
            # Certified in-place aggregates must never be copied.  (A
            # monitor without aggregates still counts its scalar
            # WRITE-slot lifts as copies; that is not an aggregate copy.)
            tally.check(monitor_copies == 0, f"{key} performed {monitor_copies} copies")
    out["structures.copies_performed"] = copies
    out["structures.inplace_updates"] = inplace

    if isinstance(workload, workloads.PaperFig9):
        out.update(inplace_speedups(repro, workload, tally))
    if isinstance(workload, workloads.PoolMany):
        serial = serial_rate(repro, workload)
        pool = statistics.median(p.rate(True) for p in plain)
        out["parallel.serial_events_per_s"] = serial
        out["parallel.speedup_vs_serial"] = pool / serial
        out["parallel.worker_peak_rss_mb"] = worker_peak_rss(workload)
    return out


def inplace_speedups(repro, workload, tally: Tally) -> Dict[str, float]:
    """Persistent pass time over default pass time, per Fig. 9 monitor,
    and the paper's ordering Seen Set > Map Window > Queue Window."""
    api = repro.api
    options = api.RunOptions(batch_size=workload.sizing["batch"])
    persistent = api.CompileOptions(optimize=False)
    speedups = {}
    for key, text in workloads.specs.FIG9.items():
        pair = [("default", workload.monitors[key]), ("persistent", api.compile(text, persistent))]
        ratios = []
        for index in range(SPEEDUP_PAIRS):
            took = {}
            for label, monitor in pair[:: 1 if index % 2 == 0 else -1]:
                start = perf_counter()
                api.run(monitor, workload.rows[key], options)
                took[label] = perf_counter() - start
            ratios.append(took["persistent"] / took["default"])
        speedups[key] = statistics.median(ratios)
    ordered = speedups["seen_set"] > speedups["map_window"] > speedups["queue_window"]
    tally.check(ordered, f"in-place speedups out of the paper's order: {speedups}")
    return {f"structures.inplace_speedup.{k}": v for k, v in speedups.items()}


def serial_rate(repro, workload) -> float:
    """Normalized events/s of the pool's traces run one after another
    in this process with ``api.run``."""
    api = repro.api
    monitor = workload.monitors["seen_set"]
    options = api.RunOptions(batch_size=workload.sizing["batch"])
    rates = []
    for _ in range(3):
        before = calib.measure_ms("scalar")
        start = perf_counter()
        for trace in workload.traces:
            api.run(monitor, trace, options)
        elapsed = perf_counter() - start
        # An in-process Seen Set run, like paper_fig9's.
        scale = calib.time_scale(
            (before + calib.measure_ms("scalar")) / 2,
            "scalar",
            workloads.PaperFig9.elasticity,
        )
        rates.append(sum(map(len, workload.traces)) / (elapsed * scale))
    return statistics.median(rates)


def worker_peak_rss(workload) -> float:
    """Peak RSS of the pool's workers, from a child whose only children
    are those workers."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--pool-rss-probe", "--seed", str(workload.seed)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    if done.returncode != 0:
        raise BenchError(f"pool RSS probe failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


def pool_rss_probe(seed: int) -> None:
    repro = import_program()
    workload = workloads.PoolMany(seed)
    workdir = make_workdir()
    try:
        workload.prepare(repro, workdir)
        workload.run_pass(repro)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)


# ---------------------------------------------------------------------------
# Provenance and entry points
# ---------------------------------------------------------------------------


def provenance(repro, workload, passes: List[Pass]) -> Dict[str, Any]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    result = getattr(workload, "result", None)
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "sizing": workload.sizing,
        "monitors": {
            key: {
                "engine_resolved": m.engine_resolved,
                "vec001": vec001(m),
                "mutable_streams": len(m.mutable_streams),
            }
            for key, m in workload.monitors.items()
        },
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": workloads.nproc(),
        "pool_transport": result.transport if result is not None else "unused",
        "calib_kernel": workload.kernel,
        "calib_elasticity": workload.elasticity,
        "calib_ms": statistics.median(p.calib_ms for p in passes),
        "calib_reference_ms": calib.REFERENCE_MS[workload.kernel],
    }


def make_workdir() -> str:
    path = os.path.join(ROOT, ".steadybench_work", str(os.getpid()))
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def bench(args) -> Dict[str, Any]:
    if args.workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}")
    calib.start(workloads.WORKLOADS[args.workload].kernel)
    try:
        return bench_with_kernel(args)
    finally:
        calib.stop()


def bench_with_kernel(args) -> Dict[str, Any]:
    repro = import_program()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    tally = Tally(reference.load_or_compute(ROOT, SRC, workload))
    workdir = make_workdir()
    try:
        if args.trace:
            metrics, passes = run_traced(repro, workload, tally, args.seconds, workdir)
            units = PER_LAYER_UNITS
        else:
            metrics, raw, passes = run_untraced(repro, workload, tally, args.seconds, workdir)
            units = UNITS
            print("raw " + json.dumps(raw))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("provenance " + json.dumps(provenance(repro, workload, passes)))
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


#: repro makes no BLAS calls, but OpenBLAS starts worker threads at
#: numpy import that spin on the sibling vCPU and slow set-up by ~50 %
#: at random; every process this benchmark starts runs with one.
SINGLE_THREADED_BLAS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def stop_children() -> None:
    """Stop every process this one started and wait until each has ended.

    The pool's shared-memory transport starts multiprocessing's resource
    tracker, a process that outlives its parent by default and ends only
    once it reads end-of-file on its pipe; stop it here and reap it.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_fd", None) is not None:
        tracker._stop()


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return run_main(argv)
    finally:
        stop_children()


def run_main(argv: Optional[List[str]] = None) -> int:
    for var in SINGLE_THREADED_BLAS:
        os.environ[var] = "1"
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="paper_fig9")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="N", default=0)
    parser.add_argument("--pool-rss-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.pool_rss_probe:
            pool_rss_probe(args.seed)
            return 0
        if args.steadiness:
            import steadiness

            steadiness.report(args)
            return 0
        result = bench(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
