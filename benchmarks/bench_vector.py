"""Bench-vector: columnar engine throughput vs generated code.

Measures run-only events/sec (compile excluded, monitors built once
outside the timed region) for the generated codegen monitor's batch
path — the fastest scalar path — against the vector engine's two
ingestion paths — row batches (``feed_batch``) and columnar handoff
(``feed_columns``) — on the paper's Fig. 9 synthetic trace and the
Fig. 10 trace-length scaling sweep.

Honesty note, recorded in the JSON as well: the paper's Fig. 9/10
*monitor* is the Seen Set, whose set-typed streams have no columnar
lowering — ``engine="auto"`` runs it on generated code (measured here
as ``seen_set_auto``, ~1.0x by construction).  The columnar speedup is
therefore measured on a fully columnar scalar alert chain driven by the
*same* Fig. 9/10 synthetic traces, which is the workload shape the
vector engine exists for.  The gate applies to the columnar-ingestion
headline and is enforced only when numpy is importable
(``threshold_enforced``).

Usage::

    PYTHONPATH=src python benchmarks/bench_vector.py [--out BENCH_vector.json]
"""

import argparse
import gc
import json
import platform
import sys
import time

from repro import api
from repro.bench.meta import bench_metadata
from repro.compiler.kernels import numpy_available
from repro.workloads import seen_set_trace

# Vector-eligible scalar alert chain over the Fig. 9/10 traces: a
# last/sub feed-forward chain with a sparse filtered alert output.
# seen_set_trace(length, size=200) draws values from [0, 400).
SCALAR_ALERT_TEXT = """\
in i: Int

def prev  := last(i, i)
def diff  := sub(i, prev)
def s     := add(diff, i)
def spike := filter(s, gt(s, 700))

out spike
"""

SET_SIZE = 200
FIG9_EVENTS = 50_000
FIG10_LENGTHS = (5_000, 20_000, 50_000)
BATCH_SIZE = 4_096
REPEATS = 5
THRESHOLD = 1.5


def _trace(length):
    events = seen_set_trace(length, SET_SIZE)["i"]
    rows = [(ts, "i", value) for ts, value in events]
    ts_column = [ts for ts, _value in events]
    value_column = [value for _ts, value in events]
    return rows, ts_column, value_column


def _best(fn, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure_pair(spec_text, length):
    """codegen feed_batch vs vector feed_batch / feed_columns, run-only."""
    rows, ts_column, value_column = _trace(length)
    sink = lambda name, ts, value: None  # noqa: E731
    run_opts = api.RunOptions(batch_size=BATCH_SIZE)
    codegen = api.compile(spec_text, api.CompileOptions(engine="codegen"))
    vector = api.compile(spec_text, api.CompileOptions(engine="vector"))
    assert vector.engine_resolved == "vector"

    columns = {"i": value_column}
    timings = {
        "codegen_feed_batch": _best(
            lambda: api.run(codegen, rows, run_opts, on_output=sink)
        ),
        "vector_feed_batch": _best(
            lambda: api.run(vector, rows, run_opts, on_output=sink)
        ),
        "vector_feed_columns": _best(
            lambda: vector.feed_columns(ts_column, columns, on_output=sink)
        ),
    }
    result = {
        "events": length,
        "events_per_sec": {
            label: round(length / seconds)
            for label, seconds in timings.items()
        },
        "speedup_feed_batch": round(
            timings["codegen_feed_batch"] / timings["vector_feed_batch"], 2
        ),
        "speedup_feed_columns": round(
            timings["codegen_feed_batch"] / timings["vector_feed_columns"], 2
        ),
    }
    return result


def measure_seen_set_auto(length=10_000):
    """The paper's own monitor: not columnar, so auto runs it on
    generated code — the same class as an explicit codegen compile."""
    from repro.speclib import seen_set

    inputs = seen_set_trace(length, SET_SIZE)
    rows = sorted(
        (ts, name, value)
        for name, trace in inputs.items()
        for ts, value in trace
    )
    sink = lambda name, ts, value: None  # noqa: E731
    run_opts = api.RunOptions(batch_size=BATCH_SIZE)
    codegen = api.compile(seen_set(), api.CompileOptions(engine="codegen"))
    auto = api.compile(seen_set(), api.CompileOptions(engine="auto"))
    assert auto.engine_resolved == "codegen"
    codegen_s = _best(
        lambda: api.run(codegen, rows, run_opts, on_output=sink), 3
    )
    auto_s = _best(lambda: api.run(auto, rows, run_opts, on_output=sink), 3)
    return {
        "events": length,
        "engine_resolved": auto.engine_resolved,
        "diagnostics": sorted({d.code for d in auto.diagnostics()}),
        "codegen_events_per_sec": round(length / codegen_s),
        "auto_events_per_sec": round(length / auto_s),
        "speedup": round(codegen_s / auto_s, 2),
        "note": "set-typed streams have no columnar lowering; auto"
        " resolves to generated code, so ~1.0x here is correct"
        " behavior, not a regression",
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default="BENCH_vector.json", help="output JSON path"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=THRESHOLD,
        help="minimum columnar-ingestion speedup vs generated code",
    )
    args = parser.parse_args(argv)

    enforced = numpy_available()
    result = {
        "benchmark": "vector-engine",
        "meta": bench_metadata(),
        "python": platform.python_version(),
        "spec": "scalar alert chain (last/sub/add/gt/filter)",
        "workload": "Fig. 9 synthetic trace + Fig. 10 length sweep"
        " (seen_set_trace, set size 200)",
        "substitution_note": "the paper's Seen Set monitor itself is"
        " not columnar (set-typed) and measured separately as"
        " seen_set_auto; the speedup target applies to the fully"
        " columnar scalar chain on the same traces",
        "baseline": "codegen feed_batch (the fastest scalar path)",
        "batch_size": BATCH_SIZE,
        "repeats": REPEATS,
        "timing": "run-only, best of N (compile excluded; monitors"
        " built once outside the timed region)",
        "threshold": args.threshold,
        "threshold_enforced": enforced,
    }
    if not enforced:
        result["skipped"] = "numpy not importable; vector engine absent"
        with open(args.out, "w") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(json.dumps(result, indent=2, sort_keys=True))
        print("ok: numpy absent, threshold not enforced")
        return 0

    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        fig9 = measure_pair(SCALAR_ALERT_TEXT, FIG9_EVENTS)
        fig10 = {
            str(length): measure_pair(SCALAR_ALERT_TEXT, length)
            for length in FIG10_LENGTHS
        }
        seen_set_auto = measure_seen_set_auto()
    finally:
        if gc_was_enabled:
            gc.enable()

    headline = fig9["speedup_feed_columns"]
    result.update(
        {
            "fig9": fig9,
            "fig10_scaling": fig10,
            "seen_set_auto": seen_set_auto,
            "headline_speedup_columnar": headline,
        }
    )
    with open(args.out, "w") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(result, indent=2, sort_keys=True))

    if headline < args.threshold:
        print(
            f"FAIL: columnar ingestion is {headline:.2f}x generated"
            f" code, below the {args.threshold:.1f}x threshold",
            file=sys.stderr,
        )
        return 1
    print(f"ok: columnar ingestion is {headline:.2f}x generated code")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
