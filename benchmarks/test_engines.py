"""Execution-engine comparison: generated code per-event vs batched,
and generated code vs the columnar vector engine on a fully columnar
spec.

Both engines use the identical analysis results and the same generated
class; the differences are the per-event ``push`` protocol vs the
amortized ``feed_batch`` hot path, and straight-line per-timestamp code
vs whole-column numpy kernels.
"""

import pytest

from repro.frontend import parse_spec
from repro.speclib import seen_set
from repro.workloads import seen_set_trace

from conftest import make_runner

ALERT_CHAIN = """
in i: Int
def prev  := last(i, i)
def diff  := sub(i, prev)
def s     := add(diff, i)
def spike := filter(s, gt(s, 700))
out spike
"""


@pytest.mark.parametrize("optimize", [True, False], ids=["opt", "nonopt"])
def test_engines(benchmark, optimize):
    inputs = seen_set_trace(3_000, 200)
    run = make_runner(seen_set(), inputs, optimize=optimize, engine="codegen")
    benchmark.group = f"engines seen_set/{'opt' if optimize else 'nonopt'}"
    benchmark(run)


@pytest.mark.parametrize(
    "batch_size", [None, 256, 4096], ids=["push", "batch256", "batch4k"]
)
def test_engines_batched(benchmark, batch_size):
    inputs = seen_set_trace(3_000, 200)
    run = make_runner(
        seen_set(), inputs, batch_size=batch_size, engine="codegen"
    )
    benchmark.group = "engines seen_set/batching"
    benchmark(run)


@pytest.mark.parametrize("engine", ["codegen", "vector"])
def test_engines_columnar(benchmark, engine):
    pytest.importorskip("numpy")
    inputs = seen_set_trace(3_000, 200)
    run = make_runner(
        parse_spec(ALERT_CHAIN), inputs, batch_size=4096, engine=engine
    )
    benchmark.group = "engines alert_chain/batch4k"
    benchmark(run)
