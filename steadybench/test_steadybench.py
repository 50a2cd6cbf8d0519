"""Self-tests of the benchmark's own checks.

    python3 -m pytest steadybench/test_steadybench.py -q
"""

import multiprocessing
import os

import pytest

import calib
import reference
import run
import workloads
from layers import FEED_CALL_SITES, REQUIRED, Layers

SMALL = {
    "paper_fig9": {"events": 300, "size": 20},
    "columnar_alerts": {"calls": 2, "rows": 500},
    "durable_ingest": {"events": 400, "every": 64, "batch": 32},
    "pool_many": {"traces": 2, "events": 200, "size": 20},
}


@pytest.fixture(scope="module")
def repro():
    return run.import_program()


@pytest.mark.parametrize("name", ["paper_fig9", "durable_ingest"])
def test_corrupted_digest_is_counted_as_failed(repro, name, tmp_path):
    workload = workloads.WORKLOADS[name](5, **SMALL[name])
    refs = reference.compute(workload)
    workload.prepare(repro, str(tmp_path))

    tally = run.Tally(refs)
    assert run.one_pass(workload, repro, tally, None) is not None
    assert (tally.attempted, tally.failed) == (len(refs), 0)

    key = next(iter(refs))
    corrupted = run.Tally({**refs, key: "0" * 64})
    run.one_pass(workload, repro, corrupted, None)
    assert (corrupted.attempted, corrupted.failed) == (len(refs), 1)


def test_exception_in_a_pass_fails_every_unit(repro, tmp_path):
    workload = workloads.PaperFig9(5, **SMALL["paper_fig9"])
    refs = reference.compute(workload)
    workload.prepare(repro, str(tmp_path))
    workload.rows["seen_set"] = [(2, "i", 1), (1, "i", 1)]  # unsorted: raises
    tally = run.Tally(refs)
    assert run.one_pass(workload, repro, tally, None) is None
    assert (tally.attempted, tally.failed) == (len(refs), len(refs))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_determines_inputs(name):
    cls = workloads.WORKLOADS[name]
    first = cls(1, **SMALL[name]).units()
    assert first == cls(1, **SMALL[name]).units()
    assert first != cls(2, **SMALL[name]).units()


def test_jittered_text_is_repaired_by_the_skew_bound():
    rows = workloads.inputs.db_access_rows(3, 500)
    lines = workloads.inputs.jittered_text(rows, 8, 3)
    arrival = [int(line.split(":")[0]) for line in lines]
    assert arrival != sorted(arrival)
    newest = 0
    for ts in arrival:
        assert ts >= newest - 8
        newest = max(newest, ts)


def test_digest_ignores_emission_order_but_not_values():
    a = [("o", 1, True), ("p", 1, 2)]
    assert reference.digest(a) == reference.digest(list(reversed(a)))
    assert reference.digest(a) != reference.digest([("o", 1, 1), ("p", 1, 2)])


def test_unfired_wrapper_is_reported(repro):
    layers = Layers(repro)
    before = layers.snapshot()
    with layers:
        repro.api.compile(workloads.specs.SEEN_SET)
    delta = Layers.delta(before, layers.snapshot())
    missing = layers.missing("paper_fig9", delta)
    assert missing == ["MonitorRunner.feed_batch", "MonitorRunner.finish"]
    assert set(REQUIRED) == set(workloads.WORKLOADS)


def test_digest_cache_key_covers_the_oracle(tmp_path):
    src = tmp_path / "src"
    (src / "repro" / "semantics").mkdir(parents=True)
    oracle = src / "repro" / "semantics" / "interpreter.py"
    oracle.write_text("ORACLE = 1\n")
    workload = workloads.PaperFig9(5, **SMALL["paper_fig9"])
    before = reference.cache_key(str(src), workload)
    oracle.write_text("ORACLE = 2\n")
    assert reference.cache_key(str(src), workload) != before


def test_feed_call_latency_covers_whole_feed_columns_calls(repro, tmp_path):
    workload = workloads.ColumnarAlerts(5, **SMALL["columnar_alerts"])
    workload.prepare(repro, str(tmp_path))
    clock = Layers(repro, only=FEED_CALL_SITES, calls=[])
    with clock:
        result = run.one_pass(workload, repro, run.Tally({}), clock)
    assert len(result.latencies) == SMALL["columnar_alerts"]["calls"]
    assert clock.ms["api.feed_columns"] > 0
    assert clock.fired["Monitor.feed_columns"] == SMALL["columnar_alerts"]["calls"]


def test_parallel_kernel_helpers_run_and_stop():
    calib.start("parallel")
    try:
        helpers = multiprocessing.active_children()
        assert len(helpers) == workloads.nproc()
        assert calib.measure_ms("parallel") > 0
    finally:
        calib.stop()
    assert not any(p.is_alive() for p in helpers)


def test_stop_children_ends_the_shared_memory_tracker():
    from multiprocessing import resource_tracker, shared_memory

    segment = shared_memory.SharedMemory(create=True, size=64)
    segment.close()
    segment.unlink()
    tracker = resource_tracker._resource_tracker
    pid = tracker._pid
    assert pid is not None
    run.stop_children()
    assert tracker._fd is None
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)
