"""Shared-memory trace transport: encoding, equivalence, crash safety.

The acceptance contract for the shm data path is threefold:

* **Encoding fidelity** — ``TraceArena.pack`` / ``attach`` roundtrips
  every trace bit-for-bit: exact Python value types, exact row order,
  duplicates and heterogeneous payloads via the pickled-blob fallback.
* **Equivalence** — a pool run over shm produces byte-identical
  ordered results to the pipe transport and a sequential run, on every
  chaos scenario the pipe transport survives.
* **Zero leaks** — every segment the parent creates is unlinked
  exactly once, across success, kill, hang, poison-quarantine and
  fail-fast abort; SIGKILLed workers must not leave phantom
  resource-tracker registrations behind.

Plus the parse-once satellite: a trace iterable is consumed exactly
once per trace, no matter how many times supervision re-dispatches it.
"""

import os
import subprocess
import sys

import pytest

from repro import api
from repro.compiler import kernels
from repro.compiler.monitor import UNIT_VALUE
from repro.errors import PoolError
from repro.parallel import MonitorPool, TraceArena
from repro.parallel.shm import attach, shm_available
from repro.testing import (
    chaos_pool_run,
    hang_worker,
    kill_worker_after,
    poison_trace,
)

from .util import random_trace, to_events

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="shared_memory unavailable"
)

needs_numpy = pytest.mark.skipif(
    not kernels.numpy_available(), reason="numpy not installed"
)

SEEN_SET_TEXT = """\
in i: Int

def m  := merge(y, set_empty(unit))
def yl := last(m, i)
def y  := set_add(yl, i)
def s  := set_contains(yl, i)

out s
"""

VECTOR_TEXT = """\
in i: Int
def dbl := add(i, i)
out dbl
"""


def make_traces(count, length=40, domain=7):
    return [
        to_events(random_trace(["i"], length, domain, seed))
        for seed in range(count)
    ]


def shm_entries():
    """Current /dev/shm segment names (Linux); None when unsupported."""
    if not os.path.isdir("/dev/shm"):
        return None
    return sorted(os.listdir("/dev/shm"))


def assert_no_new_segments(before):
    after = shm_entries()
    if before is None or after is None:
        return
    leaked = sorted(set(after) - set(before))
    assert not leaked, f"leaked shared-memory segments: {leaked}"


def roundtrip(events, **kwargs):
    arena = TraceArena()
    try:
        descriptor = arena.pack(0, events, **kwargs)
        attached = attach(descriptor)
        try:
            rows = attached.rows()
        finally:
            attached.close()
        return descriptor, rows
    finally:
        arena.close_all()


class TestEncoding:
    @needs_numpy
    def test_columnar_roundtrip_preserves_exact_types(self):
        events = [
            (0, "a", 1),
            (0, "b", True),
            (1, "a", 2),
            (1, "b", False),
            (2, "a", -(2**40)),
            (2, "b", True),
        ]
        descriptor, rows = roundtrip(events)
        assert descriptor.kind == "columnar"
        assert rows == events
        assert [type(v) for _t, _n, v in rows] == [
            int,
            bool,
            int,
            bool,
            int,
            bool,
        ]

    @needs_numpy
    def test_float_and_unit_columns(self):
        events = [(t, "f", t * 0.5) for t in range(5)] + [
            (t, "u", UNIT_VALUE) for t in range(5)
        ]
        events.sort(key=lambda e: e[0])
        descriptor, rows = roundtrip(events)
        assert descriptor.kind == "columnar"
        assert descriptor.dense
        assert rows == events

    @needs_numpy
    def test_sparse_columnar_keeps_row_order(self):
        events = [
            (0, "a", 1),
            (2, "b", 5),
            (3, "a", 2),
            (3, "b", 6),
            (9, "a", 3),
        ]
        descriptor, rows = roundtrip(events)
        assert descriptor.kind == "columnar"
        assert not descriptor.dense
        assert rows == events

    @needs_numpy
    def test_duplicate_ts_stream_falls_back_to_pickle(self):
        # Last-write-wins duplicates cannot live in one column slot
        # without losing a row; the blob keeps them verbatim.
        events = [(0, "a", 1), (0, "a", 2), (1, "a", 3)]
        descriptor, rows = roundtrip(events)
        assert descriptor.kind == "pickle"
        assert rows == events

    @needs_numpy
    def test_heterogeneous_values_fall_back_to_pickle(self):
        events = [(0, "a", 1), (1, "a", "text"), (2, "a", {"k": [1]})]
        descriptor, rows = roundtrip(events)
        assert descriptor.kind == "pickle"
        assert rows == events

    @needs_numpy
    def test_mixed_int_float_column_falls_back(self):
        # 1 and 1.0 compare equal but are different Python objects; a
        # float64 column would silently retype the int.
        descriptor, rows = roundtrip([(0, "a", 1), (1, "a", 1.0)])
        assert descriptor.kind == "pickle"
        assert [type(v) for _t, _n, v in rows] == [int, float]

    @needs_numpy
    def test_unsorted_timestamps_fall_back(self):
        events = [(5, "a", 1), (2, "a", 2)]
        descriptor, rows = roundtrip(events)
        assert descriptor.kind == "pickle"
        assert rows == events

    @needs_numpy
    def test_allow_columnar_false_forces_blob(self):
        events = [(t, "a", t) for t in range(10)]
        descriptor, rows = roundtrip(events, allow_columnar=False)
        assert descriptor.kind == "pickle"
        assert rows == events

    def test_pickle_roundtrip_without_numpy(self, monkeypatch):
        monkeypatch.setattr(kernels, "_np", None)
        events = [(t, "a", t) for t in range(10)]
        descriptor, rows = roundtrip(events)
        assert descriptor.kind == "pickle"
        assert rows == events

    def test_release_is_idempotent_and_unlinks(self):
        before = shm_entries()
        arena = TraceArena()
        arena.pack(0, [(0, "a", 1), (1, "a", 2)])
        assert len(arena) == 1
        arena.release(0)
        arena.release(0)  # idempotent
        assert len(arena) == 0
        arena.close_all()
        assert_no_new_segments(before)


class TestEquivalence:
    @pytest.mark.parametrize("spec", [SEEN_SET_TEXT, VECTOR_TEXT])
    def test_shm_matches_pipe_and_serial(self, spec):
        traces = make_traces(6)
        serial = MonitorPool(spec, jobs=1).run_many(traces)
        before = shm_entries()
        results = {}
        for transport in ("pipe", "shm"):
            pool = MonitorPool(
                spec, jobs=2, transport=transport
            )
            result = pool.run_many(traces)
            assert result.transport == transport
            assert result.failures == 0
            results[transport] = result
        assert_no_new_segments(before)
        assert (
            results["shm"].outputs()
            == results["pipe"].outputs()
            == serial.outputs()
        )

    def test_validated_run_matches_pipe(self):
        # validate_inputs needs original row order for its error
        # reporting: the arena must take the blob path and the results
        # must still match.
        traces = make_traces(4)
        pipe = MonitorPool(
            SEEN_SET_TEXT, jobs=2, transport="pipe"
        ).run_many(traces, validate_inputs=True)
        shm = MonitorPool(
            SEEN_SET_TEXT, jobs=2, transport="shm"
        ).run_many(traces, validate_inputs=True)
        assert shm.outputs() == pipe.outputs()
        assert shm.failures == pipe.failures == 0

    def test_auto_resolves_to_shm_when_available(self):
        pool = MonitorPool(SEEN_SET_TEXT, jobs=2)
        result = pool.run_many(make_traces(2))
        assert result.transport == "shm"

    def test_sequential_is_inline(self):
        pool = MonitorPool(SEEN_SET_TEXT, jobs=1, transport="shm")
        result = pool.run_many(make_traces(2))
        assert result.transport == "inline"

    def test_invalid_transport_rejected(self):
        with pytest.raises(ValueError):
            MonitorPool(SEEN_SET_TEXT, transport="carrier-pigeon")


class TestChaosLeakMatrix:
    """Kill/hang/poison under shm: identical results, zero segments."""

    def test_killed_worker_redispatch_reuses_segment(self):
        traces = make_traces(6)
        baseline = MonitorPool(SEEN_SET_TEXT, jobs=1).run_many(traces)
        before = shm_entries()
        result = chaos_pool_run(
            SEEN_SET_TEXT,
            traces,
            kill_worker_after(2, seed=7),
            transport="shm",
        )
        assert_no_new_segments(before)
        assert result.outputs() == baseline.outputs()
        assert result.failures == 0
        assert result.report.retries >= 1

    def test_hung_worker_redispatch(self):
        traces = make_traces(5)
        baseline = MonitorPool(SEEN_SET_TEXT, jobs=1).run_many(traces)
        before = shm_entries()
        result = chaos_pool_run(
            SEEN_SET_TEXT, traces, hang_worker(1), transport="shm"
        )
        assert_no_new_segments(before)
        assert result.outputs() == baseline.outputs()
        assert result.failures == 0

    def test_poison_quarantine_unlinks(self):
        options = api.CompileOptions(error_policy="propagate")
        traces = make_traces(5)
        before = shm_entries()
        result = chaos_pool_run(
            SEEN_SET_TEXT,
            traces,
            poison_trace(2),
            compile_options=options,
            max_attempts=2,
            transport="shm",
        )
        assert_no_new_segments(before)
        assert result.failures == 1
        assert result.results[2].quarantined

    def test_fail_fast_abort_unlinks(self):
        traces = make_traces(5)
        before = shm_entries()
        with pytest.raises(PoolError):
            chaos_pool_run(
                SEEN_SET_TEXT,
                traces,
                poison_trace(1),
                max_attempts=2,
                transport="shm",
            )
        assert_no_new_segments(before)

    def test_no_resource_tracker_leak_warnings(self, tmp_path):
        # SIGKILLed workers never unwind; if their attach had registered
        # the segment, the resource tracker would warn about "leaked
        # shared_memory objects" at interpreter exit.  Run a kill-chaos
        # pool in a subprocess and fail on any such warning.
        script = tmp_path / "chaos.py"
        script.write_text(
            "from repro.testing import chaos_pool_run, kill_worker_after\n"
            "from tests.parallel.test_shm_transport import (\n"
            "    SEEN_SET_TEXT, make_traces)\n"
            "traces = make_traces(6)\n"
            "result = chaos_pool_run(\n"
            "    SEEN_SET_TEXT, traces, kill_worker_after(2, seed=7),\n"
            "    transport='shm')\n"
            "assert result.failures == 0\n"
            "assert result.report.retries >= 1\n"
            "print('done')\n"
        )
        repo_root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(repo_root, "src"), repo_root]
        )
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
            cwd=repo_root,
        )
        assert proc.returncode == 0, proc.stderr
        assert "done" in proc.stdout
        assert "leaked shared_memory" not in proc.stderr, proc.stderr
        assert "resource_tracker" not in proc.stderr, proc.stderr


class _OneShotTrace:
    """An iterable that counts (and permits) a single materialization."""

    def __init__(self, events):
        self.events = list(events)
        self.iterations = 0

    def __iter__(self):
        self.iterations += 1
        return iter(list(self.events))


class TestParseOnce:
    @pytest.mark.parametrize("transport", ["pipe", "shm"])
    def test_retries_do_not_reiterate_traces(self, transport):
        # Supervision re-dispatches trace 2 after a worker kill; the
        # parent must resend the packed payload, never re-pull the
        # source iterable.
        raw = make_traces(5)
        traces = [_OneShotTrace(events) for events in raw]
        baseline = MonitorPool(SEEN_SET_TEXT, jobs=1).run_many(raw)
        result = chaos_pool_run(
            SEEN_SET_TEXT,
            traces,
            kill_worker_after(2, seed=7),
            transport=transport,
        )
        assert result.outputs() == baseline.outputs()
        assert result.report.retries >= 1
        assert [t.iterations for t in traces] == [1] * len(traces)
