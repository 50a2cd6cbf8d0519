"""The generated monitor — the one scalar engine — on every shipped spec.

``engine="codegen"`` is the paper's §III compiler output and the only
scalar execution path, so every specification of :mod:`repro.speclib`
runs on it against the reference interpreter, and through every surface
of the monitor protocol: per-event ``push``, ``feed_batch`` at several
batch sizes, ``snapshot``/``restore`` mid-trace (with a timestamp still
pending), the durable checkpoint codec, and a simulated crash followed
by a resume.  Whatever ``engine="auto"`` resolves to must agree too.
"""

import random

import pytest

from repro import api
from repro.compiler import build_compiled_spec, freeze
from repro.compiler.checkpoint import decode_state, encode_state
from repro.lang import check_types, flatten
from repro.speclib import (
    db_access_constraint,
    db_time_constraint,
    fig1_spec,
    fig4_lower_spec,
    fig4_upper_spec,
    map_window,
    peak_detection,
    queue_window,
    running_aggregate,
    seen_set,
    session_window,
    sliding_window,
    spectrum_calculation,
    tumbling_window,
    vector_window,
    watchdog,
)
from repro.testing import crash_and_resume, reference_outputs

#: ``(id, factory, end_time)`` — ``end_time`` bounds ``delay`` streams
#: after the last input event.
SPECS = [
    ("fig1", fig1_spec, None),
    ("fig4_upper", fig4_upper_spec, None),
    ("fig4_lower", fig4_lower_spec, None),
    ("seen_set", seen_set, None),
    ("map_window", lambda: map_window(3), None),
    ("queue_window", lambda: queue_window(3), None),
    ("vector_window", lambda: vector_window(3), None),
    ("db_access", db_access_constraint, None),
    ("db_time", db_time_constraint, None),
    ("watchdog", lambda: watchdog(4), 1000),
    ("peaks", lambda: peak_detection(window=5), None),
    ("spectrum", spectrum_calculation, None),
    ("tumbling_sum", lambda: tumbling_window("sum", 4), None),
    ("sliding_avg", lambda: sliding_window("avg", 4), None),
    ("session_max", lambda: session_window("max", 3), None),
    ("running_sum", lambda: running_aggregate("sum"), None),
    ("running_max", lambda: running_aggregate("max"), None),
]

spec_params = pytest.mark.parametrize(
    "factory,end_time",
    [(factory, end_time) for _, factory, end_time in SPECS],
    ids=[name for name, _, _ in SPECS],
)


def typed_flat(factory):
    flat = flatten(factory())
    check_types(flat)
    return flat


def random_events(flat, length, seed):
    """A timestamp-sorted ``(ts, stream, value)`` trace over *flat*'s
    inputs; several inputs may share a timestamp, and occasional long
    gaps close sessions and fire watchdogs."""
    rng = random.Random(seed)
    names = list(flat.inputs)
    events, seen, t = [], set(), 1
    for _ in range(length):
        name = rng.choice(names)
        if (t, name) not in seen:
            seen.add((t, name))
            if str(flat.types[name]) == "Float":
                value = round(rng.uniform(-50, 100), 2)
            else:
                value = rng.randrange(-4, 9)
            events.append((t, name, value))
        t += rng.choice((0, 1, 1, 2, 6))
    return events


def reference(flat, events, end_time):
    inputs = {name: [] for name in flat.inputs}
    for ts, name, value in events:
        inputs[name].append((ts, value))
    return reference_outputs(flat, inputs, end_time)


def by_stream(collected, outputs):
    traces = {name: [] for name in outputs}
    for name, ts, value in collected:
        traces[name].append((ts, value))
    return traces


def new_monitor(compiled, collected):
    return compiled.new_monitor(
        lambda n, t, v: collected.append((n, t, freeze(v)))
    )


def run_push(compiled, events, end_time):
    collected = []
    monitor = new_monitor(compiled, collected)
    for ts, name, value in events:
        monitor.push(name, ts, value)
    monitor.finish(end_time=end_time)
    return collected


def run_resumed(compiled, events, end_time, split, codec):
    """Outputs of a monitor abandoned unflushed after *split* events
    and continued by a fresh one restored from its snapshot."""
    collected = []
    first = new_monitor(compiled, collected)
    for ts, name, value in events[:split]:
        first.push(name, ts, value)
    state = first.snapshot()
    if codec:
        state = decode_state(encode_state(state))
    second = new_monitor(compiled, collected)
    second.restore(state)
    for ts, name, value in events[split:]:
        second.push(name, ts, value)
    second.finish(end_time=end_time)
    return collected


class TestMatchesReference:
    @spec_params
    @pytest.mark.parametrize("seed", range(3))
    def test_push_matches_reference(self, factory, end_time, seed):
        flat = typed_flat(factory)
        events = random_events(flat, 100, seed)
        compiled = build_compiled_spec(factory(), engine="codegen")
        got = by_stream(run_push(compiled, events, end_time), flat.outputs)
        assert got == reference(flat, events, end_time)

    @spec_params
    def test_auto_matches_reference(self, factory, end_time):
        flat = typed_flat(factory)
        events = random_events(flat, 100, seed=7)
        monitor = api.compile(factory())
        assert monitor.engine_resolved in ("codegen", "vector")
        collected = []
        api.run(
            monitor,
            events,
            api.RunOptions(batch_size=16, end_time=end_time),
            on_output=lambda n, t, v: collected.append((n, t, freeze(v))),
        )
        assert by_stream(collected, flat.outputs) == reference(
            flat, events, end_time
        )


class TestBatchProtocol:
    @spec_params
    @pytest.mark.parametrize("size", [1, 5, 64])
    def test_batches_match_push(self, factory, end_time, size):
        flat = typed_flat(factory)
        events = random_events(flat, 100, seed=size)
        compiled = build_compiled_spec(factory(), engine="codegen")
        collected = []
        monitor = new_monitor(compiled, collected)
        for start in range(0, len(events), size):
            monitor.feed_batch(events[start : start + size])
        monitor.finish(end_time=end_time)
        assert collected == run_push(compiled, events, end_time)


class TestStatefulness:
    @spec_params
    @pytest.mark.parametrize("codec", [False, True], ids=["live", "codec"])
    def test_snapshot_restore_mid_trace(self, factory, end_time, codec):
        # The first monitor is abandoned unflushed: its pending
        # timestamp lives on in the snapshot (through the durable
        # checkpoint codec, too) and is emitted by the restored one.
        flat = typed_flat(factory)
        events = random_events(flat, 80, seed=3)
        compiled = build_compiled_spec(factory(), engine="codegen")
        expected = run_push(compiled, events, end_time)
        assert run_resumed(
            compiled, events, end_time, len(events) // 2, codec
        ) == expected

    @spec_params
    def test_crash_and_resume(self, factory, end_time, tmp_path):
        flat = typed_flat(factory)
        events = random_events(flat, 60, seed=9)
        compiled = build_compiled_spec(factory(), engine="codegen")
        expected, recovered = crash_and_resume(
            compiled,
            events,
            crash_after=len(events) // 2,
            checkpoint_dir=str(tmp_path),
            end_time=end_time,
        )
        assert recovered == expected
