"""Differential: the worker pool ≡ one monitor per trace.

``run_many``'s contract is *byte identity*: for any spec and any batch
of traces, each trace's outputs (names, timestamps, values, and their
order) match one monitor run over that trace alone through
:func:`repro.api.run` — whichever path runs it: the in-process loop
(``jobs=1``) or forked workers fed over shared memory (``auto``) or
over the pipe.  Checked on every paper-figure spec and on composed
multi-family specifications, at several batch sizes, with ``delay``
streams firing past the last event, and on empty traces.
"""

import random

import pytest

from repro import api
from repro.speclib import (
    db_access_constraint,
    db_time_constraint,
    map_window,
    peak_detection,
    queue_window,
    seen_set,
    spectrum_calculation,
    watchdog,
)
from repro.testing import reference_outputs

from .util import collect, composed, family, random_trace, to_events

#: The pool's execution paths, keyed by test id.
PATHS = {
    "sequential": {"jobs": 1},
    "process": {"jobs": 2},
    "pipe": {"jobs": 2, "pool_transport": "pipe"},
}

PAPER_FIGURES = {
    "seen_set": (seen_set, lambda seed: random_trace(["i"], 80, 6, seed)),
    "map_window": (
        lambda: map_window(3),
        lambda seed: random_trace(["i"], 60, 100, seed),
    ),
    "queue_window": (
        lambda: queue_window(3),
        lambda seed: random_trace(["i"], 60, 100, seed),
    ),
    "db_time_constraint": (
        db_time_constraint,
        lambda seed: random_trace(["db2", "db3"], 70, 12, seed),
    ),
    "db_access_constraint": (
        db_access_constraint,
        lambda seed: random_trace(["ins", "del_", "acc"], 80, 10, seed),
    ),
    "peak_detection": (
        lambda: peak_detection(window=5),
        lambda seed: {
            "x": [
                (t, round(random.Random(seed * 100 + t).uniform(0, 100), 3))
                for t in range(1, 70)
            ]
        },
    ),
    "spectrum_calculation": (
        spectrum_calculation,
        lambda seed: {
            "x": [
                (t, round(random.Random(seed * 100 + t).uniform(0, 9000), 2))
                for t in range(1, 60)
            ]
        },
    ),
}


def pooled(monitor, traces, path, **options):
    result = api.run_many(
        monitor, traces, api.RunOptions(**PATHS[path], **options)
    )
    assert result.failures == 0
    assert result.backend == ("sequential" if path == "sequential" else
                              "process")
    return result


def three_families():
    return composed(
        family("s_", seen_set, {"i": "i1"}),
        family("q_", lambda: queue_window(3), {"i": "i2"}),
        family("m_", lambda: map_window(4), {"i": "i3"}),
    )


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("name", sorted(PAPER_FIGURES))
def test_paper_figures_byte_identical(name, path):
    factory, tracegen = PAPER_FIGURES[name]
    traces = [to_events(tracegen(seed)) for seed in (3, 4, 5)]
    monitor = api.compile(factory())
    base = [collect(monitor, events) for events in traces]
    assert any(base)  # the workload must actually produce output
    assert pooled(monitor, traces, path).outputs() == base


@pytest.mark.parametrize("batch_size", [1, 7, 4096])
@pytest.mark.parametrize("path", sorted(PATHS))
def test_composed_families_byte_identical(path, batch_size):
    traces = [
        to_events(random_trace(["i1", "i2", "i3"], 150, 9, seed))
        for seed in (5, 6)
    ]
    monitor = api.compile(three_families())
    base = [collect(monitor, events) for events in traces]
    assert all(base)
    result = pooled(monitor, traces, path, batch_size=batch_size)
    assert result.outputs() == base


def test_composed_monitor_matches_reference():
    # The per-trace baseline above is itself the one generated monitor;
    # pin it to the reference interpreter on the composed spec.
    spec = three_families()
    traces = random_trace(["i1", "i2", "i3"], 150, 9, seed=5)
    out = collect(api.compile(spec), to_events(traces))
    by_stream = {}
    for name, ts, value in out:
        by_stream.setdefault(name, []).append((ts, value))
    expected = reference_outputs(spec, traces)
    assert by_stream == {
        name: events for name, events in expected.items() if events
    }


@pytest.mark.parametrize("path", sorted(PATHS))
def test_composed_with_delays_byte_identical(path):
    # The watchdog family fires delay timestamps between input events
    # and after the last one, up to ``end_time``.
    spec = composed(
        family("w_", lambda: watchdog(timeout=4)),  # input: hb
        family("s_", seen_set, {"i": "hb"}),
    )
    traces = [
        to_events(random_trace(["hb"], 60, 5, seed)) for seed in (2, 3)
    ]
    monitor = api.compile(spec)
    options = api.RunOptions(end_time=300)
    base = [collect(monitor, events, options) for events in traces]
    assert all(any(n.startswith("w_") for n, _, _ in out) for out in base)
    result = pooled(monitor, traces, path, end_time=300)
    assert result.outputs() == base


def test_shared_input_families_byte_identical():
    spec = composed(family("a_", seen_set), family("b_", seen_set))
    traces = [to_events(random_trace(["i"], 100, 6, seed)) for seed in (1, 2)]
    monitor = api.compile(spec)
    base = [collect(monitor, events) for events in traces]
    assert pooled(monitor, traces, "process").outputs() == base


def test_empty_traces_and_validation_counters():
    spec = composed(
        family("a_", seen_set, {"i": "ia"}),
        family("b_", seen_set, {"i": "ib"}),
    )
    monitor = api.compile(spec)
    traces = [
        [],
        to_events(random_trace(["ia", "ib"], 40, 5, seed=0)),
        [],
        to_events(random_trace(["ia", "ib"], 25, 5, seed=1)),
    ]
    result = pooled(monitor, traces, "process", validate_inputs=True)
    assert result.outputs() == [collect(monitor, events) for events in traces]
    assert result.outputs()[0] == result.outputs()[2] == []
    assert result.report.events_in == sum(len(t) for t in traces)
    assert result.report.events_out == sum(len(o) for o in result.outputs())
