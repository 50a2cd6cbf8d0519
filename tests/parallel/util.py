"""Shared helpers for the worker-pool tests."""

from __future__ import annotations

import random

from repro import api
from repro.compiler.monitor import freeze
from repro.lang.compose import compose, rename, substitute_inputs


def random_trace(names, length, domain, seed, start=1):
    """The differential-test trace idiom: random stream, random gaps."""
    rng = random.Random(seed)
    traces = {name: [] for name in names}
    t = start
    for _ in range(length):
        name = rng.choice(names)
        traces[name].append((t, rng.randrange(domain)))
        t += rng.randint(1, 3)
    return traces


def to_events(traces):
    """Merge per-stream traces into one timestamp-sorted event list."""
    events = [
        (ts, name, value)
        for name, stream in traces.items()
        for ts, value in stream
    ]
    events.sort(key=lambda event: event[0])
    return events


def family(prefix, factory, input_map=None):
    """A namespaced copy of a speclib property, optionally rewired."""
    spec = rename(factory(), prefix)
    if input_map:
        spec = substitute_inputs(spec, input_map)
    return spec


def composed(*parts):
    return compose(*parts)


def collect(monitor, events, options=None):
    """Run through the api facade; outputs as [(name, ts, frozen)]."""
    out = []
    api.run(
        monitor,
        events,
        options or api.RunOptions(),
        on_output=lambda name, ts, value: out.append(
            (name, ts, freeze(value))
        ),
    )
    return out
