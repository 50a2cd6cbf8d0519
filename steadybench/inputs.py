"""Seeded input generators, frozen with the benchmark.

Every generator is a pure function of its seed and sizing, so the same
``--seed`` always yields the same inputs; the program under test only
ever receives the generated events.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

Row = Tuple[int, str, int]


def uniform_rows(length: int, domain: int, seed: int, name: str = "i") -> List[Row]:
    """*length* events at t = 1, 2, ... with values uniform in [0, domain)."""
    rng = random.Random(seed)
    return [(ts, name, rng.randrange(domain)) for ts in range(1, length + 1)]


def fig9_traces(seed: int, events: int, size: int) -> Dict[str, List[Row]]:
    """Paper §V-A traces: the Seen Set draws from [0, 2*size) so its set
    hovers around *size* elements; the windows draw unconstrained values."""
    return {
        "seen_set": uniform_rows(events, 2 * size, seed * 3 + 1),
        "map_window": uniform_rows(events, 1_000_000, seed * 3 + 2),
        "queue_window": uniform_rows(events, 1_000_000, seed * 3 + 3),
    }


def columnar_chunks(seed: int, calls: int, rows: int):
    """*calls* independent (timestamps, values) int64 column pairs."""
    import numpy as np

    rng = np.random.default_rng(seed)
    chunks = []
    for _ in range(calls):
        gaps = rng.integers(1, 4, rows, dtype=np.int64)
        chunks.append(
            (np.cumsum(gaps), rng.integers(0, 1_000_000, rows, dtype=np.int64))
        )
    return chunks


def db_access_rows(seed: int, events: int) -> List[Row]:
    """DBAccessConstraint log (paper §V-B): inserts outpace deletes, so
    the live-id set grows; ~2 % of accesses hit a dead or unknown id."""
    rng = random.Random(seed)
    rows: List[Row] = []
    live: List[int] = []
    next_id = 0
    ts = 1
    for _ in range(events):
        roll = rng.random()
        if roll < 0.5 or not live:
            next_id += 1
            live.append(next_id)
            rows.append((ts, "ins", next_id))
        elif roll < 0.6:
            rows.append((ts, "del_", live.pop(rng.randrange(len(live)))))
        elif rng.random() < 0.02:
            rows.append((ts, "acc", next_id + 10**6))
        else:
            rows.append((ts, "acc", live[rng.randrange(len(live))]))
        ts += rng.randint(1, 2)
    return rows


def jittered_text(rows: List[Row], jitter: int, seed: int) -> List[str]:
    """Render *rows* as TeSSLa trace lines in a jittered arrival order.

    Lines are ordered by ``ts + U[0, jitter]``, so no event arrives more
    than *jitter* ticks behind the newest one: a reorder buffer with
    ``max_skew == jitter`` restores timestamp order and drops nothing.
    """
    rng = random.Random(seed)
    keyed = sorted(
        ((ts + rng.randint(0, jitter), n, ts, name, value)
         for n, (ts, name, value) in enumerate(rows)),
    )
    return [f"{ts}: {name} = {value}\n" for _k, _n, ts, name, value in keyed]


def pool_traces(seed: int, traces: int, events: int, size: int) -> List[List[Row]]:
    """Independent Seen Set traces for the worker pool."""
    return [
        uniform_rows(events, 2 * size, seed * 1000 + k) for k in range(traces)
    ]
