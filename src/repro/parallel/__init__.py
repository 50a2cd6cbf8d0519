"""Parallel execution subsystem: one spec, many traces, many workers.

:mod:`repro.parallel.pool` runs one compiled specification over many
independent traces/sessions across a *supervised* worker pool
(:mod:`repro.parallel.supervisor`).  Workers are forked processes
warm-started from the on-disk plan cache (only the spec text and
fingerprint-keyed cache files cross the process boundary) and overseen
with per-trace leases: heartbeats, deadlines, death/hang detection,
automatic restarts, capped-exponential-backoff re-dispatch
(:class:`RetryPolicy`) and poison-trace quarantine (:class:`FaultPlan`
injects the whole failure matrix deterministically for tests).  Trace
payloads travel as shared-memory arena descriptors
(:mod:`repro.parallel.shm`) or pickled over the worker pipe.
In-flight batches are bounded (backpressure), results are collected
exactly once in submission order, and exhausted traces degrade per the
compiled spec's :class:`~repro.errors.ErrorPolicy`.  ``jobs <= 1`` (or
a platform without ``fork``) runs the same retry loop in-process.

Reachable from :mod:`repro.api` (:func:`repro.api.run_many`) and from
the CLI (``run-many --jobs N``).  See ``docs/parallel.md``.
"""

from .pool import MonitorPool, PoolError, PoolResult, TraceResult
from .shm import ArenaDescriptor, TraceArena
from .supervisor import (
    AttemptRecord,
    FaultPlan,
    PoisonTraceError,
    RetryPolicy,
    Supervisor,
    SupervisorStats,
)

__all__ = [
    "ArenaDescriptor",
    "AttemptRecord",
    "FaultPlan",
    "MonitorPool",
    "PoisonTraceError",
    "PoolError",
    "PoolResult",
    "RetryPolicy",
    "Supervisor",
    "SupervisorStats",
    "TraceArena",
    "TraceResult",
]
