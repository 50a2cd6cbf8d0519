"""Zero-copy shared-memory trace transport for the supervised pool.

The multi-process :class:`~repro.parallel.pool.MonitorPool` used to
pickle every trace's full event list over a worker pipe — once per
dispatch *and once per retry*.  That is exactly the copy discipline the
paper's mutability analysis eliminates inside a monitor, violated at
the process boundary.  This module lifts the same idea to the
inter-process data path:

* :class:`TraceArena` (parent side) packs each trace **once** into a
  ``multiprocessing.shared_memory`` segment.  Traces whose payloads are
  shm-encodable — int/float/bool/unit values on timestamp-sorted
  events, no duplicate ``(ts, stream)`` pairs — are stored *columnar*
  (a shared int64 timestamp array plus one presence mask and one typed
  value column per stream: the vector engine's SoA layout).  Anything
  else is pickled once into the segment instead (the blob fallback),
  so arbitrary payloads still ride shared memory.
* Only a tiny :class:`ArenaDescriptor` (segment name, offsets,
  dtypes, lengths) crosses the pipe; a re-dispatch after a crash
  re-sends the descriptor and the new worker re-reads the same bytes.
* Workers :func:`attach` read-only and — when the columnar encoding is
  dense (every stream fires at every timestamp) and the resolved
  engine is vector — feed the mapped arrays straight through the
  existing ``feed_columns`` zero-copy path.  Sparse or blob payloads
  reconstruct the exact original row events.

Crash-safety contract (the hard part):

* Segments are **owned by the parent**: created in
  :meth:`TraceArena.pack`, unlinked exactly once in
  :meth:`TraceArena.release` when the trace resolves (success,
  quarantine, or pool abort via :meth:`TraceArena.close_all`).  A
  worker never unlinks; it only closes its mapping.
* Worker attachment is *untracked*: on Python < 3.13
  ``SharedMemory(name=...)`` registers the segment with the
  ``resource_tracker``, and a SIGKILLed worker never unregisters —
  the tracker would then report phantom leaks (or double-unlink) at
  interpreter exit.  :func:`attach` suppresses that registration
  (``track=False`` where available, a scoped no-op otherwise), so the
  kill/hang chaos matrix runs with zero tracked leaks.
* Unlinking while a worker still maps the segment is safe on POSIX:
  the mapping survives until the worker's ``close`` (or death), only
  the name disappears.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..compiler import kernels
from ..compiler.monitor import UNIT_VALUE
from ..obs.metrics import (
    DEFAULT_REGISTRY,
    POOL_ARENA_ATTACH,
    POOL_BYTES_PICKLED,
    POOL_BYTES_SHARED,
)

__all__ = [
    "ArenaDescriptor",
    "AttachedTrace",
    "TraceArena",
    "attach",
    "shm_available",
]

#: Buffer alignment inside a segment; generous enough for any dtype.
_ALIGN = 64


def shm_available() -> bool:
    """True when ``multiprocessing.shared_memory`` works on this host."""
    try:
        from multiprocessing import shared_memory  # noqa: F401
    except ImportError:  # pragma: no cover - exotic platforms only
        return False
    return True


@dataclass(frozen=True)
class ArenaDescriptor:
    """Everything a worker needs to re-read one packed trace.

    This is what crosses the pipe instead of the event list: a segment
    name plus offsets/lengths — a few hundred bytes regardless of trace
    size, identical on every retry.

    ``kind`` is ``"columnar"`` (SoA layout: an int64 timestamp array at
    ``ts_offset``, then per stream a bool presence mask and — except
    for ``"unit"`` dtypes — a typed value column, both of ``length``
    entries) or ``"pickle"`` (one pickled event-list blob at
    ``payload_offset``).  ``count`` is the original row count;
    ``dense`` is True when every stream fires at every timestamp — the
    precondition for the ``feed_columns`` zero-copy path.
    """

    name: str
    kind: str
    size: int
    count: int
    length: int = 0
    dense: bool = False
    ts_offset: int = 0
    #: ``(stream, dtype_name, mask_offset, values_offset)`` per stream,
    #: in the deterministic (sorted) stream order used for row rebuild.
    streams: Tuple[Tuple[str, str, int, int], ...] = ()
    payload_offset: int = 0
    payload_length: int = 0


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


def _column_dtype(values: Sequence[Any]) -> Optional[str]:
    """The homogeneous column dtype for a stream's values, or None.

    Exact-type matching, not ``isinstance``: a bool is not an int64
    here, because decode must reproduce the original Python objects
    bit-for-bit (``np.float64(1).item()`` of an int would come back as
    ``1.0`` and change downstream equality).
    """
    kind: Optional[str] = None
    for value in values:
        t = type(value)
        if t is int:
            k = "int64"
        elif t is bool:
            k = "bool"
        elif t is float:
            k = "float64"
        elif value == UNIT_VALUE and t is type(UNIT_VALUE):
            k = "unit"
        else:
            return None
        if kind is None:
            kind = k
        elif kind != k:
            return None
    return kind


def _plan_columnar(events: List[Tuple[int, str, Any]]) -> Optional[Tuple]:
    """Try the columnar encoding; None when the trace isn't eligible.

    Eligible means: well-formed 3-tuples, int timestamps sorted
    non-decreasing and non-negative, string stream names, homogeneous
    int/float/bool/unit values per stream, and no duplicate
    ``(ts, stream)`` pair (a duplicate's last-write-wins overwrite
    cannot be represented in one column slot without losing the row
    count).  Ineligible traces take the pickled-blob fallback, which
    preserves the original rows — and therefore the original error
    behavior — exactly.
    """
    if not kernels.numpy_available():
        return None
    n = len(events)
    if n < 2:
        return None  # a blob is smaller than the columnar scaffolding
    np = kernels.numpy_module()
    per_values: Dict[str, List[Any]] = {}
    timestamps: List[int] = []
    previous = None
    for event in events:
        if type(event) is not tuple or len(event) != 3:
            return None
        ts, name, value = event
        if type(ts) is not int or type(name) is not str:
            return None
        if previous is not None and ts < previous:
            return None
        previous = ts
        timestamps.append(ts)
        per_values.setdefault(name, []).append(value)
    if timestamps[0] < 0:
        return None
    try:
        ts_arr = np.asarray(timestamps, dtype=np.int64)
    except (OverflowError, TypeError, ValueError):
        return None
    keep = np.empty(n, dtype=bool)
    keep[0] = True
    np.not_equal(ts_arr[1:], ts_arr[:-1], out=keep[1:])
    positions = np.cumsum(keep) - 1
    ts_unique = ts_arr[keep]
    length = int(ts_unique.shape[0])
    names_arr = np.empty(n, dtype=object)
    names_arr[:] = [event[1] for event in events]
    streams = []
    dense = True
    for name in sorted(per_values):
        values = per_values[name]
        dtype_name = _column_dtype(values)
        if dtype_name is None:
            return None
        pos = positions[names_arr == name]
        if pos.shape[0] > 1 and bool((pos[1:] == pos[:-1]).any()):
            return None  # duplicate (ts, stream): last-write-wins rows
        mask = np.zeros(length, dtype=bool)
        mask[pos] = True
        if pos.shape[0] != length:
            dense = False
        column = None
        if dtype_name != "unit":
            dtype = kernels.resolve_dtype(np, dtype_name)
            column = np.zeros(length, dtype=dtype)
            try:
                column[pos] = np.asarray(values, dtype=dtype)
            except (OverflowError, TypeError, ValueError):
                return None
        streams.append((name, dtype_name, mask, column))
    return ts_unique, streams, length, dense


class TraceArena:
    """Parent-side owner of the per-trace shared-memory segments.

    One arena serves one supervised pool run.  Every segment it creates
    is unlinked exactly once: either in :meth:`release` when the trace
    resolves, or in :meth:`close_all` when the run ends (normally or by
    abort) — whichever comes first.  Both are idempotent, so a
    duplicate release (salvaged result racing a reap) is a no-op.
    """

    def __init__(self) -> None:
        self._segments: Dict[int, Any] = {}

    def __len__(self) -> int:
        return len(self._segments)

    def pack(
        self,
        index: int,
        events: List[Tuple[int, str, Any]],
        *,
        allow_columnar: bool = True,
    ) -> ArenaDescriptor:
        """Pack one trace into a fresh segment; returns its descriptor.

        Raises on shm exhaustion (``/dev/shm`` full, name collisions) —
        the caller falls back to the pipe for that trace.
        ``allow_columnar=False`` forces the blob encoding (used when
        input validation needs the exact original row order).
        """
        from multiprocessing import shared_memory

        np = kernels.numpy_module() if kernels.numpy_available() else None
        plan = _plan_columnar(events) if allow_columnar else None
        if plan is not None:
            ts_unique, streams, length, dense = plan
            ts_offset = 0
            offset = _align(ts_unique.nbytes)
            layout = []
            for name, dtype_name, mask, column in streams:
                mask_offset = offset
                offset = _align(offset + mask.nbytes)
                values_offset = 0
                if column is not None:
                    values_offset = offset
                    offset = _align(offset + column.nbytes)
                layout.append((name, dtype_name, mask_offset, values_offset))
            segment = shared_memory.SharedMemory(create=True, size=offset)
            try:
                np.frombuffer(
                    segment.buf, dtype=np.int64, count=length, offset=ts_offset
                )[:] = ts_unique
                for (name, dtype_name, mask, column), entry in zip(
                    streams, layout
                ):
                    np.frombuffer(
                        segment.buf,
                        dtype=np.bool_,
                        count=length,
                        offset=entry[2],
                    )[:] = mask
                    if column is not None:
                        np.frombuffer(
                            segment.buf,
                            dtype=column.dtype,
                            count=length,
                            offset=entry[3],
                        )[:] = column
            except BaseException:
                segment.close()
                segment.unlink()
                raise
            descriptor = ArenaDescriptor(
                name=segment.name,
                kind="columnar",
                size=offset,
                count=len(events),
                length=length,
                dense=dense,
                ts_offset=ts_offset,
                streams=tuple(layout),
            )
            DEFAULT_REGISTRY.inc(POOL_BYTES_SHARED, offset)
        else:
            blob = pickle.dumps(events, protocol=pickle.HIGHEST_PROTOCOL)
            segment = shared_memory.SharedMemory(
                create=True, size=max(1, len(blob))
            )
            try:
                segment.buf[: len(blob)] = blob
            except BaseException:
                segment.close()
                segment.unlink()
                raise
            descriptor = ArenaDescriptor(
                name=segment.name,
                kind="pickle",
                size=len(blob),
                count=len(events),
                payload_offset=0,
                payload_length=len(blob),
            )
            DEFAULT_REGISTRY.inc(POOL_BYTES_PICKLED, len(blob))
        self._segments[index] = segment
        return descriptor

    def release(self, index: int) -> None:
        """Unlink trace *index*'s segment (idempotent)."""
        segment = self._segments.pop(index, None)
        if segment is None:
            return
        try:
            segment.close()
        except OSError:  # pragma: no cover - buffer already gone
            pass
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - defensive
            pass

    def close_all(self) -> None:
        """Unlink every segment still owned (abort/shutdown path)."""
        for index in list(self._segments):
            self.release(index)


# -- the worker side ----------------------------------------------------------


def _attach_untracked(name: str) -> Any:
    """Attach to an existing segment without resource-tracker tracking.

    The parent owns the segment's lifetime; a worker registering it
    with the (shared, fork-inherited) resource tracker would leave a
    phantom registration behind every SIGKILL.  Python 3.13 grew
    ``track=False`` for exactly this; earlier versions get a scoped
    no-op over ``resource_tracker.register`` — safe here because the
    worker's task loop is single-threaded.
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


class AttachedTrace:
    """A worker's read-only view of one packed trace.

    ``dense_block()`` exposes the zero-copy columnar form (shared
    timestamps + per-stream value arrays, all marked non-writeable so a
    kernel bug can never corrupt the segment other attempts re-read);
    ``rows()`` reconstructs the exact original event tuples.  Call
    :meth:`close` when the attempt ends — it drops this mapping only,
    never the segment.
    """

    def __init__(self, descriptor: ArenaDescriptor, segment: Any) -> None:
        self.descriptor = descriptor
        self._segment = segment
        self._rows: Optional[List[Tuple[int, str, Any]]] = None

    def close(self) -> None:
        try:
            self._segment.close()
        except (OSError, BufferError):  # pragma: no cover - defensive
            pass

    # -- views -----------------------------------------------------------

    def _view(self, dtype_name: str, offset: int) -> Any:
        np = kernels.numpy_module()
        dtype = (
            np.bool_
            if dtype_name == "bool"
            else kernels.resolve_dtype(np, dtype_name)
        )
        view = np.frombuffer(
            self._segment.buf,
            dtype=dtype,
            count=self.descriptor.length,
            offset=offset,
        )
        view.setflags(write=False)
        return view

    def dense_block(self) -> Optional[Tuple[Any, Dict[str, Any]]]:
        """``(timestamps, columns)`` for ``feed_columns``, or None.

        Available only for dense columnar payloads (every stream at
        every timestamp — the ``feed_columns`` contract).  Unit-valued
        streams come back as plain ``UNIT_VALUE`` lists; typed streams
        are read-only views straight over the segment.
        """
        d = self.descriptor
        if d.kind != "columnar" or not d.dense or not d.length:
            return None
        timestamps = self._view("int64", d.ts_offset)
        columns: Dict[str, Any] = {}
        for name, dtype_name, _mask_offset, values_offset in d.streams:
            if dtype_name == "unit":
                columns[name] = [UNIT_VALUE] * d.length
            else:
                columns[name] = self._view(dtype_name, values_offset)
        return timestamps, columns

    def rows(self) -> List[Tuple[int, str, Any]]:
        """The trace as ``(ts, stream, value)`` rows (exact types)."""
        if self._rows is not None:
            return self._rows
        d = self.descriptor
        if d.kind == "pickle":
            self._rows = pickle.loads(
                self._segment.buf[
                    d.payload_offset : d.payload_offset + d.payload_length
                ]
            )
            return self._rows
        np = kernels.numpy_module()
        ts_list = self._view("int64", d.ts_offset).tolist()
        tagged: List[Tuple[int, int, Tuple[int, str, Any]]] = []
        for order, (name, dtype_name, mask_offset, values_offset) in enumerate(
            d.streams
        ):
            mask = self._view("bool", mask_offset)
            indices = np.flatnonzero(mask).tolist()
            if dtype_name == "unit":
                values: Sequence[Any] = [UNIT_VALUE] * len(indices)
            else:
                values = self._view(dtype_name, values_offset)[
                    np.flatnonzero(mask)
                ].tolist()
            for position, value in zip(indices, values):
                tagged.append(
                    (position, order, (ts_list[position], name, value))
                )
        tagged.sort(key=lambda item: (item[0], item[1]))
        self._rows = [event for _pos, _order, event in tagged]
        return self._rows


def attach(descriptor: ArenaDescriptor) -> AttachedTrace:
    """Worker-side attach: map the descriptor's segment read-only."""
    DEFAULT_REGISTRY.inc(POOL_ARENA_ATTACH)
    return AttachedTrace(descriptor, _attach_untracked(descriptor.name))
