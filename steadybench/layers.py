"""Per-layer timing for the traced run, from outside the program.

Each layer is named by its module and measured by wrapping that layer's
public functions in the benchmark process; nothing under ``src/``
changes.  Timings stay in memory until the run ends.  Every wrapper
counts how often it fired, so a rename in ``src/`` that bypasses a hook
shows up as a failed guard instead of a silent zero.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

perf_counter = time.perf_counter


def sites(repro: Any) -> Dict[str, Tuple[Any, str, str]]:
    """Site id -> (owner, attribute, metric) for every wrapped function."""
    from repro.api import Monitor
    from repro.compiler.checkpoint import CheckpointManager
    from repro.compiler.runtime import MonitorRunner
    from repro.parallel.shm import TraceArena

    pipeline = repro.compiler.pipeline
    traceio = repro.semantics.traceio
    return {
        "frontend.parse_spec": (repro.frontend, "parse_spec", "frontend.parse"),
        "pipeline.flatten": (pipeline, "flatten", "lang.flatten"),
        "pipeline.check_types": (pipeline, "check_types", "lang.flatten"),
        "pipeline.analyze_mutability": (
            pipeline,
            "analyze_mutability",
            "analysis.mutability",
        ),
        "api.compile": (repro.api, "compile", "compiler.compile"),
        "MonitorRunner.feed_batch": (MonitorRunner, "feed_batch", "compiler.feed"),
        "MonitorRunner.feed_columns": (
            MonitorRunner,
            "feed_columns",
            "compiler.feed",
        ),
        "MonitorRunner.finish": (MonitorRunner, "finish", "compiler.finish"),
        "Monitor.feed_columns": (Monitor, "feed_columns", "api.feed_columns"),
        "traceio.parse_line": (traceio, "parse_line", "semantics.parse"),
        "traceio.format_value": (traceio, "format_value", "semantics.format"),
        "TolerantReader.events": (
            traceio.TolerantReader,
            "events",
            "semantics.reader",
        ),
        "CheckpointManager.write": (
            CheckpointManager,
            "write",
            "compiler.checkpoint_write",
        ),
        "TraceArena.pack": (TraceArena, "pack", "parallel.pack"),
    }


#: The feed calls of the end-to-end latency: one ``MonitorRunner.feed_batch``
#: or one whole ``Monitor.feed_columns`` call (runner set-up and
#: ``finish`` included, since the pending last timestamp flushes there).
FEED_CALL_SITES = ("MonitorRunner.feed_batch", "Monitor.feed_columns")

#: Sites each workload's traced round must reach (compile sites fire in
#: the round's cold compile).
COMPILE_SITES = (
    "frontend.parse_spec",
    "pipeline.flatten",
    "pipeline.check_types",
    "pipeline.analyze_mutability",
    "api.compile",
)
REQUIRED = {
    "paper_fig9": COMPILE_SITES
    + ("MonitorRunner.feed_batch", "MonitorRunner.finish"),
    "columnar_alerts": COMPILE_SITES
    + ("MonitorRunner.feed_columns", "MonitorRunner.finish"),
    "durable_ingest": COMPILE_SITES
    + (
        "MonitorRunner.feed_batch",
        "MonitorRunner.finish",
        "traceio.parse_line",
        "traceio.format_value",
        "TolerantReader.events",
        "CheckpointManager.write",
    ),
    "pool_many": COMPILE_SITES + ("TraceArena.pack",),
}


class Layers:
    """Installs, accounts for and removes the per-layer wrappers.

    *only* restricts the wrapped sites.  When *calls* is a list, the
    wall time in seconds of every call that no other wrapped call
    encloses is appended to it (reassign it to start a new sink).
    """

    def __init__(
        self,
        repro: Any,
        only: Optional[Tuple[str, ...]] = None,
        calls: Optional[List[float]] = None,
    ) -> None:
        self.sites = {
            site: where
            for site, where in sites(repro).items()
            if only is None or site in only
        }
        self.calls = calls
        self._open = 0
        self.ms: Dict[str, float] = Counter()
        self.counts: Dict[str, int] = Counter()
        self.fired: Dict[str, int] = Counter()
        self._depth: Dict[str, int] = Counter()
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- install / remove -------------------------------------------------

    def install(self) -> None:
        for site, (owner, attr, metric) in self.sites.items():
            original = getattr(owner, attr)
            if site == "TolerantReader.events":
                wrapper = self._generator(site, metric, original)
            else:
                wrapper = self._timed(site, metric, original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Layers":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.remove()

    # -- accounting ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        return {
            "ms": dict(self.ms),
            "counts": dict(self.counts),
            "fired": dict(self.fired),
        }

    @staticmethod
    def delta(before: Dict, after: Dict) -> Dict[str, Dict[str, float]]:
        return {
            part: {
                key: after[part].get(key, 0) - before[part].get(key, 0)
                for key in set(after[part]) | set(before[part])
            }
            for part in after
        }

    def missing(self, workload: str, round_delta: Dict) -> List[str]:
        """Required sites that did not fire in one traced round."""
        fired = round_delta["fired"]
        return [site for site in REQUIRED[workload] if not fired.get(site)]

    # -- wrappers ---------------------------------------------------------

    def _after(self, site: str, args: Tuple, result: Any) -> None:
        counts = self.counts
        if site == "CheckpointManager.write":
            counts["compiler.checkpoint_writes"] += 1
            counts["compiler.checkpoint_bytes"] += os.path.getsize(result)
        elif site.startswith("MonitorRunner.feed"):
            counts["compiler.feed_calls"] += 1
            runner = args[0]
            if getattr(runner.compiled, "engine", None) == "vector":
                counts["compiler.vector_rows"] += len(args[1])

    def _timed(self, site: str, metric: str, original: Any) -> Any:
        layers = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            layers.fired[site] += 1
            if layers._depth[metric]:
                # Nested entry of the same layer (e.g. feed_columns'
                # row fallback calling feed_batch): timed once, outside.
                return original(*args, **kwargs)
            layers._depth[metric] += 1
            layers._open += 1
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                took = perf_counter() - start
                layers.ms[metric] += took * 1e3
                layers._depth[metric] -= 1
                layers._open -= 1
                if layers.calls is not None and not layers._open:
                    layers.calls.append(took)
            layers._after(site, args, result)
            return result

        return wrapper

    def _generator(self, site: str, metric: str, original: Any) -> Any:
        layers = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            layers.fired[site] += 1
            inner = original(*args, **kwargs)

            def timed():
                while True:
                    start = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        layers.ms[metric] += (perf_counter() - start) * 1e3
                        return
                    layers.ms[metric] += (perf_counter() - start) * 1e3
                    yield item

            return timed()

        return wrapper
