"""The benchmark's workloads: inputs, monitors, one timed pass, outputs.

Each workload runs one closed loop with one caller: the next pass (and,
inside it, the next feed call) starts only when the previous one has
returned.  A *unit* is one monitor run over one trace; every unit's
outputs are checked against the reference interpreter after each pass.

Nothing here imports ``repro`` at module level: the runner imports the
program from the checkout's ``src`` and passes its modules in.
"""

from __future__ import annotations

import os
import shutil
from typing import Any, Dict, List, Tuple

import inputs
import specs

Output = Tuple[str, int, Any]


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class Workload:
    #: Name used on the command line and in BENCHMARK.json.
    name = ""
    #: Spec texts compiled by set-up, in compile order.
    spec_texts: Tuple[str, ...] = ()
    #: False when one pass is a whole batch job with no feed calls.
    feed_calls = True
    #: Calibration kernel (see calib.py) that tracks this workload, and
    #: the elasticity of the workload's pass time to the kernel's time,
    #: fitted on the 2-vCPU host (NOTES.md, "Drift normalization").
    kernel = "scalar"
    elasticity = 0.75
    #: Default sizing; tests shrink it.
    defaults: Dict[str, int] = {}

    def __init__(self, seed: int, **sizing: int) -> None:
        unknown = set(sizing) - set(self.defaults)
        if unknown:
            raise ValueError(f"unknown sizing keys {sorted(unknown)}")
        self.seed = seed
        self.sizing = {**self.defaults, **sizing}
        self.monitors: Dict[str, Any] = {}

    def units(self) -> Dict[str, Tuple[str, List[inputs.Row]]]:
        """Unit key -> (spec text, timestamp-sorted input rows)."""
        raise NotImplementedError

    def prepare(self, repro: Any, workdir: str) -> None:
        """Compile the monitors and materialize per-pass inputs."""
        api = repro.api
        self.monitors = {
            key: api.compile(text) for key, (text, _rows) in self.units().items()
        }

    def run_pass(self, repro: Any) -> int:
        """One timed pass; returns the number of input events consumed."""
        raise NotImplementedError

    def outputs(self) -> Dict[str, List[Output]]:
        """The last pass's outputs per unit (read outside the timed region)."""
        return self._outputs

    def reset(self) -> None:
        """Untimed clean-up between passes."""

    def probe_rows(self) -> Dict[str, List[inputs.Row]]:
        """Monitor key -> rows for the copy/in-place metrics probe."""
        return {key: rows for key, (_text, rows) in self.units().items()}


def _collector(out: List[Output]):
    append = out.append
    return lambda name, ts, value: append((name, ts, value))


class PaperFig9(Workload):
    """The three Fig. 9 monitors at the "large" size, batch 4096."""

    name = "paper_fig9"
    spec_texts = tuple(specs.FIG9.values())
    defaults = {"events": 20_000, "size": specs.LARGE, "batch": 4096}

    def units(self):
        traces = inputs.fig9_traces(
            self.seed, self.sizing["events"], self.sizing["size"]
        )
        return {key: (specs.FIG9[key], traces[key]) for key in specs.FIG9}

    def prepare(self, repro, workdir):
        super().prepare(repro, workdir)
        self.rows = {key: rows for key, (_t, rows) in self.units().items()}
        self.options = repro.api.RunOptions(batch_size=self.sizing["batch"])

    def run_pass(self, repro):
        run = repro.api.run
        self._outputs = {}
        events = 0
        for key, monitor in self.monitors.items():
            out: List[Output] = []
            run(monitor, self.rows[key], self.options, on_output=_collector(out))
            self._outputs[key] = out
            events += len(self.rows[key])
        return events


class ColumnarAlerts(Workload):
    """Alert chain + running-max scan fed as int64 columns."""

    name = "columnar_alerts"
    spec_texts = (specs.COLUMNAR_ALERTS,)
    kernel = "columnar"
    elasticity = 0.85
    defaults = {"calls": 8, "rows": 32_768}

    def _chunks(self):
        return inputs.columnar_chunks(
            self.seed, self.sizing["calls"], self.sizing["rows"]
        )

    def units(self):
        return {
            f"chunk{k}": (
                specs.COLUMNAR_ALERTS,
                [(ts, "x", x) for ts, x in zip(t.tolist(), v.tolist())],
            )
            for k, (t, v) in enumerate(self._chunks())
        }

    def prepare(self, repro, workdir):
        self.monitors = {"alerts": repro.api.compile(specs.COLUMNAR_ALERTS)}
        self.chunks = self._chunks()

    def run_pass(self, repro):
        monitor = self.monitors["alerts"]
        self._outputs = {}
        events = 0
        for k, (ts, xs) in enumerate(self.chunks):
            out: List[Output] = []
            monitor.feed_columns(ts, {"x": xs}, on_output=_collector(out))
            self._outputs[f"chunk{k}"] = out
            events += len(ts)
        return events

    def probe_rows(self):
        text, rows = self.units()["chunk0"]
        return {"alerts": rows}


class DurableIngest(Workload):
    """Table I DBAccessConstraint over a jittered text trace, read by the
    tolerant reader, checkpointed, with outputs rendered to a file."""

    name = "durable_ingest"
    spec_texts = (specs.DB_ACCESS,)
    elasticity = 0.8
    defaults = {"events": 20_000, "jitter": 8, "batch": 800, "every": 2400}

    def _rows(self):
        return inputs.db_access_rows(self.seed, self.sizing["events"])

    def units(self):
        return {"db_access": (specs.DB_ACCESS, self._rows())}

    def prepare(self, repro, workdir):
        self.monitors = {"db_access": repro.api.compile(specs.DB_ACCESS)}
        self.lines = inputs.jittered_text(
            self._rows(), self.sizing["jitter"], self.seed
        )
        self.checkpoint_dir = os.path.join(workdir, "checkpoints")
        self.output_path = os.path.join(workdir, "outputs.txt")
        self.options = repro.api.RunOptions(
            batch_size=self.sizing["batch"],
            checkpoint_dir=self.checkpoint_dir,
            checkpoint_every=self.sizing["every"],
        )

    def run_pass(self, repro):
        traceio = repro.semantics.traceio
        monitor = self.monitors["db_access"]
        reader = traceio.TolerantReader(
            traceio.IngestPolicy(
                on_out_of_order="buffer", max_skew=self.sizing["jitter"]
            ),
            known_streams=monitor.inputs,
        )
        with open(self.output_path, "w") as handle:
            write = handle.write

            def emit(name, ts, value):
                write(f"{ts}: {name} = {traceio.format_value(value)}\n")

            def make_outputs_durable():
                handle.flush()
                os.fsync(handle.fileno())

            events = reader.events(
                enumerate(self.lines, 1),
                lambda item: traceio.parse_line(item[1], item[0]),
            )
            repro.api.run(
                monitor,
                events,
                self.options,
                on_output=emit,
                on_checkpoint=make_outputs_durable,
                checkpoint_gate=lambda: not reader.draining,
            )
        self.ingest_stats = reader.stats
        return len(self.lines)

    def outputs(self):
        return {"db_access": read_rendered(self.output_path)}

    def reset(self):
        shutil.rmtree(self.checkpoint_dir, ignore_errors=True)


def read_rendered(path: str) -> List[Output]:
    """Parse ``ts: name = value`` lines independently of the program."""
    literals = {"true": True, "false": False}
    out: List[Output] = []
    with open(path) as handle:
        for line in handle:
            head, _, value = line.rstrip("\n").partition(" = ")
            ts, _, name = head.partition(": ")
            parsed = literals[value] if value in literals else int(value)
            out.append((name, int(ts), parsed))
    return out


class PoolMany(Workload):
    """8 Seen Set traces through ``api.run_many`` on ``nproc`` workers."""

    name = "pool_many"
    spec_texts = (specs.SEEN_SET,)
    feed_calls = False
    #: The work runs in workers on every vCPU, so the kernel does too.
    kernel = "parallel"
    elasticity = 0.75
    defaults = {"traces": 8, "events": 20_000, "size": specs.LARGE, "batch": 4096}

    def _traces(self):
        return inputs.pool_traces(
            self.seed,
            self.sizing["traces"],
            self.sizing["events"],
            self.sizing["size"],
        )

    def units(self):
        return {
            f"trace{k}": (specs.SEEN_SET, rows)
            for k, rows in enumerate(self._traces())
        }

    def prepare(self, repro, workdir):
        self.monitors = {"seen_set": repro.api.compile(specs.SEEN_SET)}
        self.traces = self._traces()
        self.options = repro.api.RunOptions(
            jobs=nproc(), batch_size=self.sizing["batch"]
        )

    def run_pass(self, repro):
        self.result = repro.api.run_many(
            self.monitors["seen_set"], self.traces, self.options
        )
        return sum(len(rows) for rows in self.traces)

    def outputs(self):
        return {
            f"trace{r.index}": r.outputs if r.ok else None
            for r in self.result.results
        }

    def probe_rows(self):
        return {"seen_set": self.traces[0]}


WORKLOADS = {
    cls.name: cls for cls in (PaperFig9, ColumnarAlerts, DurableIngest, PoolMany)
}
