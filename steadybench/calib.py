"""Frozen calibration kernels for machine-speed drift normalization.

The shared 2-vCPU hosts this benchmark runs on drift by tens of percent
over minutes and, under a busy neighbour, flip between speeds within a
second (the same pass reads 180k and 270k events/s a few minutes apart,
with no steal time).  Each round of timed passes is therefore bracketed
by calibration measurements, and a pass time is scaled by
``REFERENCE_MS[kind] / measured_ms``: when the machine is slow, the
kernel is slow too, and the scaled figure stays put.

Three kernels, chosen by measurement (see NOTES.md): ``scalar`` sums a
set/dict/list churn and a regex parse/format loop, and tracks the
pure-Python workloads; ``columnar`` sums the churn and a numpy
scan/mask loop, and tracks the vector engine; ``parallel`` runs
``scalar`` at once in one helper process per vCPU and takes the slowest,
and tracks the worker pool, whose pass ends when its slowest worker
does.  Under a busy neighbour,
run-length medians scaled by a numpy-only kernel still spread 8-26 % on
the scalar workloads, and by a churn-only one 14-16 % on the columnar
workload.

Set-up time is import-bound, and under a busy neighbour neither compute
kernel tracked it (scaled set-up spread 18.5 % against 17.8 % raw).  It
is scaled by a third kernel instead: the time a fresh interpreter takes
to import a fixed set of standard-library modules (11.4 %).

Nothing here imports the program under test, and nothing here may
change once a benchmark baseline exists: a changed kernel or reference
moves every normalized figure.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import re
import subprocess
import sys
import time
from typing import Any, List, Tuple

#: Kernel times (ms) on a quiet 2-vCPU host like the one the bounds were
#: measured on; normalized figures read as if measured at this speed.
#: ``parallel`` was never measured on a quiet host: it is taken equal to
#: ``scalar``, whose code it runs with every vCPU free.
REFERENCE_MS = {"scalar": 8.0, "columnar": 8.5, "parallel": 8.0}


def python_part(n: int = 15_000) -> int:
    """Set/dict/list churn shaped like a generated monitor's hot loop."""
    seen = set()
    counts = {}
    window = []
    x = 12345
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x % 4096
        if key in seen:
            seen.discard(key)
        else:
            seen.add(key)
        counts[key] = counts.get(key, 0) + 1
        window.append(key + i)
        if len(window) > 256:
            del window[:128]
    return len(seen) + len(counts)


_LINE = re.compile(r"^\s*(?P<ts>\d+)\s*:\s*(?P<name>\w+)\s*=\s*(?P<value>.+?)\s*$")
_LINES = [f"{i}: s{i % 7} = {i * 7919 % 100003}" for i in range(2500)]


def text_part() -> int:
    """Regex parsing and f-string rendering of trace-like lines."""
    out = []
    for line in _LINES:
        match = _LINE.match(line)
        value = int(match.group("value"))
        out.append(f"{int(match.group('ts'))}: {match.group('name')} = {value!r}\n")
    return len("".join(out))


_COLUMN = []


def numpy_part(reps: int = 12) -> int:
    """Scans, shifts and masks shaped like the vector engine's kernels."""
    import numpy as np

    if not _COLUMN:
        _COLUMN.append(
            np.random.default_rng(7).integers(0, 1_000_000, 65_536, dtype=np.int64)
        )
    a = _COLUMN[0]
    acc = 0
    for _ in range(reps):
        running = np.maximum.accumulate(a)
        spike = 2 * a[1:] - a[:-1]
        mask = spike > 1_800_000
        acc += int(running[-1]) + len(np.flatnonzero(mask).tolist())
    return acc


KERNELS = {
    "scalar": (python_part, text_part),
    "columnar": (python_part, numpy_part),
}


#: (pipe, process) of each ``parallel`` helper while started.
_HELPERS: List[Tuple[Any, Any]] = []


def _helper(conn: Any) -> None:
    while True:
        kind = conn.recv()
        if kind is None:
            return
        conn.send(measure_ms(kind))


def start(kind: str) -> None:
    """Start the helpers the *kind* kernel needs (only ``parallel`` has
    any).  Call it before the program is imported: the helpers are
    forked, and a fork must not copy the program's threads or locks."""
    if kind != "parallel" or _HELPERS:
        return
    context = multiprocessing.get_context("fork")
    for _ in range(len(os.sched_getaffinity(0))):
        parent, child = context.Pipe()
        process = context.Process(target=_helper, args=(child,), daemon=True)
        process.start()
        _HELPERS.append((parent, process))


def stop() -> None:
    """Stop the helpers and wait until each has ended."""
    while _HELPERS:
        conn, process = _HELPERS.pop()
        conn.send(None)
        process.join()


def measure_ms(kind: str, repeats: int = 2) -> float:
    """Best-of-*repeats* time of the *kind* kernel in milliseconds."""
    if kind == "parallel":
        # The helpers idle on their pipes between measurements, so they
        # take no CPU during a pass.
        for conn, _process in _HELPERS:
            conn.send("scalar")
        return max(conn.recv() for conn, _process in _HELPERS)
    parts = KERNELS[kind]
    best = float("inf")
    # The collector's cost grows with the measuring process's heap, not
    # with machine speed; keep it out of the kernel.
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            for part in parts:
                part()
            best = min(best, time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best * 1e3


def time_scale(calib_ms: float, kind: str, elasticity: float) -> float:
    """Factor turning a raw duration into a drift-normalized one.

    *elasticity* is how strongly the workload's time follows the
    kernel's: ``d log(pass time) / d log(kernel time)`` on this host.
    """
    return (REFERENCE_MS[kind] / calib_ms) ** elasticity


#: Standard-library modules the set-up kernel imports; none is loaded
#: at interpreter start-up.
IMPORT_SET = (
    "asyncio",
    "email.parser",
    "email.mime.multipart",
    "http.client",
    "xml.dom.minidom",
    "xml.etree.ElementTree",
    "unittest",
    "logging.handlers",
    "tarfile",
    "argparse",
    "csv",
    "sqlite3",
    "decimal",
    "fractions",
    "difflib",
    "pydoc",
)
#: Set-up kernel time (ms) on the same quiet host.
IMPORT_REFERENCE_MS = 45.0


def import_kernel_ms() -> float:
    """Milliseconds a fresh, isolated interpreter takes to import IMPORT_SET."""
    code = (
        "import time\n"
        "start = time.perf_counter()\n"
        f"import {', '.join(IMPORT_SET)}\n"
        "print((time.perf_counter() - start) * 1e3)\n"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout)


def setup_scale(import_ms: float) -> float:
    """Factor turning a raw set-up time into a drift-normalized one."""
    return IMPORT_REFERENCE_MS / import_ms
