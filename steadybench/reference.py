"""Reference output digests from the reference interpreter.

``semantics.interpreter.interpret`` is the repository's single oracle;
no compiled monitor is ever used to produce an expected output.  The
digests are computed in a child process, so the interpreter's memory
never enters the measuring process's peak RSS, and cached per
workload, seed, sizing and program source under the checkout's
``.steadybench_cache``.

Run as a script by the runner::

    python3 steadybench/reference.py <src-dir> <workload> <seed> <sizing-json> <out-path>
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from typing import Dict, Iterable, List

HERE = os.path.dirname(os.path.abspath(__file__))


def digest(outputs: Iterable) -> str:
    """Order-independent digest of ``(name, ts, value)`` output events."""
    canon = sorted([ts, name, value] for name, ts, value in outputs)
    blob = json.dumps(canon, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(blob.encode()).hexdigest()


def source_files(src: str) -> List[str]:
    """The benchmark's input modules and every source of the program.

    The oracle's imports (frontend, lang, semantics) pull in the package
    ``__init__`` and through it nearly all of ``repro``, so the whole
    package is hashed.
    """
    files = [os.path.join(HERE, m) for m in ("inputs.py", "specs.py", "workloads.py")]
    for parent, dirs, names in os.walk(os.path.join(src, "repro")):
        dirs.sort()
        files.extend(os.path.join(parent, n) for n in sorted(names) if n.endswith(".py"))
    return files


def cache_key(src: str, workload) -> str:
    """Changes whenever the inputs, specs, sizing or oracle could change."""
    h = hashlib.sha256()
    for path in source_files(src):
        h.update(os.path.relpath(path, os.path.dirname(HERE)).encode())
        with open(path, "rb") as handle:
            h.update(handle.read())
    h.update(json.dumps(workload.sizing, sort_keys=True).encode())
    return f"{workload.name}-{workload.seed}-{h.hexdigest()[:16]}"


def interpret_unit(text: str, rows: List) -> List:
    from repro.frontend import parse_spec
    from repro.lang import flatten
    from repro.semantics.interpreter import interpret
    from repro.semantics.stream import Stream

    flat = flatten(parse_spec(text))
    per_stream: Dict[str, List] = {name: [] for name in flat.inputs}
    for ts, name, value in rows:
        per_stream[name].append((ts, value))
    result = interpret(flat, {n: Stream(e) for n, e in per_stream.items()})
    return [(out, ts, value) for out in flat.outputs for ts, value in result[out]]


def compute(workload) -> Dict[str, str]:
    return {
        key: digest(interpret_unit(text, rows))
        for key, (text, rows) in workload.units().items()
    }


def load_or_compute(root: str, src: str, workload) -> Dict[str, str]:
    """Cached digests for *workload*, computing them in a child if absent."""
    cache_dir = os.path.join(root, ".steadybench_cache")
    path = os.path.join(cache_dir, cache_key(src, workload) + ".json")
    if not os.path.exists(path):
        os.makedirs(cache_dir, exist_ok=True)
        tmp = f"{path}.{os.getpid()}.tmp"
        subprocess.run(
            [
                sys.executable,
                os.path.join(HERE, "reference.py"),
                src,
                workload.name,
                str(workload.seed),
                json.dumps(workload.sizing),
                tmp,
            ],
            check=True,
            timeout=150,
        )
        os.replace(tmp, path)
    with open(path) as handle:
        return json.load(handle)


def main(argv: List[str]) -> int:
    src, name, seed, sizing, out = argv
    sys.path.insert(0, src)
    from workloads import WORKLOADS

    workload = WORKLOADS[name](int(seed), **json.loads(sizing))
    with open(out, "w") as handle:
        json.dump(compute(workload), handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
