"""Set-up time in a fresh interpreter: ``import repro`` through
``api.compile`` of every monitor a workload compiles.

Compiles start from spec text (so parsing counts) with no plan cache.
Prints the raw seconds; the runner pairs each probe with
``calib.import_kernel_ms`` for drift normalization.

    python3 steadybench/setup_probe.py <src-dir> <workload>
"""

import sys
import time

from workloads import WORKLOADS


def main(src: str, name: str) -> None:
    texts = WORKLOADS[name].spec_texts
    start = time.perf_counter()
    sys.path.insert(0, src)
    from repro import api

    for text in texts:
        api.compile(text)
    raw = time.perf_counter() - start
    print(raw)


if __name__ == "__main__":
    main(*sys.argv[1:3])
