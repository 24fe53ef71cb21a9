"""One `tifem` CLI invocation in a fresh interpreter, as a user's command runs.

run.py starts it with BLAS/OpenMP threads pinned to 1 and `src` on the path:

    python3 perfbench/worker.py '{"argv": [...], "trace": false, "spans": null}'

and reads one JSON line back: when `tifem.cli` finished importing (a
`time.perf_counter` reading, which on Linux is comparable across processes),
the seconds spent in `cli.main`, its exit code and the process's peak RSS.
With `trace` set, the tracer is installed before the timer starts, and the
line adds per-layer self times and exact counters; the spans go to the file
named by `spans`.
"""

import json
import sys
import time

from tifem import cli

READY = time.perf_counter()

import platform  # noqa: E402 - after the set-up time is taken
import resource  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

from tracing import Tracer  # noqa: E402


def main(job):
    tracer = Tracer() if job["trace"] else None
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    code = cli.main(job["argv"])
    wall = time.perf_counter() - start
    record = {
        "ready": READY,
        "wall_s": wall,
        "code": code,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer is not None:
        record["self_s"], record["counts"] = tracer.summary()
        tracer.write_spans(job["spans"])
    return record


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
