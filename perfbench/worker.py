"""One benchmark sample in a fresh interpreter.

Usage: python3 worker.py '<json job>'

The job names the spawn time (CLOCK_MONOTONIC, shared by all processes on the
machine), the CLI arguments, and whether to trace.  The worker imports
``fiochain.cli`` first, so ``setup_s`` covers interpreter start plus the
package import as a user pays it.  It then runs ``cli.main`` once and prints a
JSON result as its last stdout line.  A job without ``argv`` only measures
set-up.
"""

import json
import os
import sys
import time

job = json.loads(sys.argv[1])
from fiochain import cli  # noqa: E402

setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - job["spawned"]

import resource  # noqa: E402

src = os.path.realpath(job["src"])
if not os.path.realpath(cli.__file__).startswith(src + os.sep):
    sys.exit(f"fiochain imported from {cli.__file__}, not from {src}")

result = {"setup_s": setup_s}
if job.get("argv"):
    tracer = None
    if job.get("trace"):
        from tracing import Tracer

        tracer = Tracer(run_id=job.get("run_id", ""))
        tracer.install()
    before = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        rc = cli.main(job["argv"])
    finally:
        wall_s = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_SELF)
        if tracer is not None:
            tracer.uninstall()
    result.update(
        rc=rc,
        wall_s=wall_s,
        cpu_s=(after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        peak_rss_mb=after.ru_maxrss / 1024.0,
    )
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["missing_spans"] = tracer.missing
        if job.get("spans_path"):
            tracer.write_spans(job["spans_path"])
print(json.dumps(result))
