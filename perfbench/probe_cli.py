"""Traced ``spherelink`` CLI process, run in a fresh interpreter.

    python3 probe_cli.py TRACE_OUT link SPEC --stable

Times ``import spherelink.cli``, installs the span wrappers, runs
``spherelink.cli.main`` on the remaining arguments and writes the timings
and spans to TRACE_OUT (a JSON header line, then the span list).  Its own
work (wrapping, writing) is timed as ``probe_s`` so that the caller can
leave it out of the interpreter floor.
"""

import json
import sys
import time

t0 = time.perf_counter()
import spherelink.cli  # noqa: E402

t1 = time.perf_counter()
import spherelink  # noqa: E402
from tracing import Tracer  # noqa: E402

tracer = Tracer()
tracer.install(spherelink)
t2 = time.perf_counter()
code = spherelink.cli.main(sys.argv[2:])
t3 = time.perf_counter()
sys.stdout.flush()
tracer.uninstall()
spans = json.dumps([s.__dict__ for s in tracer.spans])
probe_s = (t2 - t1) + (time.perf_counter() - t3)
with open(sys.argv[1], "w") as fh:
    header = {"import_s": t1 - t0, "main_s": t3 - t2, "probe_s": probe_s, "exit_code": code}
    fh.write(json.dumps(header) + "\n" + spans)
sys.exit(code)
