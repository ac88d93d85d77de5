"""Set-up probe, run in a fresh interpreter by the benchmark.

    python3 probe_setup.py K,L [K,L ...]

Times ``import spherelink`` and then the first ``get_evaluator(k, l)`` of
each order given (the kernel-table build), and prints them as JSON.
"""

import json
import sys
import time

t0 = time.perf_counter()
import spherelink  # noqa: E402
from spherelink.kernels import get_evaluator  # noqa: E402

import_s = time.perf_counter() - t0
build_s = {}
for arg in sys.argv[1:]:
    k, l = (int(v) for v in arg.split(","))
    t1 = time.perf_counter()
    get_evaluator(k, l)
    build_s[arg] = time.perf_counter() - t1
print(json.dumps({"import_s": import_s, "build_s": build_s}))
