"""Set-up time of one workload, measured in this fresh interpreter.

    python3 perfbench/setup_probe.py <workload>

Times `import sinrmin` plus one warm-up pass of the workload at one
trial per sweep point (the first call only, for `analytic_grid`), which
fills the lazy quadrature and ordering caches. Prints one JSON line.
"""

import json
import os
import shutil
import sys
from time import perf_counter

from workloads import DEFAULT_SEED, WORK_DIR, WORKLOADS, setup_workload

wl = setup_workload(WORKLOADS[sys.argv[1]])
out = WORK_DIR / f"{wl.name}-setup-{os.getpid()}"
try:
    start = perf_counter()
    from passes import run_pass

    result = run_pass(wl, DEFAULT_SEED, out)
    elapsed = perf_counter() - start
finally:
    shutil.rmtree(out, ignore_errors=True)
if not result.ok:
    sys.exit(f"set-up pass of {wl.name} failed")
print(json.dumps({"setup_s": elapsed}))
