"""Rewrite the golden tables from the sources in this checkout.

    python3 perfbench/record_golden.py [workload ...]

Runs one pass of each workload (all by default) at the default seed and
stores its tables under perfbench/golden/<workload>/. Only for a change
that alters results on purpose; say why in CHANGES.md.
"""

import os
import shutil
import sys

from workloads import BLAS_ENV, DEFAULT_SEED, GOLDEN_DIR, WORK_DIR, WORKLOADS

os.environ.update(BLAS_ENV)

from passes import run_pass  # noqa: E402

for name in sys.argv[1:] or sorted(WORKLOADS):
    wl = WORKLOADS[name]
    out = WORK_DIR / f"{name}-golden-{os.getpid()}"
    try:
        result = run_pass(wl, DEFAULT_SEED, out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if not result.ok:
        sys.exit(f"{name}: pass failed, golden copy left unchanged")
    target = GOLDEN_DIR / name
    target.mkdir(parents=True, exist_ok=True)
    for table, data in result.tables.items():
        (target / table).write_bytes(data)
    print(f"{name}: wrote {', '.join(sorted(result.tables))} to {target}")
