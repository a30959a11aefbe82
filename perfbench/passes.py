"""One benchmark pass: the workload's CLI calls, timed, with their tables.

Importing this module imports sinrmin, and with it numpy and scipy, from
the checkout's `src/`; the set-up probe times that import.
"""

import csv
import io
import sys
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from calibrate import probe_seconds, speed_factor
from workloads import ANALYTIC_TABLE, SRC_DIR, Workload

sys.path.insert(0, str(SRC_DIR))

import sinrmin  # noqa: E402
from sinrmin import analytic, cli  # noqa: E402

if not Path(sinrmin.__file__).resolve().is_relative_to(SRC_DIR):
    raise ImportError(f"sinrmin loaded from {sinrmin.__file__}, not from {SRC_DIR}")

# bound before any tracing wrapper replaces the module attributes
ALPHA = analytic.alpha
MEAN_INVERSE = analytic.mean_inverse


@dataclass
class PassResult:
    call_seconds: list      # wall time of each CLI call, in call order
    ok: bool                # every call returned 0 without raising
    tables: dict            # table name -> bytes (missing tables are absent)
    items: int              # trials (mc) or closed-form cells (analytic)
    attempted: int          # trial x algorithm x method cells, or cells, plus 1
    failed: int             # infeasible cells, plus 1 if the pass failed
    alpha_hits: int = 0
    alpha_misses: int = 0
    speed_factors: list = field(default_factory=list)  # per call, see calibrate.py

    @property
    def seconds(self) -> float:
        return sum(self.call_seconds)

    @property
    def reference_seconds(self) -> float:
        """Pass time at the reference machine speed."""
        return sum(t * f for t, f in zip(self.call_seconds, self.speed_factors, strict=True))


def _count_cells(results: bytes) -> tuple[int, int]:
    """Priced cells and infeasible cells of a results.csv."""
    cells = infeasible = 0
    for rec in csv.DictReader(io.StringIO(results.decode())):
        if rec["power_method"] in ("approx", "exact"):
            cells += int(rec["trials"])
            infeasible += int(rec["infeasible_count"])
    return cells, infeasible


def run_pass(wl: Workload, seed: int, out: Path, main=None, calibrate=False) -> PassResult:
    """Run every call of `wl` once at `seed`, writing tables into `out`.

    `main` stands in for `sinrmin.cli.main` (the traced run passes a
    wrapped one). With `calibrate`, the machine-speed probe runs before
    and after every call. A call that raises or exits non-zero fails the
    pass but not the benchmark.
    """
    main = main or cli.main
    out.mkdir(parents=True, exist_ok=True)
    for name in wl.tables:
        (out / name).unlink(missing_ok=True)
    ok = True
    stdout = []
    hits = misses = 0
    call_seconds = []
    speed_factors = []
    for call in wl.calls:
        if wl.kind == "analytic":
            # cold caches, as in a fresh `sinrmin analytic` process
            ALPHA.cache_clear()
            MEAN_INVERSE.cache_clear()
        before = ALPHA.cache_info()
        probe_before = probe_seconds() if calibrate else None
        buf = io.StringIO()
        start = perf_counter()
        try:
            with redirect_stdout(buf):
                rc = main(wl.argv(call, seed, out))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            rc = None
        call_seconds.append(perf_counter() - start)
        if calibrate:
            speed_factors.append(speed_factor(probe_before, probe_seconds()))
        after = ALPHA.cache_info()
        hits += after.hits - before.hits
        misses += after.misses - before.misses
        ok = ok and rc == 0
        stdout.append(buf.getvalue())

    if wl.kind == "analytic":
        text = "".join(stdout)
        tables = {ANALYTIC_TABLE: text.encode()}
        items = sum(len(chunk.splitlines()) - 1 for chunk in stdout if chunk)
        attempted, failed = items, 0
    else:
        tables = {n: (out / n).read_bytes() for n in wl.tables if (out / n).is_file()}
        items = wl.trials_per_pass()
        attempted, failed = _count_cells(tables.get("results.csv", b""))
    return PassResult(
        call_seconds=call_seconds,
        ok=ok,
        tables=tables,
        items=items,
        attempted=attempted + 1,
        failed=failed + (0 if ok else 1),
        alpha_hits=hits,
        alpha_misses=misses,
        speed_factors=speed_factors,
    )
