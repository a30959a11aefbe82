"""Workload table for the sinrmin benchmark.

Every workload is a list of `sinrmin.cli.main` invocations that together
make one *pass*. The trial counts are fixed here, not scaled by run
length, so one pass always does the same work and its tables can be
compared byte for byte with the golden copy.

This module imports nothing from numpy, scipy or sinrmin: the set-up
probe loads it before it starts its clock.
"""

from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
SRC_DIR = ROOT / "src"
GOLDEN_DIR = BENCH_DIR / "golden"
WORK_DIR = ROOT / ".perfbench_out"

DEFAULT_SEED = 0

# every pass runs in-process on one core; BLAS gets one thread too
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

MC_TABLES = ("results.csv", "validation.csv", "figure.csv")
ANALYTIC_TABLE = "analytic.csv"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    kind      "mc" (one `figure`/`simulate` run per pass) or "analytic"
              (one `analytic` run per entry of `calls` per pass)
    calls     CLI argument lists without --seed, --trials and --out
    trials    Monte Carlo trials per sweep point ("mc" only)
    points    sweep points per `mc` call, so trials per pass is
              trials * points
    tables    files compared between passes and against the golden copy
    """

    name: str
    kind: str
    calls: tuple[tuple[str, ...], ...]
    trials: int = 0
    points: int = 1
    tables: tuple[str, ...] = MC_TABLES

    def argv(self, call: tuple[str, ...], seed: int, out: Path) -> list[str]:
        args = list(call) + ["--seed", str(seed)]
        if self.kind == "mc":
            args += ["--trials", str(self.trials), "--workers", "1", "--out", str(out)]
        return args

    def trials_per_pass(self) -> int:
        return self.trials * self.points if self.kind == "mc" else 0


_EXACT_CALL = (
    "simulate", "--M", "4", "--K", "8", "--Ks", "3", "--gamma-db", "10",
    "--sigma-sq", "0.1", "--algorithms", "NUS,SUS,AUS,RUS,EXHAUSTIVE",
    "--power-method", "both",
)

_ANALYTIC_CALLS = tuple(
    (
        "analytic", "--config", str(BENCH_DIR / "analytic_k_sweep.cfg"),
        "--M", str(m), "--Ks", str(k_s),
    )
    for k_s in (2, 4)
    for m in range(4, 9)
)

WORKLOADS = {
    wl.name: wl
    for wl in (
        # packaged fig2: K = 4..20 (9 points), NUS/SUS/AUS/RUS, approx
        Workload("mc_rules", "mc", (("figure", "2"),), trials=50, points=9),
        # packaged fig4: K = 5..20 (6 points), the four rules + EXHAUSTIVE
        Workload("mc_exhaustive", "mc", (("figure", "4"),), trials=2, points=6),
        # single point, all five algorithms, exact and approx pricing
        Workload("mc_exact", "mc", (_EXACT_CALL,), trials=10, points=1,
                 tables=("results.csv", "validation.csv")),
        # M = 4..8 x K = 8..16 x K_s in {2, 4}, cold caches per call
        Workload("analytic_grid", "analytic", _ANALYTIC_CALLS,
                 tables=(ANALYTIC_TABLE,)),
    )
}


def setup_workload(wl: Workload) -> Workload:
    """The warm-up pass timed by `setup_s`: one trial per point, or the
    first `analytic` call of the grid."""
    if wl.kind == "mc":
        return replace(wl, trials=1)
    return replace(wl, calls=wl.calls[:1])
