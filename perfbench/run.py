#!/usr/bin/env python3
"""Benchmark of sinrmin through its CLI entry point, `sinrmin.cli.main`.

    python3 perfbench/run.py --workload mc_rules --seed 3 --seconds 15 --trace 0

Run from the root of a checkout. Workloads are listed in workloads.py and
explained in RATIONALE.md. `--seed` becomes the CLI `--seed` of every
pass. The run repeats whole passes for `--seconds` seconds, in this one
process, with one worker and one BLAS thread.

--trace 0 prints the end-to-end metrics: the throughput of the median
pass and `setup_s`, the median over fresh interpreters, both at the
reference machine speed of calibrate.py.
--trace 1 alternates untraced and traced passes and prints the
per-layer metrics of the traced ones.

Before timing, a warm-up pass runs at the default seed and its tables
must equal the golden copy in golden/. Every timed pass must write the
same bytes as the first one, traced or not. The last line of standard
output is one JSON object; the exit code is 1 if the outputs did not
match, 2 if the checkout has no sinrmin sources.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import (
    BLAS_ENV,
    DEFAULT_SEED,
    GOLDEN_DIR,
    ROOT,
    SRC_DIR,
    WORK_DIR,
    WORKLOADS,
)

os.environ.update(BLAS_ENV)  # before numpy is first imported

SETUP_REPEATS = 5
MIN_PASSES = 3


def setup_seconds(wl, repeats):
    """`import sinrmin` plus the warm-up pass, each in a fresh interpreter,
    at reference machine speed (calibrate.py)."""
    from calibrate import probe_seconds, speed_factor

    probe = Path(__file__).resolve().parent / "setup_probe.py"
    times = []
    for _ in range(repeats):
        before = probe_seconds()
        proc = subprocess.run(
            [sys.executable, str(probe), wl.name],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up probe for {wl.name} exited {proc.returncode}")
        child_s = json.loads(proc.stdout.splitlines()[-1])["setup_s"]
        times.append(child_s * speed_factor(before, probe_seconds()))
    return times


def golden_tables(wl):
    return {name: (GOLDEN_DIR / wl.name / name).read_bytes() for name in wl.tables}


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def _blas_threads():
    import ctypes
    import glob

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs / "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def machine_block(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    for path in sorted((SRC_DIR / "sinrmin").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(path.relative_to(SRC_DIR).as_posix().encode())
            src.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "workers": 1,
        "git_commit": _git_commit(),
        "src_sha256": src.hexdigest()[:16],
        "seed": seed,
    }


def benchmark(wl, seed, seconds, trace, golden=True, setup_repeats=SETUP_REPEATS):
    """Measure one workload; returns (result dict, report lines).

    With `golden` false the warm-up pass is not compared with the golden
    copy (for shrunken workloads in the smoke test).
    """
    from passes import cli, run_pass
    from tracing import Tracer, layer_shares, per_layer_metrics

    out = WORK_DIR / f"{wl.name}-{os.getpid()}"
    report = [f"machine {json.dumps(machine_block(seed))}"]
    notes = []
    try:
        setup = [] if trace else setup_seconds(wl, setup_repeats)

        warm = run_pass(wl, DEFAULT_SEED, out)
        golden_ok = warm.ok
        if golden:
            expected = golden_tables(wl)
            golden_ok = golden_ok and warm.tables == expected
            if not golden_ok:
                bad = [n for n in wl.tables if warm.tables.get(n) != expected[n]]
                notes.append(f"seed {DEFAULT_SEED} tables differ from golden: {bad}")

        tracer = Tracer()
        traced_main = tracer.wrap(cli.main, "cli.main")
        plain, traced = [], []
        start = perf_counter()
        while len(plain) + len(traced) < MIN_PASSES or perf_counter() - start < seconds:
            if trace and len(plain) > len(traced):
                tracer.pass_id = len(traced)
                with tracer.installed():
                    traced.append(run_pass(wl, seed, out, traced_main, calibrate=True))
            else:
                plain.append(run_pass(wl, seed, out, calibrate=True))
    finally:
        shutil.rmtree(out, ignore_errors=True)

    runs = plain + traced
    reference = plain[0].tables
    same = all(r.tables == reference for r in runs)
    if not same:
        notes.append("passes wrote different tables")
    if seed == DEFAULT_SEED and reference != warm.tables:
        same = False
        notes.append("timed passes differ from the warm-up pass at the same seed")
    outputs_match = int(golden_ok and same and all(len(r.tables) == len(wl.tables) for r in runs))
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    correct = bool(outputs_match) and all(r.ok for r in runs)

    alias = "trials_per_s" if wl.kind == "mc" else "closed_forms_per_s"
    wall_s = sorted(r.seconds for r in plain)
    reference_s = statistics.median([r.reference_seconds for r in plain])
    throughput = plain[0].items / reference_s
    report.append(
        f"workload {wl.name}: seed {seed}, {len(plain)} untraced and {len(traced)} traced "
        f"passes of {plain[0].items} {'trials' if wl.kind == 'mc' else 'cells'}; untraced pass "
        f"wall time median {statistics.median(wall_s):.4f} s (fastest {wall_s[0]:.4f}, slowest "
        f"{wall_s[-1]:.4f}), at reference speed {reference_s:.4f} s"
    )
    report.append(f"failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted})")
    report.append(f"outputs_match = {outputs_match} bool" + "".join(f"; {n}" for n in notes))

    if trace:
        overhead = statistics.median([r.reference_seconds for r in traced]) / reference_s - 1
        metrics = per_layer_metrics(
            tracer,
            passes=len(traced),
            trials=len(traced) * wl.trials_per_pass(),
            alpha_hits=sum(r.alpha_hits for r in traced),
            alpha_misses=sum(r.alpha_misses for r in traced),
            overhead=overhead,
        )
        shares = layer_shares(tracer)
        report.append("self-time shares: " + ", ".join(f"{k} {v:.3f}" for k, v in shares.items()))
        tracer.write(WORK_DIR / f"spans-{wl.name}-seed{seed}.csv")
    else:
        metrics = {
            "throughput_per_s": (throughput, "1/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        report.append(
            f"{alias} = {throughput:.6g} 1/s at reference speed (reported as "
            f"throughput_per_s; {plain[0].items / statistics.median(wall_s):.6g} 1/s by wall time)"
        )
        report.append(f"setup runs at reference speed: {', '.join(f'{s:.4f}' for s in setup)} s")
    for name, (value, unit) in metrics.items():
        report.append(f"{name} = {value:.6g} {unit}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 bits")
    if not (SRC_DIR / "sinrmin" / "__init__.py").is_file():
        print(f"no sinrmin sources under {SRC_DIR}", file=sys.stderr)
        return 2

    result, report = benchmark(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    for line in report:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
