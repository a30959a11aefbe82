"""Smoke test of the benchmark itself, at tiny workload sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every declared metric is printed with its unit, that traced
and untraced passes write the same tables, that a forced failure is
counted instead of crashing the run, and that a checkout without the
sinrmin sources exits non-zero without a result.
"""

import itertools
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (pins BLAS threads before numpy loads)
from passes import cli, run_pass  # noqa: E402
from sinrmin import experiment  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import ROOT, WORK_DIR, WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(wl):
    return replace(wl, trials=2) if wl.kind == "mc" else replace(wl, calls=wl.calls[:1])


def measure(name, trace):
    return run.benchmark(tiny(WORKLOADS[name]), seed=7, seconds=0, trace=trace,
                         golden=False, setup_repeats=1)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_printed_with_unit(name, trace):
    result, report = measure(name, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in report), m["name"]
    named = ["failed_frac = ", "outputs_match = 1 "]
    if not trace:
        named.append("trials_per_s = " if WORKLOADS[name].kind == "mc" else "closed_forms_per_s = ")
    for prefix in named:
        assert any(line.startswith(prefix) for line in report), prefix


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_tables_equal_untraced(name):
    wl = tiny(WORKLOADS[name])
    out = WORK_DIR / f"smoke-{name}"
    try:
        plain = run_pass(wl, 3, out)
        tracer = Tracer()
        with tracer.installed():
            traced = run_pass(wl, 3, out, tracer.wrap(cli.main, "cli.main"))
    finally:
        shutil.rmtree(out, ignore_errors=True)
    assert plain.ok and traced.ok
    assert traced.tables == plain.tables
    assert sorted(traced.tables) == sorted(wl.tables)
    assert tracer.spans and all(span is not None for span in tracer.spans)


def test_forced_failure_is_counted(monkeypatch):
    from sinrmin.errors import InfeasibleGeometryError

    real = experiment.approx_min_power
    calls = itertools.count()

    def flaky(*args, **kwargs):
        if next(calls) % 5 == 0:
            raise InfeasibleGeometryError("forced by the smoke test")
        return real(*args, **kwargs)

    def broken(*args, **kwargs):
        raise RuntimeError("forced by the smoke test")

    monkeypatch.setattr(experiment, "approx_min_power", flaky)
    result, report = measure("mc_rules", trace=0)
    assert result["failed"] > 0 and result["attempted"] > result["failed"]
    assert any(line.startswith("failed_frac = ") and not line.startswith("failed_frac = 0 ")
               for line in report)

    monkeypatch.setattr(cli, "run_sweep", broken)
    result, report = measure("mc_exact", trace=1)
    assert result["failed"] >= 3 and not result["correct"]
    assert any(line.startswith("outputs_match = 0") for line in report)


def test_bare_checkout_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(__file__).resolve().parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        BENCH["command"] + ["--workload", "mc_rules", "--seed", "1", "--seconds", "1",
                            "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
