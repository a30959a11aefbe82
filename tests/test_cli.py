"""CLI tests: parsing, subcommands, file stability, exit codes."""

import contextlib
import csv
import io
import subprocess
import sys
import tempfile
import typing
from concurrent.futures.process import BrokenProcessPool
from dataclasses import MISSING, fields
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sinrmin.analytic as analytic
from sinrmin.cli import (
    CONFIG_FLAGS,
    build_config,
    build_parser,
    config_hash,
    main,
    parse_config,
    parse_config_text,
    read_results,
)
from sinrmin.errors import ConfigError
from sinrmin.experiment import ExperimentConfig, ResultRow, run_sweep, validate_rows

BASE_FLAGS = [
    "--M", "4", "--K", "8", "--Ks", "2", "--gamma-db", "10",
    "--sigma-sq", "0.1", "--algorithms", "NUS,RUS",
]


# ---------------------------------------------------------------------------
# config parsing


def test_parse_text_types_and_comments():
    values = parse_config_text(
        "# header comment\n"
        "M=4\n"
        "K = 10  # inline comment\n"
        "K_s=2\n"
        "gamma_db=10\n"
        "sigma_sq=0.1\n"
        "algorithms=NUS, SUS\n"
        "trials=50\n"
        "master_seed=3\n"
        "power_method=both\n"
        "sweep_axis=K\n"
        "sweep_values=3,4,5\n"
        "exhaustive_budget=1000\n"
    )
    assert values["M"] == 4 and values["K"] == 10
    assert values["gamma_db"] == 10.0
    assert values["algorithms"] == ("NUS", "SUS")
    assert values["sweep_values"] == (3, 4, 5)
    # every config key, each parsed to its annotated type
    assert values.keys() == {f.name for f in fields(ExperimentConfig)}
    for f in fields(ExperimentConfig):
        value = values[f.name]
        if typing.get_origin(f.type) is tuple:
            (kind, _) = typing.get_args(f.type)
            assert isinstance(value, tuple)
            assert all(type(v) is kind for v in value), f.name
        else:
            assert type(value) in (typing.get_args(f.type) or (f.type,)), f.name
    # an empty dimension parses as unset (valid only on the swept axis);
    # an empty count is still an error
    assert parse_config_text("M=\n") == {"M": None}
    with pytest.raises(ConfigError, match="K_s"):
        parse_config_text("K_s=\n")


def test_parse_text_errors_name_key_and_line():
    with pytest.raises(ConfigError, match="frobnicate"):
        parse_config_text("M=4\nfrobnicate=1\n")
    with pytest.raises(ConfigError, match=":2"):
        parse_config_text("M=4\nfrobnicate=1\n")
    with pytest.raises(ConfigError, match="M"):
        parse_config_text("M=four\n")
    with pytest.raises(ConfigError, match=":1"):
        parse_config_text("just words\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("M=4\nM=5\n")


def test_build_config_requires_core_keys():
    with pytest.raises(ConfigError, match="gamma_db"):
        build_config({"M": 4, "K": 8, "K_s": 2, "sigma_sq": 0.1,
                      "algorithms": ("NUS",)})


def test_flags_and_required_keys_come_from_the_config_fields():
    names = [f.name for f in fields(ExperimentConfig)]
    for flag, field, _ in CONFIG_FLAGS:
        assert field in names, flag
        args = build_parser().parse_args(["analytic", flag, "raw"])
        assert getattr(args, field) == "raw", flag  # the raw text, parsed later
    required = {f.name for f in fields(ExperimentConfig) if f.default is MISSING}
    full = {"M": 4, "K": 8, "K_s": 2, "gamma_db": 10.0, "sigma_sq": 0.1,
            "algorithms": ("NUS",)}
    assert build_config(full) == ExperimentConfig(**full)  # the defaults are the fields'
    for name in full:
        try:
            build_config({k: v for k, v in full.items() if k != name})
            missing = False
        except ConfigError as exc:
            missing = str(exc) == f"missing required key {name!r}"
        assert missing == (name in required), name


def test_parse_config_flags_override_file(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "M=4\nK=8\nK_s=2\ngamma_db=10\nsigma_sq=0.1\n"
        "algorithms=NUS\ntrials=50\nmaster_seed=1\n"
    )
    cfg = parse_config(cfg_file, {"trials": 7, "master_seed": 9})
    assert cfg.trials == 7 and cfg.master_seed == 9
    assert cfg.M == 4


def test_parse_config_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        parse_config("/nonexistent/zzz.cfg")


def test_constraint_error_names_both_dimensions(tmp_path):
    with pytest.raises(ConfigError, match="K_s=5.*M=4"):
        parse_config(None, {
            "M": 4, "K": 8, "K_s": 5, "gamma_db": 10.0, "sigma_sq": 0.1,
            "algorithms": ("NUS",),
        })


def test_db_conversion_happens_exactly_once(tmp_path):
    cfg = parse_config(None, {
        "M": 4, "K": 8, "K_s": 2, "gamma_db": 0.0, "sigma_sq": 0.1,
        "algorithms": ("NUS",),
    })
    assert cfg.gamma_linear == pytest.approx(1.0, rel=1e-12)


def test_config_hash_stable_and_sensitive():
    values = {
        "M": 4, "K": 8, "K_s": 2, "gamma_db": 10.0, "sigma_sq": 0.1,
        "algorithms": ("NUS",), "trials": 10, "master_seed": 3,
    }
    a = config_hash(build_config(values))
    b = config_hash(build_config(dict(values)))
    c = config_hash(build_config({**values, "trials": 11}))
    assert a == b != c
    assert len(a) == 64


def test_canonical_text_loads_back():
    configs = [build_config({
        "M": 4, "K": 8, "K_s": 2, "gamma_db": 10.0, "sigma_sq": 0.1, "algorithms": ("NUS",),
    })]
    for n in (1, 2, 3, 4):  # each sweeps M or K and leaves that field unset
        ref = resources.files("sinrmin").joinpath(f"configs/fig{n}.cfg")
        with resources.as_file(ref) as path:
            configs.append(parse_config(path))
    for cfg in configs:
        assert build_config(parse_config_text(cfg.canonical())) == cfg


# ---------------------------------------------------------------------------
# subcommands through main()


def test_analytic_prints_six_decimals(capsys):
    rc = main(["analytic", *BASE_FLAGS, "--algorithms", "RUS"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "RUS,0.833333" in out
    assert "LOWER_BOUND,0.341024" in out


def test_analytic_markers_for_undefined_rows(capsys):
    rc = main([
        "analytic", "--M", "3", "--K", "10", "--Ks", "4",
        "--gamma-db", "10", "--sigma-sq", "0.1",
        "--algorithms", "NUS,AUS,RUS",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    nus_row = next(line for line in out.splitlines() if ",NUS," in line)
    assert "divergent" in nus_row and "M=3" in nus_row
    aus_row = next(line for line in out.splitlines() if ",AUS," in line)
    assert "no_closed_form" in aus_row
    rus_row = next(line for line in out.splitlines() if ",RUS," in line)
    assert "divergent" in rus_row


def test_analytic_writes_file_only_on_request(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["analytic", *BASE_FLAGS]) == 0
    assert not (tmp_path / "analytic.csv").exists()
    out = tmp_path / "saved"
    assert main(["analytic", *BASE_FLAGS, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert (out / "analytic.csv").read_text() in stdout


def test_analytic_sweep_rows(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "K=10\nK_s=2\ngamma_db=10\nsigma_sq=0.1\nalgorithms=SUS\n"
        "sweep_axis=M\nsweep_values=4,6\n"
    )
    rc = main(["analytic", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "M,4,SUS,0.363248" in out
    assert any(line.startswith("M,6,SUS,") for line in out.splitlines())


def test_simulate_writes_stable_files(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["simulate", *BASE_FLAGS, "--trials", "300", "--seed", "11"]
    assert main([*args, "--out", str(out1)]) == 0
    assert main([*args, "--out", str(out2), "--workers", "3"]) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    assert (out1 / "validation.csv").read_bytes() == (out2 / "validation.csv").read_bytes()
    m1 = dict(l.split("=", 1) for l in (out1 / "manifest.txt").read_text().splitlines())
    m2 = dict(l.split("=", 1) for l in (out2 / "manifest.txt").read_text().splitlines())
    assert m1["config_hash"] == m2["config_hash"]
    assert m1["master_seed"] == "11"
    assert set(m1) == {"config_hash", "tool_version", "timestamp", "master_seed"}


@pytest.mark.parametrize("flags, message", [
    (["--M", "4.5"], "bad value '4.5' for key 'M' on command line"),
    (["--Ks", "2.0"], "bad value '2.0' for key 'K_s' on command line"),
    (["--power-method", "fast"], "power_method must be exact, approx, or both"),
    (["--M="], "M must be a positive integer"),  # unset, as M= in a config file
])
def test_bad_flag_value_is_one_config_error_line(capsys, flags, message):
    assert main(["analytic", *BASE_FLAGS, *flags]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"  # no usage text


def test_nus_at_a_trillion_users(capsys):
    # the second-largest norm's quadrature holds its tolerance at any K; it
    # exited 3 here when it formed G^{K-2} from a G rounded near 1. mpmath
    # gives 0.0677908309989 for the NUS sum
    argv = ["analytic", *BASE_FLAGS, "--K", str(10**12), "--algorithms", "NUS"]
    assert main(argv) == 0
    assert "none,,NUS,0.067791\n" in capsys.readouterr().out


def test_order_statistics_past_the_float_range(capsys):
    # r C(K, r) overflowed a float from r = 18 at K = 1e18, and both rows
    # exited 3 with "int too large to convert to float"
    flags = ["--K", str(10**18), "--Ks", "20", "--gamma-db", "10", "--sigma-sq", "0.1"]
    assert main(["analytic", "--M", "20", *flags, "--algorithms", "SUS"]) == 0
    assert "none,,SUS,0.328292\n" in capsys.readouterr().out
    assert main(["analytic", "--M", "2", *flags, "--algorithms", "NUS"]) == 0
    assert "NUS term i=2 diverges" in capsys.readouterr().out


def test_quadrature_that_loses_its_tolerance_exits_3(capsys, monkeypatch):
    # with no tolerance and no roundoff floor no panel passes, so the panels
    # double until the cap
    analytic.alpha.cache_clear()
    analytic.mean_inverse.cache_clear()
    monkeypatch.setattr(analytic, "_QUAD_REL", 0.0)
    monkeypatch.setattr(analytic, "_ROUNDOFF", 0.0)
    assert main(["analytic", *BASE_FLAGS, "--algorithms", "NUS"]) == 3
    assert capsys.readouterr().err == (
        "error: quadrature lost its tolerance for alpha(4, 7) on [0, 40] at 1024 panels\n")
    analytic.alpha.cache_clear()


def test_analytic_past_the_linear_kernel_prints_every_value(capsys):
    # M = 200 takes the Gamma kernel's log-space density; RUS is a closed form
    flags = ["--M", "200", "--K", "8", "--Ks", "2", "--gamma-db", "10", "--sigma-sq", "0.1"]
    assert main(["analytic", *flags, "--algorithms", "NUS,SUS,AUS,RUS"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "none,,NUS,0.009286", "none,,SUS,0.009286", "none,,AUS,0.009639",
        "none,,RUS,0.010076", "none,,LOWER_BOUND,0.009266"]


def test_m_past_the_gamma_kernel_bound_exits_3(capsys):
    m = analytic._MAX_M + 1
    flags = ["--M", str(m), "--K", "8", "--Ks", "2", "--gamma-db", "10", "--sigma-sq", "0.1"]
    assert main(["analytic", *flags, "--algorithms", "NUS"]) == 3
    assert capsys.readouterr().err == (
        f"error: the Gamma(M, 1) laws are evaluated for M <= {analytic._MAX_M}, got M={m}\n")


def test_commands_do_not_import_scipy_integrate(tmp_path):
    # the quadrature and the special functions are the package's own, so
    # neither command loads any part of scipy; pytest's filterwarnings setting
    # imports scipy.integrate into this process, so a fresh one runs both
    code = "\n".join((
        "import sys",
        "from sinrmin.cli import main",
        f"assert main(['analytic', *{BASE_FLAGS!r}, '--algorithms', 'NUS,SUS,AUS,RUS']) == 0",
        f"assert main(['simulate', *{BASE_FLAGS!r}, '--trials', '1', '--out', {str(tmp_path)!r}]) == 0",
        "print(*sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))",
    ))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == ""
    assert (tmp_path / "results.csv").is_file()


def test_simulate_rejects_bad_trials(tmp_path, capsys):
    rc = main(["simulate", *BASE_FLAGS, "--trials", "0", "--out", str(tmp_path)])
    assert rc == 2
    assert "trials" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_simulate_rejects_bad_workers(tmp_path, capsys, workers):
    rc = main(["simulate", *BASE_FLAGS, "--workers", workers, "--out", str(tmp_path)])
    assert rc == 2
    assert "workers" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analytic", "simulate"])
def test_non_finite_noise_exits_2(tmp_path, capsys, command):
    rc = main([command, *BASE_FLAGS, "--sigma-sq", "inf", "--out", str(tmp_path)])
    assert rc == 2
    assert "sigma_sq" in capsys.readouterr().err


def test_gamma_overflow_exits_2(tmp_path, capsys):
    # 10 ** 400 overflows a float; the later flag overrides the base one
    rc = main(["analytic", *BASE_FLAGS, "--gamma-db", "4000", "--out", str(tmp_path)])
    assert rc == 2
    assert "gamma_db" in capsys.readouterr().err


@pytest.mark.parametrize("trials", ("3", "200"))
def test_overflowing_moments_exit_3(tmp_path, capsys, trials):
    # 3 trials: the mean is finite and the stderr overflows; 200: both do
    rc = main(["simulate", *BASE_FLAGS, "--K", "10", "--gamma-db", "3082",
               "--algorithms", "NUS", "--trials", trials, "--out", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "NUS approx at M=4, K=10" in err and "must be finite" in err
    assert "Warning" not in err
    assert not (tmp_path / "results.csv").exists()


def test_arithmetic_error_exits_3(tmp_path, capsys, monkeypatch):
    def fail(cfg, workers=1):
        raise ArithmeticError("closed forms disagree")

    monkeypatch.setattr("sinrmin.cli.run_sweep", fail)
    rc = main(["simulate", *BASE_FLAGS, "--out", str(tmp_path)])
    assert rc == 3
    assert "error: closed forms disagree" in capsys.readouterr().err


def test_broken_process_pool_exits_3(tmp_path, capsys, monkeypatch):
    def fail(cfg, workers=1):
        raise BrokenProcessPool("a worker died")

    monkeypatch.setattr("sinrmin.cli.run_sweep", fail)
    rc = main(["simulate", *BASE_FLAGS, "--out", str(tmp_path)])
    assert rc == 3
    assert "error: a worker died" in capsys.readouterr().err


def test_empty_list_items_are_skipped(capsys):
    # a doubled comma is not an error: the empty item is dropped
    assert main(["analytic", *BASE_FLAGS, "--algorithms", "NUS,,SUS,"]) == 0
    skipped = capsys.readouterr().out
    assert main(["analytic", *BASE_FLAGS, "--algorithms", "NUS,SUS"]) == 0
    assert skipped == capsys.readouterr().out
    assert ",NUS," in skipped and ",SUS," in skipped


@pytest.mark.parametrize("flags, nbytes", [
    (["--K", str(10**12), "--trials", "1"], "64000000000000 bytes"),  # one trial's channels
    (["--K", "6", "--trials", str(10**10)], "80000000000 bytes"),  # the point's samples
])
def test_memory_bounds_exit_2_before_any_work(tmp_path, capsys, monkeypatch, flags, nbytes):
    monkeypatch.setattr("sinrmin.cli.run_sweep", None)  # never reached
    argv = ["simulate", "--M", "4", "--Ks", "2", "--gamma-db", "10", "--sigma-sq", "0.1",
            "--algorithms", "NUS", *flags, "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and nbytes in err
    assert not (tmp_path / "out").exists()


def test_memory_error_exits_3(tmp_path, capsys, monkeypatch):
    # the backstop for an allocation too large for the machine
    for exc, line in ((MemoryError("Unable to allocate 58.2 TiB"), "Unable to allocate 58.2 TiB"),
                      (MemoryError(), "MemoryError")):
        def fail(cfg, workers=1):
            raise exc

        monkeypatch.setattr("sinrmin.cli.run_sweep", fail)
        rc = main(["simulate", *BASE_FLAGS, "--out", str(tmp_path)])
        assert rc == 3
        assert capsys.readouterr().err == f"error: {line}\n"  # no traceback


def test_keyboard_interrupt_exits_3(tmp_path, capsys, monkeypatch):
    def interrupt(cfg, workers=1):
        raise KeyboardInterrupt

    monkeypatch.setattr("sinrmin.cli.run_sweep", interrupt)
    rc = main(["simulate", *BASE_FLAGS, "--out", str(tmp_path)])
    assert rc == 3
    assert capsys.readouterr().err == "interrupted\n"  # no traceback


def test_unwritable_out_exits_3(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    rc = main(["simulate", *BASE_FLAGS, "--trials", "5", "--out", str(blocker / "x")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Not a directory" in err
    assert "Traceback" not in err


def test_validate_missing_results_exits_2(tmp_path, capsys):
    rc = main(["validate", str(tmp_path / "absent.csv"), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "results file not found" in err and "Traceback" not in err


def test_failed_write_keeps_old_tables(tmp_path, capsys, monkeypatch):
    args = ["simulate", *BASE_FLAGS, "--trials", "20", "--out", str(tmp_path)]
    assert main(args) == 0
    old = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert set(old) == {"results.csv", "validation.csv", "manifest.txt"}
    real_writer = csv.writer

    class HalfWriter:
        """Writes the header and one row, then fails like a full disk."""

        def __init__(self, fh, **kwargs):
            self._inner = real_writer(fh, **kwargs)
            self.writerow = self._inner.writerow

        def writerows(self, rows):
            rows = iter(rows)
            self._inner.writerow(next(rows))
            raise OSError("no space left on device")

    monkeypatch.setattr("sinrmin.cli.csv.writer", HalfWriter)
    assert main([*args, "--seed", "5"]) == 3
    assert capsys.readouterr().err == "error: no space left on device\n"
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == old


def test_results_roundtrip_via_validate(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "M=4\nK=8\nK_s=2\ngamma_db=10\nsigma_sq=0.1\ntrials=400\nmaster_seed=3\n"
        "algorithms=NUS,RUS,EXHAUSTIVE\nexhaustive_budget=1\n"
    )
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    rows = read_results(out / "results.csv")
    assert {r.algorithm for r in rows} == {"NUS", "RUS", "EXHAUSTIVE", "LOWER_BOUND"}
    (skipped,) = [r for r in rows if r.note == "budget_exceeded"]
    assert skipped.algorithm == "EXHAUSTIVE" and skipped.trials == 0
    assert skipped.mc_mean is None and skipped.mc_stderr is None
    expected = run_sweep(parse_config(cfg_path))
    assert len(rows) == len(expected)
    for got, want in zip(rows, expected):
        for f in fields(ResultRow):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if isinstance(b, float):
                b = float(format(b, ".9g"))
            assert a == b, f.name  # None stays None
    rc = main(["validate", str(out / "results.csv"), "--out", str(out), "--strict"])
    assert rc == 0
    with open(out / "validation.csv", newline="") as fh:
        header, *cells = csv.reader(fh)
    assert header == ["sweep_axis", "sweep_value", "algorithm", "check",
                      "mc_mean", "mc_stderr", "analytic_value", "status"]
    report = validate_rows(rows)
    assert cells and [c[-1] for c in cells] == [
        "pass" if v.passed else "fail" for v in report
    ]


def test_validate_strict_fails_on_bad_rows(tmp_path, capsys):
    bad = tmp_path / "results.csv"
    bad.write_text(
        "sweep_axis,sweep_value,algorithm,power_method,trials,seed,mc_mean,"
        "mc_stderr,analytic_value,infeasible_count,note\n"
        "none,,SUS,approx,1000,1,0.42,0.002,0.363248257,0,\n"
    )
    rc = main(["validate", str(bad), "--out", str(tmp_path), "--strict"])
    assert rc == 4
    err = capsys.readouterr().err
    assert "FAIL SUS" in err
    rc = main(["validate", str(bad), "--out", str(tmp_path)])
    assert rc == 0  # report-only without --strict
    assert (tmp_path / "validation.csv").read_text().count("fail") == 1


@pytest.mark.parametrize("flag, value", [
    ("--rel-tol", "nan"), ("--rel-tol", "inf"), ("--rel-tol", "-0.1"), ("--z", "inf"), ("--z", "nan"),
])
def test_validate_rejects_bad_tolerances(tmp_path, capsys, flag, value):
    results = tmp_path / "results.csv"
    results.write_text(
        "sweep_axis,sweep_value,algorithm,power_method,trials,seed,mc_mean,"
        "mc_stderr,analytic_value,infeasible_count,note\n"
        "none,,NUS,approx,1000,1,0.38,0.002,0.383311,0,\n"
    )
    rc = main(["validate", str(results), "--out", str(tmp_path), flag, value])
    assert rc == 2
    name = flag[2:].replace("-", "_")
    assert capsys.readouterr().err.startswith(f"config error: {name} must be finite")


def test_validate_rejects_foreign_csv(tmp_path, capsys):
    alien = tmp_path / "other.csv"
    alien.write_text("a,b\n1,2\n")
    rc = main(["validate", str(alien), "--out", str(tmp_path)])
    assert rc == 2
    short = tmp_path / "short.csv"
    short.write_text(
        "sweep_axis,sweep_value,algorithm,power_method,trials,seed,mc_mean,"
        "mc_stderr,analytic_value,infeasible_count,note\n"
        "none,,SUS,approx,1000\n"
    )
    rc = main(["validate", str(short), "--out", str(tmp_path)])
    assert rc == 2
    garbled = tmp_path / "garbled.csv"
    garbled.write_text(
        "sweep_axis,sweep_value,algorithm,power_method,trials,seed,mc_mean,"
        "mc_stderr,analytic_value,infeasible_count,note\n"
        "none,,SUS,approx,abc,1,1.0,0.1,1.0,0,\n"
    )
    rc = main(["validate", str(garbled), "--out", str(tmp_path)])
    assert rc == 2
    assert "row 1: column trials has 'abc'" in capsys.readouterr().err


def test_figure_runs_packaged_config(tmp_path, capsys):
    out = tmp_path / "fig"
    rc = main(["figure", "2", "--trials", "60", "--out", str(out),
               "--emit-plot-script"])
    assert rc == 0
    rows = read_results(out / "results.csv")
    sweep_values = sorted({r.sweep_value for r in rows})
    assert sweep_values == [4, 6, 8, 10, 12, 14, 16, 18, 20]
    assert {r.algorithm for r in rows} == {"NUS", "SUS", "AUS", "RUS", "LOWER_BOUND"}
    header = (out / "figure.csv").read_text().splitlines()[0]
    assert header.startswith("K,")
    assert "SUS_approx_mc" in header and "LOWER_BOUND_analytic" in header
    assert (out / "plot_results.py").exists()


def test_figure_rejects_a_value_for_its_swept_dimension(tmp_path, capsys):
    assert main(["figure", "1", "--M", "8", "--trials", "3", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "config error: M=8 given for the swept dimension M\n"


def test_figure_rejects_unknown_id():
    with pytest.raises(SystemExit) as exc:
        main(["figure", "7", "--out", "/tmp/zz"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, flag", [
    (["figure", "2", "--config", "my.cfg"], "--config"),  # the packaged config is the run
    (["analytic", *BASE_FLAGS, "--strict"], "--strict"),  # nothing to validate
])
def test_subcommands_take_only_the_flags_they_read(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main([argv[0], "--help"])
    assert flag not in capsys.readouterr().out


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "sinrmin", "analytic", *BASE_FLAGS,
         "--algorithms", "RUS"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "0.833333" in proc.stdout



# ---------------------------------------------------------------------------
# exit codes over a small grammar of argv and config text

_EDGE = ("nan", "inf", "-inf", "1e308", "-1e308", str(2**64), "-1", "-2.5", "0")
_NOT_NUMBERS = ("abc", "", "1,2", "0x10")
_ALG_ITEMS = ("NUS", "SUS", "AUS", "RUS", "EXHAUSTIVE", "", "FOO")
# per flag (or config key): values a run accepts, and values it must reject
# cleanly; a simulation rejects a huge K or trial count by the memory bounds
# of ExperimentConfig.validate, before it allocates anything
_GRAMMAR = {
    "M": (("2", "4", "6"), ("-1", "0", "nan", "inf", "1e308", "2.5") + _NOT_NUMBERS),
    "K": (("3", "6"), ("-1", "0", "nan", "inf", "1e308", "2.5", str(10**12)) + _NOT_NUMBERS),
    "Ks": (("1", "2", "3"), ("-1", "0", "5", "6", "nan", "2.5") + _NOT_NUMBERS),
    "gamma-db": (("10", "-3"), ("3082", "4000") + _EDGE + _NOT_NUMBERS),
    "sigma-sq": (("0.1", "1"), _EDGE + _NOT_NUMBERS),
    "seed": (("0", str(2**64 - 1)), ("-1", str(2**64), "nan", "")),
    "algorithms": (("NUS,SUS,AUS,RUS,EXHAUSTIVE", "RUS", "AUS,EXHAUSTIVE"), None),
    "power-method": (("exact", "approx", "both"), ("", "fast")),
    "trials": (("1", "2"), ("-1", "0", str(10**10))),
    "workers": (("1",), ("-1", "0")),
    "sweep-axis": (("none",), ("M", "K", "", "T")),
    "sweep-values": (("",), None),
    "exhaustive-budget": (("1000000",), ("1", "0", "-1", str(2**64), "nan")),
    "rel-tol": (("0.02",), _EDGE + _NOT_NUMBERS),
    "z": (("3",), _EDGE + _NOT_NUMBERS),
}
_LISTS = {"algorithms": _ALG_ITEMS, "sweep-values": ("-1", "0", "2", "6", "", "x", "nan")}
_CONFIG_ONLY = ("sweep-axis", "sweep-values", "exhaustive-budget")


def _rarely(draw) -> bool:
    return draw(st.sampled_from(range(12))) == 0


def _value(draw, name):
    """A value for `name`, one it must reject about one time in twelve."""
    valid, bad = _GRAMMAR[name]
    if not _rarely(draw):
        return draw(st.sampled_from(valid))
    if bad is None:  # a list with empty, unknown or repeated items
        return ",".join(draw(st.lists(st.sampled_from(_LISTS[name]), max_size=4)))
    return draw(st.sampled_from(bad))


def _pick(draw, usual, rare):
    return draw(st.sampled_from(rare if _rarely(draw) else usual))


@st.composite
def _invocations(draw):
    """(argv with placeholder paths, --config kind, config text, results text)."""
    command = draw(st.sampled_from(("analytic", "simulate", "figure", "validate")))
    config = _pick(draw, ("none", "file"), ("missing", "dir"))
    if command == "validate":  # it takes no --config
        argv = [command, _pick(draw, ("results",), ("missing", "dir", "file"))]
        names, config = ["rel-tol", "z"], "none"
    else:
        argv = [command]
        if command == "figure":  # it runs its packaged config, and takes no --config
            argv.append(_pick(draw, ("1", "2", "3", "4"), ("5", "x")))
            config = "none"
        names = [n for n in _GRAMMAR if n not in _CONFIG_ONLY + ("rel-tol", "z")]
        if command == "analytic":
            names.remove("workers")
    for name in names:
        # without --trials a packaged figure runs 20,000 trials a point; with
        # a config file, a flag left out leaves that file's value in force
        passed = not _rarely(draw) and (config != "file" or draw(st.booleans()))
        if passed or name == "trials":
            argv.append(f"--{name}={_value(draw, name)}")  # "=": a value may start with -
    if command != "analytic" and draw(st.booleans()):
        argv.append("--strict")  # a failed validation row exits 4
    lines = []
    keys = {flag[2:]: field for flag, field, _ in CONFIG_FLAGS}
    for name in _GRAMMAR:
        key = keys.get(name, name.replace("-", "_"))
        if name not in ("rel-tol", "z", "workers") and not _rarely(draw):
            lines.append(f"{key}={_value(draw, name)}")
    for line in ("unknown_key=1", "no equals sign", "M=4", "K=4"):  # M, K repeat
        if _rarely(draw):
            lines.append(line)
    cells = [_pick(draw, usual, rare) for usual, rare in (
        (("none",), ("K", "")), (("",), ("4", "abc")), (("NUS",), ("FOO", "LOWER_BOUND")),
        (("approx",), ("", "both")), (("2",), ("-1", "nan")), (("0",), ("-1",)),
        (("1.5",), _EDGE + _NOT_NUMBERS), (("0.1",), _EDGE + _NOT_NUMBERS),
        (("1.4",), _EDGE + _NOT_NUMBERS), (("0",), ("-1", "3", "abc")), (("",), ("note",)),
    )]
    results = ",".join(f.name for f in fields(ResultRow)) + "\n" + ",".join(cells) + "\n"
    return argv, config, "\n".join(lines) + "\n", results


@settings(max_examples=200, deadline=None)
@given(_invocations())
def test_main_exits_with_a_documented_code(invocation):
    argv, config, text, results = invocation
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "dir").mkdir()
        (tmp / "file").write_text(text)
        (tmp / "results").write_text(results)
        paths = {p: str(tmp / p) for p in ("missing", "dir", "file", "results")}
        argv = [paths.get(a, a) for a in argv] + ["--out", str(tmp / "out")]
        if config != "none":
            argv += ["--config", paths[config]]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse rejects a flag or its value
                rc = exc.code
    assert rc in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
