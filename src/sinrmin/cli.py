"""Command line front end: config parsing, subcommands, stable files.

Subcommands: `analytic` prints closed-form averages, `simulate` runs a
seeded Monte Carlo sweep, `figure` runs one of the four pre-registered
sweep configs shipped with the package, `validate` re-checks a results
file against its analytic columns.

All tables are comma-separated with a header line and 9-significant-
digit numbers, so a rerun with the same config and seed reproduces the
files byte for byte.
"""

import argparse
import csv
import functools
import hashlib
import os
import sys
from concurrent.futures import BrokenExecutor
from dataclasses import MISSING, fields
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path

from . import __version__
from .errors import ConfigError
from .experiment import (
    ExperimentConfig,
    ResultRow,
    ValidationRow,
    _analytic_value,
    _bound_tags,
    _parse_cell,
    run_sweep,
    validate_rows,
)
from .selection import ALGORITHM_TAGS

_CONFIG_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}
_RESULT_COLUMNS = tuple(f.name for f in fields(ResultRow))
_VALIDATION_COLUMNS = tuple(
    "status" if f.name == "passed" else f.name for f in fields(ValidationRow)
)

FIGURE_IDS = (1, 2, 3, 4)

# (flag, config field, help) of every flag that sets a field of ExperimentConfig
CONFIG_FLAGS = (
    ("--seed", "master_seed", "master seed (64-bit)"),
    ("--trials", "trials", "Monte Carlo trials per point"),
    ("--M", "M", "transmit antennas"),
    ("--K", "K", "total users"),
    ("--Ks", "K_s", "selected users"),
    ("--gamma-db", "gamma_db", "common SINR target in dB"),
    ("--sigma-sq", "sigma_sq", "noise variance"),
    ("--algorithms", "algorithms", f"comma list from {','.join(ALGORITHM_TAGS)}"),
    ("--power-method", "power_method", "exact, approx or both"),
)


# ---------------------------------------------------------------------------
# config parsing


def _convert(key: str, raw: str, where: str):
    try:
        return _parse_cell(_CONFIG_TYPES[key], raw.strip())
    except ValueError:
        raise ConfigError(f"bad value {raw!r} for key {key!r} {where}") from None


def parse_config_text(text: str, origin: str = "<config>") -> dict:
    """key=value lines into typed values; # starts a comment."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"expected key=value at {origin}:{lineno}: {line!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _CONFIG_TYPES:
            raise ConfigError(f"unknown key {key!r} at {origin}:{lineno}")
        if key in values:
            raise ConfigError(f"duplicate key {key!r} at {origin}:{lineno}")
        values[key] = _convert(key, raw, f"at {origin}:{lineno}")
    return values


def build_config(values: dict, simulatable: bool = True) -> ExperimentConfig:
    """Validated ExperimentConfig from parsed key/value pairs."""
    for f in fields(ExperimentConfig):
        if f.default is MISSING and f.name not in values:
            raise ConfigError(f"missing required key {f.name!r}")
    cfg = ExperimentConfig(**values)
    cfg.validate(simulatable=simulatable)
    return cfg


def parse_config(path=None, overrides=None, simulatable: bool = True):
    values = {}
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {p}")
        values = parse_config_text(p.read_text(), origin=str(p))
    values.update(overrides or {})
    return build_config(values, simulatable=simulatable)


def _flag_overrides(args) -> dict:
    """The config fields given as flags, each parsed like its config file key."""
    given = ((field, getattr(args, field)) for _, field, _ in CONFIG_FLAGS)
    return {key: _convert(key, raw, "on command line") for key, raw in given if raw is not None}


# ---------------------------------------------------------------------------
# stable writers


def _cell(value) -> str:
    if isinstance(value, float):  # most cells; a bool is no float
        return format(value, ".9g")
    if type(value) is str:
        return value
    if value is None:
        return ""
    if isinstance(value, bool):  # ValidationRow.passed, the status column
        return "pass" if value else "fail"
    return str(value)


def _cells(rows, kind):
    names = [f.name for f in fields(kind)]  # the dataclass's columns, read once a table
    return ([_cell(getattr(row, name)) for name in names] for row in rows)


def _write_atomically(path: Path, write) -> None:
    """Run ``write(fh)`` on a temp file beside ``path``, then rename it into
    place: a write that fails leaves the old file whole and no temp file."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_table(path: Path, header, rows) -> None:
    def write(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)

    _write_atomically(path, write)


def write_results(rows, path: Path) -> None:
    _write_table(path, _RESULT_COLUMNS, _cells(rows, ResultRow))


def write_validation(report, path: Path) -> None:
    _write_table(path, _VALIDATION_COLUMNS, _cells(report, ValidationRow))


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(cfg.canonical().encode()).hexdigest()


def write_manifest(cfg: ExperimentConfig, path: Path) -> None:
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    text = (
        f"config_hash={config_hash(cfg)}\n"
        f"tool_version={__version__}\n"
        f"timestamp={stamp}\n"
        f"master_seed={cfg.master_seed}\n"
    )
    _write_atomically(path, lambda fh: fh.write(text))


def read_results(path: Path):
    """Rows back from a results file, for the validate subcommand."""
    if not path.is_file():
        raise ConfigError(f"results file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if tuple(next(reader, ())) != _RESULT_COLUMNS:
            raise ConfigError(f"{path} is not a results file")
        records = list(reader)
    if any(len(rec) != len(_RESULT_COLUMNS) for rec in records):
        raise ConfigError(f"{path} has a row of the wrong length")
    rows = []
    for n, rec in enumerate(records, start=1):
        cells = []
        for field, raw in zip(fields(ResultRow), rec):
            try:
                cells.append(_parse_cell(field.type, raw))
            except ValueError:
                raise ConfigError(
                    f"{path} row {n}: column {field.name} has {raw!r}"
                ) from None
        rows.append(ResultRow(*cells))
        if rows[-1].mc_mean is not None and rows[-1].mc_stderr is None:
            raise ConfigError(f"{path} row {n}: mc_mean without mc_stderr")
    return rows


def write_figure_table(cfg: ExperimentConfig, rows, path: Path) -> None:
    """Wide companion table: one sweep row, one column per curve."""
    series = []
    for alg in cfg.algorithms:
        for meth in cfg.methods():
            series.append((alg, meth, "mc"))
        series.append((alg, "approx", "analytic"))
    series += [(tag, "analytic", "analytic") for tag in _bound_tags(cfg.K_s)]
    indexed = {(r.sweep_value, r.algorithm, r.power_method): r for r in rows}
    header = [cfg.sweep_axis]
    for alg, meth, kind in series:
        suffix = f"_{meth}_mc" if kind == "mc" else "_analytic"
        header.append(f"{alg}{suffix}")
    table = []
    for sweep_value in cfg.points():
        line = [_cell(sweep_value)]
        for alg, meth, kind in series:
            row = indexed.get((sweep_value, alg, meth))
            if row is None:
                line.append("")
            elif kind == "mc":
                line.append(_cell(row.mc_mean))
            else:
                line.append(_cell(row.analytic_value))
        table.append(line)
    _write_table(path, header, table)


_PLOT_SCRIPT = """\
#!/usr/bin/env python3
\"\"\"Plot curves from results.csv (written next to this script).\"\"\"
import csv
from collections import defaultdict
from pathlib import Path

import matplotlib.pyplot as plt

here = Path(__file__).resolve().parent
curves = defaultdict(list)
with open(here / "results.csv", newline="") as fh:
    for rec in csv.DictReader(fh):
        x = rec["sweep_value"]
        if not x:
            continue
        if rec["mc_mean"]:
            curves[f'{rec["algorithm"]} ({rec["power_method"]} mc)'].append(
                (int(x), float(rec["mc_mean"]))
            )
        if rec["analytic_value"]:
            curves[f'{rec["algorithm"]} (analytic)'].append(
                (int(x), float(rec["analytic_value"]))
            )

for label, pts in sorted(curves.items()):
    pts.sort()
    plt.semilogy([p[0] for p in pts], [p[1] for p in pts], marker="o", label=label)
plt.xlabel("sweep value")
plt.ylabel("average total transmit power")
plt.grid(True, which="both", alpha=0.3)
plt.legend()
plt.tight_layout()
plt.savefig(here / "figure.png", dpi=150)
print(here / "figure.png")
"""


# ---------------------------------------------------------------------------
# subcommands


def _prepare_out(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_analytic(args) -> int:
    cfg = parse_config(args.config, _flag_overrides(args), simulatable=False)
    lines = [("sweep_axis", "sweep_value", "algorithm", "analytic_value")]
    for sweep_value in cfg.points():
        m, k = cfg.dims_at(sweep_value)
        for alg in (*cfg.algorithms, *_bound_tags(cfg.K_s)):
            value, marker = _analytic_value(
                alg, m, k, cfg.K_s, cfg.gamma_linear, cfg.sigma_sq
            )
            cell = f"{value:.6f}" if value is not None else marker
            lines.append((cfg.sweep_axis, _cell(sweep_value), alg, cell))
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerows(lines)
    if args.out is not None:
        out = _prepare_out(args)
        _write_table(out / "analytic.csv", lines[0], lines[1:])
    return 0


def _simulate_config(cfg: ExperimentConfig, args) -> int:
    out = _prepare_out(args)
    rows = run_sweep(cfg, workers=args.workers)
    report = validate_rows(rows)
    write_results(rows, out / "results.csv")
    write_validation(report, out / "validation.csv")
    if cfg.sweep_axis != "none":
        write_figure_table(cfg, rows, out / "figure.csv")
    if args.emit_plot_script:
        (out / "plot_results.py").write_text(_PLOT_SCRIPT)
    write_manifest(cfg, out / "manifest.txt")  # last: it vouches for the tables
    failures = sum(1 for v in report if not v.passed)
    print(
        f"wrote {out / 'results.csv'} ({len(rows)} rows); "
        f"validation: {len(report) - failures}/{len(report)} passed"
    )
    if failures and args.strict:
        return 4
    return 0


def cmd_simulate(args) -> int:
    cfg = parse_config(args.config, _flag_overrides(args), simulatable=True)
    return _simulate_config(cfg, args)


def cmd_figure(args) -> int:
    ref = resources.files("sinrmin").joinpath(f"configs/fig{args.figure_id}.cfg")
    with resources.as_file(ref) as path:
        cfg = parse_config(path, _flag_overrides(args), simulatable=True)
    return _simulate_config(cfg, args)


def cmd_validate(args) -> int:
    rows = read_results(Path(args.results))
    report = validate_rows(rows, rel_tol=args.rel_tol, z=args.z)
    out = _prepare_out(args)
    write_validation(report, out / "validation.csv")
    failures = [v for v in report if not v.passed]
    for v in failures:
        where = f"{v.sweep_axis}={v.sweep_value}" if v.sweep_value is not None else "point"
        print(
            f"FAIL {v.algorithm} at {where}: "
            f"mc={v.mc_mean:.6g} vs analytic={v.analytic_value:.6g}",
            file=sys.stderr,
        )
    print(f"validation: {len(report) - len(failures)}/{len(report)} passed")
    if failures and args.strict:
        return 4
    return 0


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache  # one parser per process: an in-process caller pays for it once
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sinrmin",
        description="Minimum-power beamforming experiments with user selection",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    # each subcommand takes exactly the flags its handler reads
    keys = argparse.ArgumentParser(add_help=False)
    for flag, field, text in CONFIG_FLAGS:
        keys.add_argument(flag, dest=field, help=text)
    run = argparse.ArgumentParser(add_help=False, parents=[keys])
    run.add_argument("--out", default=".", help="output directory")
    run.add_argument("--strict", action="store_true",
                     help="exit 4 when any validation row fails")
    run.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    run.add_argument("--emit-plot-script", action="store_true",
                     help="also write plot_results.py next to results.csv")
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="key=value config file")

    sub = subs.add_parser("analytic", parents=[config, keys],
                          help="closed-form average powers")
    # stdout-first: analytic.csv is only written when --out is given
    sub.add_argument("--out", help="output directory")
    sub.set_defaults(fn=cmd_analytic)

    sub = subs.add_parser("simulate", parents=[config, run], help="seeded Monte Carlo sweep")
    sub.set_defaults(fn=cmd_simulate)

    sub = subs.add_parser("figure", parents=[run], help="run a pre-registered figure config")
    sub.add_argument("figure_id", type=int, choices=FIGURE_IDS)
    sub.set_defaults(fn=cmd_figure)

    sub = subs.add_parser("validate", help="re-check a results file")
    sub.add_argument("results", help="path to results.csv")
    sub.add_argument("--out", default=".", help="output directory")
    sub.add_argument("--strict", action="store_true")
    sub.add_argument("--rel-tol", dest="rel_tol", type=float, default=0.02)
    sub.add_argument("--z", type=float, default=3.0)
    sub.set_defaults(fn=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, MemoryError, OSError, BrokenExecutor) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
