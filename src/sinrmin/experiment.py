"""Seeded Monte Carlo over coherence blocks.

One trial = one channel realization: select users, order them, price the
selection under the configured power model(s). Trials run in blocks, and
a block's points at one M run in pieces of consecutive points: each rule
selects once and each solver prices once per piece, over the T trials of
every point of the piece stacked as rows of its widest channels, a row
holding its point's first K users. Trial t still draws its channels from
stream 2t and its random-selection choices from stream 2t+1 of the master
seed, and each row gets what that trial alone would at its point, so
results are identical no matter how trials are split into blocks and
pieces or scheduled across workers. A block draws those streams once for
every point of the sweep: a point reads a prefix of the normals the
largest point takes, and of the words. A search marks a trial with no
feasible ordering by a row of -1, and a solver call that raises prices
its rows alone, so only the cells that are infeasible alone turn NaN.

Analytic averages attach to the approx-method rows only: the closed
forms describe the residual-norm power model, not the exact recursion.
"""

import inspect
import math
import os
import typing
from collections.abc import Iterable
from contextlib import nullcontext
from dataclasses import dataclass, fields

import numpy as np

from . import selection
from .analytic import (
    avg_power_aus_two,
    avg_power_lower_bound_two,
    avg_power_nus,
    avg_power_rus,
    avg_power_sus,
)
# sample_channel_set stays bound here: perfbench/tracing.py hooks it
from .channel import (_SAMPLE_BYTES, ChannelSet, SeedSpec, _stream_normals,  # noqa: F401
                      _stream_words, _users, sample_channel_set)
from .errors import ConfigError, DivergenceError, InfeasibleGeometryError
from .power import SinrTargets, approx_min_power, exact_min_power
# select_nus, select_sus, select_aus, select_rus and select_exhaustive stay
# bound here: perfbench/tracing.py hooks them
from .selection import (  # noqa: F401
    ALGORITHM_TAGS,
    _best_approx_orders,
    _best_exact_orders,
    _complex_bytes,
    _dp_trial_bytes,
    _per_chunk,
    _rule_orders,
    select_aus,
    select_exhaustive,
    select_nus,
    select_rus,
    select_sus,
)

LOWER_BOUND_TAG = "LOWER_BOUND"

NO_CLOSED_FORM = "no_closed_form"

_SWEEP_AXES = ("none", "M", "K")
_DP = ("EXHAUSTIVE", "approx")  # the series the approx DP's orders serve
_EXACT = ("EXHAUSTIVE", "exact")  # and the exact search's
_POWER_METHODS = ("exact", "approx")

# Blocks of trials are cut by `selection._per_chunk`, a trial's unit being its
# K x M channels, which exact pricing holds again as whitened coordinates, and
# so are a block's pieces of points, a unit being a trial at one point: the
# piece's widest channels, or its series' picked rows if those are more. A
# point's totals and one exhaustive approx DP trial must fit in _SAMPLE_BYTES,
# the cap of a channel draw, and `run_sweep` samples its points in groups
# whose totals fit in it together.


def _parse_cell(kind, raw: str):
    """A field annotated `kind` from its text in a config file or a table
    cell; a tuple is a comma list, an empty optional is None."""
    args = typing.get_args(kind)
    if typing.get_origin(kind) is tuple:
        return tuple(args[0](part.strip()) for part in raw.split(",") if part.strip())
    if type(None) in args:
        if raw == "":
            return None
        (kind,) = (a for a in args if a is not type(None))
    return kind(raw)


def _has_type(value, kind) -> bool:
    """Whether `value` has the annotated type `kind`: a bool is no int, an int is a float."""
    if typing.get_origin(kind) is tuple:
        item = typing.get_args(kind)[0]
        return isinstance(value, tuple) and all(_has_type(v, item) for v in value)
    return not isinstance(value, bool) and isinstance(value, (int, float) if kind is float else kind)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one simulation or sweep.

    The swept dimension's own field stays None; every other field is
    concrete. `gamma_db` is the only dB quantity in the package and is
    converted exactly once, by `gamma_linear`.
    """

    K_s: int
    gamma_db: float
    sigma_sq: float
    algorithms: tuple[str, ...]
    trials: int = 10_000
    master_seed: int = 0
    M: int | None = None
    K: int | None = None
    power_method: str = "approx"
    sweep_axis: str = "none"
    sweep_values: tuple[int, ...] = ()
    exhaustive_budget: int = 1_000_000

    @property
    def gamma_linear(self) -> float:
        return 10.0 ** (self.gamma_db / 10.0)

    def methods(self) -> tuple[str, ...]:
        if self.power_method == "both":
            return _POWER_METHODS
        return (self.power_method,)

    def points(self) -> tuple:
        if self.sweep_axis == "none":
            return (None,)
        return tuple(self.sweep_values)

    def dims_at(self, sweep_value) -> tuple[int, int]:
        m = sweep_value if self.sweep_axis == "M" else self.M
        k = sweep_value if self.sweep_axis == "K" else self.K
        return m, k

    def validate(self, simulatable: bool = True) -> None:
        """Raise ConfigError on anything that would fail mid-run.

        With simulatable=False only the analytic formulas must make
        sense, so K_s may exceed M (the result is then a divergence
        marker, not an error).
        """
        for f in fields(self):
            if not _has_type(value := getattr(self, f.name), f.type):
                raise ConfigError(f"{f.name}={value!r} is not {inspect.formatannotation(f.type)}")
        if self.sweep_axis not in _SWEEP_AXES:
            raise ConfigError(f"sweep_axis must be one of {_SWEEP_AXES}")
        if self.sweep_axis == "none":
            if self.sweep_values:
                raise ConfigError("sweep_values given without a sweep_axis")
        elif not self.sweep_values:
            raise ConfigError(f"sweep over {self.sweep_axis} needs sweep_values")
        for name in ("M", "K"):
            val = getattr(self, name)
            if self.sweep_axis == name:
                if val is not None:
                    raise ConfigError(f"{name}={val} given for the swept dimension {name}")
            elif val is None or val < 1:
                raise ConfigError(f"{name} must be a positive integer")
        for v in self.sweep_values:
            if v < 1:
                raise ConfigError(f"sweep value {v} must be a positive integer")
        if len(set(self.sweep_values)) < len(self.sweep_values):
            raise ConfigError(f"sweep_values {self.sweep_values} repeat a value")
        if self.K_s < 1:
            raise ConfigError("K_s must be a positive integer")
        if not self.algorithms:
            raise ConfigError("no algorithms requested")
        seen = set()
        for alg in self.algorithms:
            if alg not in ALGORITHM_TAGS:
                raise ConfigError(f"unknown algorithm {alg!r}")
            if alg in seen:
                raise ConfigError(f"algorithm {alg} listed twice")
            seen.add(alg)
        if self.power_method not in _POWER_METHODS + ("both",):
            raise ConfigError(f"power_method must be exact, approx, or both")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError("master_seed must fit in 64 bits")
        if not 0 < self.sigma_sq < math.inf:
            raise ConfigError("sigma_sq must be positive and finite")
        if not math.isfinite(self.gamma_db):
            raise ConfigError("gamma_db must be finite")
        try:
            linear = self.gamma_linear
        except OverflowError:
            linear = math.inf
        if not 0.0 < linear < math.inf:
            raise ConfigError(
                f"gamma_db={self.gamma_db} gives no positive finite linear SINR target"
            )
        if self.exhaustive_budget < 1:
            raise ConfigError("exhaustive_budget must be positive")

        def fit(what, size, cap=None):  # the cap `selection._per_chunk` cuts by
            cap = selection._CHUNK_BYTES if cap is None else cap
            if simulatable and size > cap:
                raise ConfigError(f"{what} {size} bytes, over {cap}")

        fit("a point's samples take", _sample_bytes(self), _SAMPLE_BYTES)
        for sweep_value in self.points():
            m, k = self.dims_at(sweep_value)
            if self.K_s > k:
                raise ConfigError(f"K_s={self.K_s} exceeds K={k}")
            if simulatable and self.K_s > min(m, k):
                raise ConfigError(
                    f"K_s={self.K_s} exceeds min(M, K)={min(m, k)} at M={m}, K={k}"
                )
            fit("a trial's channels take", _complex_bytes(k, m))
            searched = simulatable and "EXHAUSTIVE" in _runnable(self, k)
            if searched and "approx" in self.methods():
                fit("the exhaustive DP takes", _dp_trial_bytes(k, m, self.K_s), _SAMPLE_BYTES)

    def canonical(self) -> str:
        """Stable key=value rendering used for config hashing; it loads back
        as a config file, an unset field as an empty value."""
        lines = []
        for f in fields(self):
            val = getattr(self, f.name)
            if isinstance(val, tuple):
                val = ",".join(str(v) for v in val)
            lines.append(f"{f.name}={'' if val is None else val}")
        return "\n".join(lines) + "\n"


def _sample_bytes(config: ExperimentConfig) -> int:
    """Bytes of a point's per-trial totals: 8 a trial and series."""
    return 8 * config.trials * len(config.algorithms) * len(config.methods())


@dataclass(frozen=True)
class ResultRow:
    sweep_axis: str
    sweep_value: int | None
    algorithm: str
    power_method: str
    trials: int
    seed: int
    mc_mean: float | None
    mc_stderr: float | None
    analytic_value: float | None
    infeasible_count: int
    note: str


@dataclass(frozen=True)
class ValidationRow:
    sweep_axis: str
    sweep_value: int | None
    algorithm: str
    check: str
    mc_mean: float
    mc_stderr: float
    analytic_value: float
    passed: bool


def _priced_rows(solver, h, targets):
    """Total powers of the picked rows `h` by `solver`; a NaN total
    overflowed and is +inf. A block on which the solver raises
    InfeasibleGeometryError is priced a row at a time, and a row that
    raises alone is NaN."""
    try:
        total = solver(h, targets).total_power
    except InfeasibleGeometryError:
        return np.concatenate([_priced_rows(solver, row, targets) if len(h) > 1 else [np.nan]
                               for row in np.split(h, len(h))])
    return np.where(np.isnan(total), np.inf, total)


def _piece_totals(config, targets, wide, points, rus=(), words=None):
    """Totals of every series at each point of a piece, over one block of
    trials; infeasible cells are NaN.

    `points` are (K, series, orders) of consecutive points at the M of
    `wide`, the block's channels at that M's widest K; `orders` are the
    point's EXHAUSTIVE orders by series, -1 in the row of a trial with
    none feasible. A piece of P points is its widest channels repeated
    once per point, P T rows whose row for point p holds its first K_p
    users: the rules select once over them, and each method prices every
    point's series in one `_priced_rows` call, all but the rows of -1, which
    are NaN. `rus` are the trials' random-selection specs and `words`
    their words.
    """
    t, n, ks = len(wide.users), len(points), [k for k, _, _ in points]
    h, norms = wide.users[:, : max(ks)], wide._norms[:, : max(ks)]
    if n > 1:
        h, norms = np.tile(h, (n, 1, 1)), np.tile(norms, (n, 1))
    orders = [dict(given) for _, _, given in points]
    if rules := {alg for _, series, _ in points for alg, _ in series if alg != "EXHAUSTIVE"}:
        found = _rule_orders(rules, h, norms, config.K_s, np.repeat(ks, t), list(rus) * n,
                             None if words is None else np.tile(words, (n, 1)))
        for p, given in enumerate(orders):
            given.update((rule, got[p * t : (p + 1) * t]) for rule, (_, got) in found.items())
    totals = [{} for _ in points]
    for meth in config.methods():
        cells = [(p, name, given[name if name[0] == "EXHAUSTIVE" else name[0]])
                 for p, ((_, series, _), given) in enumerate(zip(points, orders))
                 for name in series if name[1] == meth]
        rows = np.concatenate([p * t + np.arange(t) for p, _, _ in cells])
        order = np.concatenate([o for _, _, o in cells])
        ok, out = order[:, 0] >= 0, np.full(len(rows), np.nan)
        # the solver is looked up per call, so a patched or traced one takes effect
        solver = {"exact": exact_min_power, "approx": approx_min_power}[meth]
        out[ok] = _priced_rows(solver, h[rows[ok, None], order[ok]], targets)
        for (p, name, _), part in zip(cells, np.split(out, len(cells))):
            totals[p][name] = part
    return totals


def _searches(config, targets, wide, points):
    """EXHAUSTIVE orders by series for each (K, series) of `points`, over
    the first K users of `wide`: one approx DP serves every K, and each K
    takes one exact search. A row of -1 is a trial with none feasible."""
    h, norms = wide.users, wide._norms
    ks = [k for k, series in points if _DP in series]
    dp = iter(_best_approx_orders(h[:, : max(ks)], norms[:, : max(ks)], config.K_s, targets, ks)
              if ks else ())
    orders = [{_DP: next(dp)} if _DP in series else {} for _, series in points]
    for (k, series), given in zip(points, orders):
        if _EXACT in series:
            given[_EXACT] = _best_exact_orders(h[:, :k], norms[:, :k], config.K_s, targets)
    return orders


def _runnable(config: ExperimentConfig, k: int) -> tuple[str, ...]:
    """The algorithms simulated at a point with K = k: all but an EXHAUSTIVE
    past its budget, where select_exhaustive would raise a BudgetError."""
    over = math.perm(k, config.K_s) > config.exhaustive_budget
    return tuple(alg for alg in config.algorithms if not (over and alg == "EXHAUSTIVE"))


def _run_chunk(payload):
    """Totals of every series at each point over one block of trials;
    infeasible trials are NaN.

    The block's streams are drawn once for all points: each trial's
    normals, as many as the largest point takes, of which a point reads
    the first 2 K M, and its random-selection specs and words, which
    serve every K. At each M the channels are kept as drawn at the widest
    K there, and a point's are their first K users; `_searches` finds
    their EXHAUSTIVE orders. The points at each M then run as pieces, runs
    of consecutive points whose P T trials of the widest K's channels, or
    of their series' picked rows, fit `selection._CHUNK_BYTES`; a piece
    holds at least one point.
    """
    config, points, trials = payload
    targets = SinrTargets(config.gamma_linear, config.sigma_sq)
    dims = [config.dims_at(v) for v in points]
    series = [[(alg, meth) for alg in _runnable(config, k) for meth in config.methods()]
              for _, k in dims]
    totals = [{} for _ in points]
    if not any(series):
        return totals
    seeds = [SeedSpec(config.master_seed, 2 * t) for t in trials]
    z = _stream_normals(seeds, (max(2 * k * m for (m, k), s in zip(dims, series) if s),))
    rus, words = (), None
    if "RUS" in config.algorithms:
        rus = [SeedSpec(config.master_seed, 2 * t + 1) for t in trials]
        words = _stream_words(rus, 2 * config.K_s - 1)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is inf: see _priced_rows
        for m in dict.fromkeys(m for (m, _), s in zip(dims, series) if s):
            here = [i for i, ((m_i, _), s) in enumerate(zip(dims, series)) if m_i == m and s]
            wide = ChannelSet(_users(z, m, max(dims[i][1] for i in here)))
            orders = dict(zip(here, _searches(config, targets, wide,
                                              [(dims[i][1], series[i]) for i in here])))
            rows = len(config.algorithms) * config.K_s  # a trial's picked rows, at most
            pieces = [[here[0]]]
            for i in here[1:]:
                run = pieces[-1] + [i]
                width = max(rows, *(dims[j][1] for j in run))
                if len(run) * len(trials) <= _per_chunk(_complex_bytes(width, m)):
                    pieces[-1] = run
                else:
                    pieces.append([i])
            for piece in pieces:
                parts = [(dims[j][1], series[j], orders[j]) for j in piece]
                for j, got in zip(piece, _piece_totals(config, targets, wide, parts, rus, words)):
                    totals[j] = got
    return totals


def _workers(workers: int) -> int:
    # results do not depend on the blocks, so never fork more than the CPUs
    if not _has_type(workers, int) or workers < 1:
        raise ConfigError(f"workers must be an int >= 1, got {workers!r}")
    return min(workers, os.cpu_count() or 1)


def _open_pool(config: ExperimentConfig, workers: int):
    """A process pool for the blocks of `config`, or a null context at one
    worker. Every sweep cuts its trials into at least min(w, trials)
    blocks, so the pool never holds an idle process."""
    w = _workers(workers)
    if w == 1:
        return nullcontext()
    from concurrent.futures import ProcessPoolExecutor  # its import takes start-up time
    return ProcessPoolExecutor(max_workers=min(w, config.trials))


def _sweep_samples(config: ExperimentConfig, points, workers: int, pool=None):
    """A (series, trials) stack of per-trial totals, and per point of
    `points` its rows, keyed by (algorithm, method), in trial order.

    The trials are cut into n contiguous blocks within the byte cap of
    the largest point, whose sizes differ by at most one, and each block
    serves every point. With w workers (clamped to the CPUs), n is a
    multiple of w where the cap and the trial count allow, and w > 1
    processes map the same blocks that one runs in process: those of
    `pool` when given, else of a pool opened for these points alone.
    """
    w = _workers(workers)
    cap = _per_chunk(max(_complex_bytes(k, m) for m, k in map(config.dims_at, points)))
    trials = config.trials
    n = min(trials, w * -(-trials // (w * cap)))
    args = [(config, points, range(trials * i // n, trials * (i + 1) // n))
            for i in range(n)]
    with _open_pool(config, w) if pool is None else nullcontext(pool) as pool:
        results = list(map(_run_chunk, args) if pool is None else pool.map(_run_chunk, args))
    rows = iter(stack := np.empty((sum(map(len, results[0])), trials)))
    return stack, [{key: np.concatenate([r[i][key] for r in results], out=next(rows))
                    for key in point} for i, point in enumerate(results[0])]


def _summaries(stack, samples) -> list:
    """Per point of `samples`, each series' (infeasible count, mean, stderr)
    over the trials of its `stack` row that are not NaN, the mean None where
    all are. A row with NaN is summarised alone; the rest as one stack."""
    n, t = stack.shape
    nans = np.isnan(stack).sum(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        means = stack.mean(axis=1).tolist()
        stderrs = (stack.std(axis=1, ddof=1) / math.sqrt(t)).tolist() if t > 1 else [0.0] * n
        for i in np.flatnonzero(nans):
            ok = stack[i][~np.isnan(stack[i])]
            means[i] = float(ok.mean()) if ok.size else None
            stderrs[i] = float(ok.std(ddof=1) / math.sqrt(ok.size)) if ok.size > 1 else 0.0
    stats = iter(zip(nans.tolist(), means, stderrs))
    return [{key: next(stats) for key in point} for point in samples]


def _analytic_value(alg, m, k, k_s, gamma, sigma_sq):
    """Closed-form average for one row, or (None, marker)."""
    try:
        if alg == "NUS":
            return avg_power_nus(m, k, k_s, gamma, sigma_sq), ""
        if alg == "SUS":
            return avg_power_sus(m, k, k_s, gamma, sigma_sq), ""
        if alg == "RUS":
            if k_s >= m:
                return None, f"divergent: K_s={k_s} needs K_s < M={m}"
            return avg_power_rus(m, k_s, gamma, sigma_sq), ""
        if alg == "AUS" and k_s == 2:
            return avg_power_aus_two(m, k, gamma, sigma_sq), ""
        if alg == LOWER_BOUND_TAG and k_s == 2:
            return avg_power_lower_bound_two(m, k, gamma, sigma_sq), ""
    except DivergenceError as exc:
        return None, f"divergent: {exc}"
    except ConfigError:
        return None, NO_CLOSED_FORM
    return None, NO_CLOSED_FORM


def _bound_tags(k_s: int) -> tuple[str, ...]:
    """Analytic-only series of a point: the lower bound, closed form at K_s = 2 only."""
    return (LOWER_BOUND_TAG,) if k_s == 2 else ()


def _check_config(config) -> None:
    """Raise ConfigError unless `config` is an ExperimentConfig that can run."""
    if not isinstance(config, ExperimentConfig):
        raise ConfigError(f"need an ExperimentConfig, got {config!r}")
    config.validate(simulatable=True)


def run_point(config: ExperimentConfig, sweep_value=None, workers: int = 1, *, _stats=None):
    """All result rows for one sweep point; config, point and workers are checked first.

    `_stats` are the point's `_summaries`, from `run_sweep`, which has
    checked the config and summarised its points together; left out, the
    point is sampled and summarised as a sweep of one.
    """
    if _stats is None:
        _check_config(config)
    if not _has_type(sweep_value, int | None) or sweep_value not in config.points():
        raise ConfigError(f"sweep value {sweep_value!r} is not a point of {config.points()}")
    m, k = config.dims_at(sweep_value)
    gamma = config.gamma_linear
    if _stats is None:
        (_stats,) = _summaries(*_sweep_samples(config, (sweep_value,), workers))
    runnable = _runnable(config, k)
    rows = []

    for alg in config.algorithms:
        for meth in config.methods():
            if alg not in runnable:
                rows.append(ResultRow(
                    config.sweep_axis, sweep_value, alg, meth, 0,
                    config.master_seed, None, None, None, 0, "budget_exceeded",
                ))
                continue
            infeasible, mean, stderr = _stats[(alg, meth)]
            if not math.isfinite(stderr) or not math.isfinite(mean or 0.0):
                raise ArithmeticError(
                    f"{alg} {meth} at M={m}, K={k}: Monte Carlo mean {mean} "
                    f"and stderr {stderr} must be finite"
                )
            notes = []
            if infeasible > 0.0001 * config.trials:
                notes.append("infeasible_rate_exceeded")
            analytic = None
            if meth == "approx":
                analytic, marker = _analytic_value(
                    alg, m, k, config.K_s, gamma, config.sigma_sq
                )
                if analytic is None:
                    notes.append(marker)
            rows.append(ResultRow(
                config.sweep_axis, sweep_value, alg, meth, config.trials,
                config.master_seed, mean, stderr, analytic, infeasible,
                ";".join(notes),
            ))

    for tag in _bound_tags(config.K_s):
        analytic, marker = _analytic_value(tag, m, k, config.K_s, gamma, config.sigma_sq)
        rows.append(ResultRow(
            config.sweep_axis, sweep_value, tag, "analytic", 0,
            config.master_seed, None, None, analytic,
            0, "" if analytic is not None else marker,
        ))
    return rows


def run_sweep(config: ExperimentConfig, workers: int = 1):
    """Rows for every sweep point, in sweep order. The points share one
    process pool, and each block of trials serves every point of a group:
    as many consecutive points as `_SAMPLE_BYTES` holds the totals of."""
    _check_config(config)
    points, rows = config.points(), []
    group = _per_chunk(_sample_bytes(config), _SAMPLE_BYTES)
    with _open_pool(config, workers) as pool:
        for i in range(0, len(points), group):
            part = points[i : i + group]
            for value, stats in zip(part, _summaries(*_sweep_samples(config, part, workers, pool))):
                rows.extend(run_point(config, value, workers, _stats=stats))
    return rows


def validate_rows(rows, rel_tol: float = 0.02, z: float = 3.0):
    """Monte Carlo vs analytic comparison for rows that carry both.

    SUS closed forms are upper bounds, so those rows get a one-sided
    check; everything else must agree within max(rel_tol * analytic,
    z * stderr); both must be finite and non-negative.
    """
    for name, value in (("rel_tol", rel_tol), ("z", z)):
        if not _has_type(value, float) or not 0.0 <= value < math.inf:
            raise ConfigError(f"{name} must be finite and non-negative, got {value!r}")
    report, rows = [], list(rows) if isinstance(rows, Iterable) else [None]
    if not all(isinstance(row, ResultRow) for row in rows):
        raise ConfigError("rows must be an iterable of ResultRow")
    for row in rows:
        if row.mc_mean is None or row.analytic_value is None:
            continue
        if row.algorithm == "SUS":
            passed = row.mc_mean <= row.analytic_value + z * row.mc_stderr
            check = "one_sided_upper"
        else:
            tol = max(rel_tol * abs(row.analytic_value), z * row.mc_stderr)
            passed = abs(row.mc_mean - row.analytic_value) <= tol
            check = "two_sided"
        report.append(ValidationRow(
            row.sweep_axis, row.sweep_value, row.algorithm, check,
            row.mc_mean, row.mc_stderr, row.analytic_value, bool(passed),
        ))
    return report
