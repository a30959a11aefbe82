"""Monte Carlo harness tests: determinism, oracles, flags, validation."""

import dataclasses
import functools
import math
import types
from collections import Counter
from importlib import resources

import numpy as np
import pytest

from unittest import mock

from sinrmin import channel, selection
from sinrmin.analytic import alpha, avg_power_rus
from sinrmin.channel import SeedSpec, sample_channel_set
from sinrmin.cli import parse_config
from sinrmin.errors import ConfigError, InfeasibleGeometryError
from sinrmin.experiment import (
    ExperimentConfig,
    ResultRow,
    _piece_totals,
    _runnable,
    _searches,
    _summaries,
    _sweep_samples,
    run_point,
    run_sweep,
    validate_rows,
)
from sinrmin.power import SinrTargets
from sinrmin.selection import select_aus, select_nus, select_sus


def _cfg(**overrides) -> ExperimentConfig:
    base = dict(
        M=4, K=10, K_s=2, gamma_db=10.0, sigma_sq=0.1,
        algorithms=("RUS",), power_method="approx",
        trials=100, master_seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _alone(cfg, sweep_value=None, workers=1):
    """Per-trial totals at one point, sampled as a sweep of that point alone."""
    _, (samples,) = _sweep_samples(cfg, (sweep_value,), workers)
    return samples


# ---------------------------------------------------------------------------
# config


def test_gamma_db_converted_once():
    assert _cfg(gamma_db=10.0).gamma_linear == pytest.approx(10.0, rel=1e-12)
    assert _cfg(gamma_db=0.0).gamma_linear == pytest.approx(1.0, rel=1e-12)
    assert _cfg(gamma_db=-3.0).gamma_linear == pytest.approx(0.501187, rel=1e-6)


def test_points_and_dims():
    cfg = _cfg(M=None, sweep_axis="M", sweep_values=(3, 4, 5))
    assert cfg.points() == (3, 4, 5)
    assert cfg.dims_at(5) == (5, 10)
    flat = _cfg()
    assert flat.points() == (None,)
    assert flat.dims_at(None) == (4, 10)


def test_validate_rejects_bad_configs():
    with pytest.raises(ConfigError):
        _cfg(sweep_axis="gamma").validate()
    with pytest.raises(ConfigError):
        _cfg(sweep_axis="M").validate()  # missing sweep_values
    with pytest.raises(ConfigError):
        _cfg(sweep_values=(3, 4)).validate()  # values without axis
    with pytest.raises(ConfigError):
        _cfg(M=None).validate()
    with pytest.raises(ConfigError, match="swept dimension M"):
        _cfg(M=8, sweep_axis="M", sweep_values=(3, 4)).validate()
    with pytest.raises(ConfigError, match="repeat a value"):
        _cfg(K=None, sweep_axis="K", sweep_values=(4, 6, 4)).validate()
    with pytest.raises(ConfigError):
        _cfg(algorithms=()).validate()
    with pytest.raises(ConfigError):
        _cfg(algorithms=("NUS", "NUS")).validate()
    with pytest.raises(ConfigError):
        _cfg(algorithms=("GUS",)).validate()
    with pytest.raises(ConfigError):
        _cfg(power_method="fast").validate()
    with pytest.raises(ConfigError):
        _cfg(trials=0).validate()
    with pytest.raises(ConfigError):
        _cfg(master_seed=-1).validate()
    with pytest.raises(ConfigError):
        _cfg(master_seed=2**64).validate()
    for sigma_sq in (0.0, math.inf, math.nan):
        with pytest.raises(ConfigError, match="sigma_sq must be positive and finite"):
            _cfg(sigma_sq=sigma_sq).validate()
    with pytest.raises(ConfigError, match="gamma_db must be finite"):
        _cfg(gamma_db=math.nan).validate()
    with pytest.raises(ConfigError):
        _cfg(exhaustive_budget=0).validate()


def test_validate_k_s_rules_depend_on_simulatability():
    over_m = _cfg(M=3, K_s=4)
    with pytest.raises(ConfigError):
        over_m.validate(simulatable=True)
    over_m.validate(simulatable=False)  # analytic-only run is fine
    over_k = _cfg(K=3, K_s=4)
    for flag in (True, False):
        with pytest.raises(ConfigError):
            over_k.validate(simulatable=flag)


def test_validate_checks_every_sweep_point():
    cfg = _cfg(M=None, sweep_axis="M", sweep_values=(8, 3), K_s=4)
    with pytest.raises(ConfigError):
        cfg.validate()  # K_s=4 > M=3 at the second point


@pytest.mark.parametrize("overrides, field", [
    (dict(M=4.7), "M"),
    (dict(K=None, sweep_axis="K", sweep_values=(4.5, 6)), "sweep_values"),
    (dict(trials=10.5), "trials"),
    (dict(K_s=1.5), "K_s"),
    (dict(trials=True), "trials"),  # a bool is not an int
    (dict(gamma_db="10"), "gamma_db"),
    (dict(algorithms=["RUS"]), "algorithms"),
    (dict(power_method=None), "power_method"),
])
def test_field_types_are_checked_before_sampling(monkeypatch, overrides, field):
    monkeypatch.setattr("sinrmin.experiment._stream_normals", None)  # never reached
    with pytest.raises(ConfigError, match=f"^{field}="):
        run_sweep(_cfg(**overrides))


@pytest.mark.parametrize("overrides, message", [
    (dict(algorithms=("NUS", "FOO")), "unknown algorithm 'FOO'"),
    (dict(trials=10.5), "^trials="),
])
def test_run_point_validates_before_any_work(monkeypatch, overrides, message):
    monkeypatch.setattr("sinrmin.experiment._stream_normals", None)  # never reached
    with pytest.raises(ConfigError, match=message):
        run_point(_cfg(**overrides))


@pytest.mark.parametrize("overrides, sweep_value", [
    (dict(K=None, sweep_axis="K", sweep_values=(4, 6)), None),
    (dict(K=None, sweep_axis="K", sweep_values=(4, 6)), 9),
    (dict(), 4),  # a config with no sweep has the one point None
    # values equal to a point that are no int: True == 1, 3.0 == 3
    (dict(K=None, sweep_axis="K", sweep_values=(1, 4), K_s=1), True),
    (dict(M=None, sweep_axis="M", sweep_values=(3, 4)), 3.0),
])
def test_run_point_checks_its_sweep_value(monkeypatch, overrides, sweep_value):
    monkeypatch.setattr("sinrmin.experiment._stream_normals", None)  # never reached
    with pytest.raises(ConfigError, match=f"^sweep value {sweep_value!r} is not a point"):
        run_point(_cfg(**overrides), sweep_value)


def test_validate_bounds_the_exact_z_inverse():
    # exact pricing holds Z^-1 as a trial's K x M whitened coordinates, so a
    # trial's channel bytes bound it at any M: an M x M Z^-1 would take 4 GiB
    # at M = 16384, and these configs were once refused for it
    for method in ("exact", "both"):
        _cfg(power_method=method, K_s=2, algorithms=("NUS",), M=16384, K=4).validate()
    _cfg(power_method="exact", M=256, K=256).validate()  # exactly the block bytes
    with pytest.raises(ConfigError, match=f"channels take {16 * 256 * 257} bytes, over 1048576"):
        _cfg(power_method="exact", M=257, K=256).validate()
    _cfg(power_method="exact", M=None, K=4, sweep_axis="M", sweep_values=(4, 257)).validate()
    with pytest.raises(ConfigError, match=f"channels take {16 * 4 * 65536} bytes"):
        _cfg(power_method="exact", M=None, K=4, sweep_axis="M",
             sweep_values=(4, 65536)).validate()


def test_exact_blocks_hold_each_trials_z_inverse(monkeypatch):
    # a trial's Z^-1, held as its whitened coordinates, takes its channels'
    # bytes, so exact blocks are cut as approx blocks are, with the same tables
    import sinrmin.experiment as exp

    sizes = []
    run_chunk = exp._run_chunk

    def recording(payload):
        sizes.append(len(payload[2]))
        return run_chunk(payload)

    monkeypatch.setattr(exp, "_run_chunk", recording)
    cfgs = [_cfg(M=8, K=3, trials=10, power_method=method, algorithms=("NUS", "EXHAUSTIVE"))
            for method in ("approx", "exact", "both")]
    reference = _alone(cfgs[2])
    monkeypatch.setattr(selection, "_CHUNK_BYTES", 3 * 16 * 8 * 8)  # 8 trials of channels
    cuts = []
    for cfg in cfgs:
        sizes.clear()
        samples = _alone(cfg)
        cuts.append(list(sizes))
    assert cuts == [[5, 5]] * 3
    for key, arr in reference.items():
        assert arr.tobytes() == samples[key].tobytes(), key


def test_exact_search_memory_is_bounded_before_any_work(monkeypatch):
    # a search step holds as many prefixes' K x M coordinates as the block
    # bytes fit in, so only a trial's channels bound it: 256 MiB a step at
    # M = K = 256 under the old 16 K M^2 bytes a prefix, now one trial's bytes
    big = dict(M=256, K=256, K_s=2, trials=1, algorithms=("NUS", "EXHAUSTIVE"))
    for method in ("exact", "both"):
        _cfg(**big, power_method=method).validate()
    _cfg(M=16, K=257, K_s=2, algorithms=("EXHAUSTIVE",), power_method="exact").validate()
    _cfg(M=65, K=1000, K_s=3, trials=1, algorithms=("EXHAUSTIVE",), exhaustive_budget=10**9,
         power_method="exact").validate()  # no DP, and a step holds one trial's channels
    totals = _alone(_cfg(**big, power_method="exact"))
    assert 0.0 < totals["EXHAUSTIVE", "exact"][0] <= totals["NUS", "exact"][0] < math.inf
    # a search whose trial's channels overflow is refused before any sampling
    monkeypatch.setattr("sinrmin.experiment._stream_normals", None)  # never reached
    with pytest.raises(ConfigError, match=f"channels take {16 * 4097 * 16} bytes"):
        run_point(_cfg(M=16, K=4097, K_s=2, algorithms=("EXHAUSTIVE",),
                       exhaustive_budget=10**8, power_method="exact"))
    monkeypatch.undo()
    # and no step prices more coordinate bytes than the block bytes
    import sinrmin.power as power_mod
    stepped = []
    step = power_mod._uplink_step

    def recording(c, *args):
        stepped.append(c.nbytes)
        return step(c, *args)

    cfg = _cfg(M=6, K=8, K_s=3, trials=6, algorithms=("EXHAUSTIVE",), power_method="exact")
    reference = _alone(cfg)
    cap = 3 * 16 * 8 * 6  # three prefixes of one trial's coordinates
    monkeypatch.setattr(selection, "_CHUNK_BYTES", cap)
    monkeypatch.setattr(selection, "_uplink_step", recording)
    samples = _alone(cfg)
    assert stepped and max(stepped) <= cap
    for key, arr in reference.items():
        assert arr.tobytes() == samples[key].tobytes(), key


@pytest.mark.parametrize("run", [run_sweep, run_point])
@pytest.mark.parametrize("workers", [0, -3, 2.5, True])
def test_bad_worker_counts_are_config_errors(monkeypatch, run, workers):
    monkeypatch.setattr("sinrmin.experiment._stream_normals", None)  # never reached
    with pytest.raises(ConfigError, match=f"^workers must be an int >= 1, got {workers!r}$"):
        run(_cfg(), workers=workers)


def test_float_fields_accept_ints():
    _cfg(gamma_db=10, sigma_sq=1).validate()


def test_exhaustive_dp_memory_is_bounded_before_any_work():
    # 997,002,000 orderings are within the budget, and one trial's channels
    # take 1,040,000 bytes, but the DP's level of pairs would take 1.04 GB
    big = dict(M=65, K=1000, K_s=3, trials=1, algorithms=("EXHAUSTIVE",),
               exhaustive_budget=10**9)
    for method in ("approx", "both"):
        with pytest.raises(ConfigError, match="DP takes 1040000000 bytes"):
            _cfg(**big, power_method=method).validate()
    _cfg(**big, power_method="exact").validate()  # no DP is run
    _cfg(**dict(big, exhaustive_budget=997_001_999)).validate()  # skipped, never run
    _cfg(**big).validate(simulatable=False)
    # at K_s = 2 only the root is stepped in full: the last level's rows are
    # stepped in sub-chunks, so a trial holds 1,056,000 bytes at once
    _cfg(**dict(big, K_s=2, exhaustive_budget=999_000)).validate()
    ref = resources.files("sinrmin").joinpath("configs/fig4.cfg")
    with resources.as_file(ref) as path:
        assert "EXHAUSTIVE" in parse_config(path).algorithms  # 182,400 bytes a trial


def test_the_dp_unit_is_at_most_the_largest_level():
    # what a DP trial holds is at most its largest level, which the DP once
    # took whole, so no config that bound accepted is refused: at M = 64,
    # K = 60, K_s = 3 that level took 107,028,480 bytes, the unit 3,686,400
    assert selection._dp_trial_bytes(60, 64, 3) == 3_686_400
    _cfg(M=64, K=60, K_s=3, trials=1, algorithms=("EXHAUSTIVE",)).validate()
    for k in range(2, 41):
        for k_s in range(1, min(k, 9) + 1):
            for m in range(k_s, k_s + 12):
                largest = 16 * k * max(math.comb(k, j) * (m - j + 1) for j in range(k_s))
                assert selection._dp_trial_bytes(k, m, k_s) <= largest, (k, m, k_s)


def test_canonical_is_stable_and_complete():
    cfg = _cfg()
    assert cfg.canonical() == _cfg().canonical()
    assert cfg.canonical() != _cfg(master_seed=8).canonical()
    text = cfg.canonical()
    for key in ("M=", "K=", "K_s=", "gamma_db=", "trials=", "master_seed="):
        assert key in text


# ---------------------------------------------------------------------------
# run_point


def test_rus_point_matches_closed_form():
    cfg = _cfg(trials=20_000, master_seed=20240817)
    row = run_point(cfg)[0]
    want = avg_power_rus(4, 2, 10.0, 0.1)
    assert want == pytest.approx(5 / 6, rel=1e-12)
    assert abs(row.mc_mean - want) <= max(3 * row.mc_stderr, 0.01 * want)
    assert row.analytic_value == pytest.approx(want, rel=1e-12)
    assert row.infeasible_count == 0
    assert row.note == ""


def test_single_trial_reproducible():
    cfg = _cfg(trials=1, algorithms=("NUS",))
    a = run_point(cfg)[0]
    b = run_point(cfg)[0]
    assert a.mc_mean == b.mc_mean
    assert a.mc_stderr == 0.0


def test_worker_counts_do_not_change_results():
    cfg = _cfg(trials=400, algorithms=("NUS", "SUS"), power_method="both")
    rows = {w: run_point(cfg, workers=w) for w in (1, 2, 4)}
    for a, b in zip(rows[1], rows[2]):
        assert a == b
    for a, b in zip(rows[1], rows[4]):
        assert a == b


def test_max_norm_first_pick_rules_agree_at_single_user():
    cfg = _cfg(K_s=1, trials=4000, algorithms=("NUS", "SUS", "AUS"),
               power_method="both", master_seed=31)
    samples = _alone(cfg)
    nus = samples[("NUS", "approx")]
    for alg in ("SUS", "AUS"):
        assert np.array_equal(samples[(alg, "approx")], nus)
    # single user: approx and exact coincide
    assert np.allclose(samples[("NUS", "exact")], nus, rtol=1e-12)
    want = 10.0 * 0.1 * alpha(4, 10)
    assert abs(np.mean(nus) - want) <= 0.02 * want


def test_exact_never_exceeds_approx_per_trial():
    cfg = _cfg(trials=500, algorithms=("NUS", "SUS", "AUS", "RUS"),
               power_method="both", master_seed=13)
    samples = _alone(cfg)
    for alg in ("NUS", "SUS", "AUS", "RUS"):
        e = samples[(alg, "exact")]
        a = samples[(alg, "approx")]
        assert np.all(e <= a * (1 + 1e-12))


def test_exhaustive_floor_per_trial():
    cfg = _cfg(K=6, trials=200, algorithms=("EXHAUSTIVE", "NUS", "SUS", "AUS", "RUS"),
               master_seed=17)
    samples = _alone(cfg)
    floor = samples[("EXHAUSTIVE", "approx")]
    for alg in ("NUS", "SUS", "AUS", "RUS"):
        assert np.all(floor <= samples[(alg, "approx")] * (1 + 1e-9))


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace the process pool with an in-process one; yields its sizes."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            return map(fn, args)

    # experiment._open_pool imports the pool class when it opens one
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    return sizes


def test_pool_size_bounded_by_chunks(monkeypatch, pool_sizes):
    monkeypatch.setattr("os.cpu_count", lambda: 128)
    cfg = _cfg(trials=3, algorithms=("NUS",))
    samples = _alone(cfg, workers=64)
    assert pool_sizes == [3]
    assert np.array_equal(samples[("NUS", "approx")],
                          _alone(cfg)[("NUS", "approx")])


def test_pool_size_bounded_by_cpu_count(monkeypatch, pool_sizes):
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    cfg = _cfg(trials=50, algorithms=("NUS", "RUS"))
    samples = _alone(cfg, workers=5000)
    assert pool_sizes == [2]
    serial = _alone(cfg)
    for key in serial:
        assert np.array_equal(samples[key], serial[key])


@pytest.mark.parametrize("workers", (1, 2, 3))
@pytest.mark.parametrize("trials", (1, 2, 7, 50))
def test_trials_cut_into_capped_blocks(monkeypatch, pool_sizes, workers, trials):
    import sinrmin.experiment as exp

    blocks = []
    run_chunk = exp._run_chunk

    def recording(payload):
        blocks.append(payload[2])
        return run_chunk(payload)

    monkeypatch.setattr("os.cpu_count", lambda: 128)
    monkeypatch.setattr(exp, "_run_chunk", recording)
    monkeypatch.setattr(selection, "_CHUNK_BYTES", 3 * 16 * 6 * 4)  # 3 trials
    cfg = _cfg(K=6, trials=trials, algorithms=("NUS",))
    samples = _alone(cfg, workers=workers)
    assert [t for block in blocks for t in block] == list(range(trials))
    sizes = [len(block) for block in blocks]
    assert max(sizes) <= 3 and max(sizes) - min(sizes) <= 1
    if trials >= workers:
        assert len(blocks) % workers == 0
    assert pool_sizes == ([] if workers == 1 else [min(workers, len(blocks))])
    assert samples[("NUS", "approx")].shape == (trials,)


@pytest.mark.parametrize("workers", (1, 2))
def test_one_pool_per_sweep(monkeypatch, pool_sizes, workers):
    import sinrmin.experiment as exp

    points = []

    def recording(config, sweep_value, *args, **kwargs):
        points.append(sweep_value)
        return run_point(config, sweep_value, *args, **kwargs)

    monkeypatch.setattr("os.cpu_count", lambda: 128)
    # the sweep still goes through run_point, where per-point spans are timed
    monkeypatch.setattr(exp, "run_point", recording)
    cfg = _cfg(K=None, sweep_axis="K", sweep_values=(4, 6, 8), trials=7,
               algorithms=("NUS", "RUS"))
    rows = run_sweep(cfg, workers=workers)
    assert pool_sizes == ([] if workers == 1 else [2])
    assert points == [4, 6, 8]
    assert rows == run_sweep(cfg, workers=1)
    pool_sizes.clear()
    for k in cfg.sweep_values:  # each point alone opens its own
        run_point(cfg, k, workers=workers)
    assert pool_sizes == ([] if workers == 1 else [2, 2, 2])


def test_one_pricing_call_per_method_and_block(monkeypatch):
    import sinrmin.experiment as exp

    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, kwargs.get("power_fn")))
            return fn(*args, **kwargs)
        return wrapper

    for name in ("select_nus", "select_rus", "select_exhaustive", "_best_approx_orders",
                 "_best_exact_orders", "_rule_orders", "approx_min_power", "exact_min_power",
                 "_stream_normals", "_stream_words"):
        monkeypatch.setattr(exp, name, counted(name, getattr(exp, name)))
    cfg = _cfg(K=None, sweep_axis="K", sweep_values=(5, 6), trials=10, power_method="both",
               algorithms=("NUS", "RUS", "EXHAUSTIVE"))
    # a trial's unit at K = 6: its channels, or its three series' two picked rows.
    # The default cap holds all 10 trials in one block and both points in one
    # piece; 10 units, one block and a piece a point; 5 units, blocks of 5
    unit = 16 * 6 * 4
    for blocks, pieces, budget in ((1, 1, selection._CHUNK_BYTES), (1, 2, 10 * unit),
                                   (2, 4, 5 * unit)):
        calls.clear()
        monkeypatch.setattr(selection, "_CHUNK_BYTES", budget)
        _, samples = _sweep_samples(cfg, cfg.points(), workers=1)
        assert all(not np.isnan(arr).any() for point in samples for arr in point.values())
        visits = blocks * len(cfg.points())
        assert Counter(calls) == {
            # each block draws its streams once, for both points
            ("_stream_normals", None): blocks,
            ("_stream_words", None): blocks,
            # the rules select once a piece, over its points' stacked rows
            ("_rule_orders", None): pieces,
            ("_best_exact_orders", None): visits,
            # one approx DP a block serves both points
            ("_best_approx_orders", None): blocks,
            # one solver call per method and piece: each point's NUS, RUS and
            # EXHAUSTIVE stacked
            ("exact_min_power", None): pieces,
            ("approx_min_power", None): pieces,
        }


def test_a_block_takes_its_channels_norms_once(monkeypatch):
    # the channel set keeps the squared norms its check takes: the rules
    # read them, and a stacked approx call takes its rows' norms once and
    # reads its first residual from them. A piece of points, K = 4 and 6,
    # repeats the block's channels and norms at its widest K, and takes no
    # norms of its own
    import sinrmin.experiment as exp
    from sinrmin import power

    configs = [_cfg(K=6, trials=12, algorithms=("NUS", "SUS", "AUS", "RUS")),
               _cfg(K=None, sweep_axis="K", sweep_values=(4, 6), trials=12,
                    algorithms=("NUS", "SUS", "AUS", "RUS"))]
    payloads = [(cfg, cfg.points(), range(cfg.trials)) for cfg in configs]
    references = [exp._run_chunk(payload) for payload in payloads]
    shapes, pricing = [], []
    norms, approx = channel._squared_norms, exp.approx_min_power

    def counted(rows):
        shapes.append(rows.shape)
        return norms(rows)

    def priced(rows, targets):
        start = len(shapes)
        out = approx(rows, targets)
        pricing.append((rows.shape, shapes[start:]))
        return out

    for module in (channel, selection, power):
        monkeypatch.setattr(module, "_squared_norms", counted)
    monkeypatch.setattr(exp, "approx_min_power", priced)
    for cfg, payload, reference in zip(configs, payloads, references):
        shapes.clear()
        pricing.clear()
        totals = exp._run_chunk(payload)
        for want, got in zip(reference, totals, strict=True):
            for key, arr in want.items():
                assert arr.tobytes() == got[key].tobytes(), key
        # once, by the channel set's check, where each rule took its own (8
        # in all), and no other pass over whole channels, (T', K', M) with K' > K_s
        assert [s for s in shapes if len(s) == 3 and s[1] > cfg.K_s and s[2] == cfg.M] == \
            [(cfg.trials, 6, cfg.M)]
        # one call stacks the four rules' picked rows at every point; its second
        # residual is of the rows stepped by their first, and no other pass is made
        rows = (4 * len(cfg.points()) * cfg.trials, cfg.K_s, cfg.M)
        assert pricing == [(rows, [rows, (rows[0], cfg.M - 1)])]


def _reference(cfg, sweep_value):
    """Per-trial totals of the series run at one point, from one block drawn
    for that point alone: channels by `sample_channel_set` at its K and M,
    the EXHAUSTIVE orders of a search at that K, and the random-selection
    words the rule draws itself."""
    m, k = cfg.dims_at(sweep_value)
    seeds = [SeedSpec(cfg.master_seed, 2 * t) for t in range(cfg.trials)]
    rus = [SeedSpec(cfg.master_seed, 2 * t + 1) for t in range(cfg.trials)]
    series = [(alg, meth) for alg in _runnable(cfg, k) for meth in cfg.methods()]
    targets = SinrTargets(cfg.gamma_linear, cfg.sigma_sq)
    block = sample_channel_set(m, k, seeds)
    with np.errstate(over="ignore", invalid="ignore"):
        (found,) = _searches(cfg, targets, block, [(k, series)])
        (totals,) = _piece_totals(cfg, targets, block, [(k, series, found)], rus)
    return totals


def _assert_same_totals(got, want):
    assert got.keys() == want.keys()
    for key, arr in want.items():
        assert got[key].tobytes() == arr.tobytes(), key


_K_SWEEP = dict(K=None, sweep_axis="K", sweep_values=(3, 6, 8), K_s=3)  # K = K_s included
_M_SWEEP = dict(M=None, K=6, sweep_axis="M", sweep_values=(3, 5, 4), K_s=3)  # widest in the middle
# a block's one approx DP at the widest K that searches serves every K: widest
# first, K_s = 1 with K = K_s, and a budget that leaves K = 8 unsearched
_DP_SWEEPS = {
    "K-down": dict(K=None, sweep_axis="K", sweep_values=(8, 3, 6), K_s=3),
    "Ks1": dict(K=None, sweep_axis="K", sweep_values=(4, 1, 3), K_s=1),
    "K-budget": dict(K=None, sweep_axis="K", sweep_values=(8, 3, 6), K_s=3,
                     exhaustive_budget=math.perm(6, 3)),
    # wider than the five series' picked rows, so a piece's widest K sets
    # its unit: pieces of (12, 4), (14) and (6, 9) at the split budget
    "K-pieces": dict(K=None, sweep_axis="K", sweep_values=(12, 4, 14, 6, 9), K_s=2),
}


@pytest.mark.parametrize("sweep", (_K_SWEEP, _M_SWEEP, *_DP_SWEEPS.values()),
                         ids=("K", "M", *_DP_SWEEPS))
@pytest.mark.parametrize("workers", (1, 2))
def test_sweep_points_equal_each_point_alone(monkeypatch, sweep, workers):
    import sinrmin.experiment as exp

    cfg = _cfg(**sweep, trials=12, power_method="both",
               algorithms=("NUS", "SUS", "AUS", "RUS", "EXHAUSTIVE"))
    alone = {v: _alone(cfg, v) for v in cfg.points()}
    for v in cfg.points():
        _assert_same_totals(alone[v], _reference(cfg, v))
    dims = list(map(cfg.dims_at, cfg.points()))
    widest = max(16 * m * max(k, m) for m, k in dims)
    assert selection._CHUNK_BYTES // widest >= cfg.trials  # one default block
    # a piece's unit at the sweep's widest K: its channels, or its five series' picked rows
    unit = max(16 * m * max(k, 5 * cfg.K_s) for m, k in dims)
    # one block, one trial a block, blocks of 5, and one block in pieces of
    # two points or more where the widest K allows
    for budget in (selection._CHUNK_BYTES, widest, 5 * widest, 2 * cfg.trials * unit):
        monkeypatch.setattr(selection, "_CHUNK_BYTES", budget)  # the pool forks and sees it
        for v, samples in zip(cfg.points(), _sweep_samples(cfg, cfg.points(), workers)[1]):
            _assert_same_totals(samples, alone[v])
    rows = [row for v in cfg.points() for row in run_point(cfg, v)]
    assert run_sweep(cfg, workers) == rows


def test_a_trial_infeasible_at_one_k_only(monkeypatch):
    # trial 5's third user copies its first, so at K = K_s = 3 every ordering
    # is infeasible and the DP marks the trial there, while K = 4 and 6 search it
    import sinrmin.experiment as exp

    draw = exp._stream_normals

    def copied(seeds, shape):
        z = draw(seeds, shape)
        for t, spec in enumerate(seeds):
            if spec.stream_index == 2 * 5:
                z[t, 16:24] = z[t, :8]  # M = 4: a user is 8 normals
        return z

    monkeypatch.setattr(exp, "_stream_normals", copied)
    cfg = _cfg(K=None, sweep_axis="K", sweep_values=(6, 3, 4), K_s=3, trials=8,
               algorithms=("NUS", "EXHAUSTIVE"))
    _, samples = _sweep_samples(cfg, cfg.points(), 1)
    for v, got in zip(cfg.points(), samples):
        _assert_same_totals(got, _alone(cfg, v))
        assert np.isnan(got[("EXHAUSTIVE", "approx")][5]) == (v == 3)
    assert not np.isnan(samples[1][("EXHAUSTIVE", "approx")][:5]).any()


def _spied(monkeypatch, name, record):
    """Patch `experiment.<name>` to call `record(args, kwargs, result)` after each call."""
    import sinrmin.experiment as exp

    real = getattr(exp, name)

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        record(args, kwargs, out)
        return out

    monkeypatch.setattr(exp, name, spy)


_PIECE_SWEEPS = {
    "Ks-floor": ((2, 5, 3), 2),  # K' = K_s at the first point
    "Ks1": ((1, 4, 3), 1),
    "zero-row": ((3, 6, 5), 2),
    "lemire": ((4, 6, 8), 2),
    "split": ((3, 8, 5, 6, 4), 2),
}


@pytest.mark.parametrize("case", _PIECE_SWEEPS)
def test_piece_orders_equal_each_point_alone(monkeypatch, case):
    # a point's rule orders from its piece are the public rules' on its own
    # channel set, bit for bit
    import sinrmin.experiment as exp

    ks, k_s = _PIECE_SWEEPS[case]
    cfg = _cfg(K=None, sweep_axis="K", sweep_values=ks, K_s=k_s, trials=12,
               algorithms=("NUS", "SUS", "AUS", "RUS"))
    draw, words = channel._stream_normals, exp._stream_words
    if case == "zero-row":  # user 1 of trial 2 is zero at every point

        def zeroed(seeds, shape):
            z = draw(seeds, shape)
            for row, spec in zip(z.reshape(len(seeds), -1), seeds):
                if spec.stream_index == 2 * 2:
                    row[2 * cfg.M : 4 * cfg.M] = 0.0
            return z

        monkeypatch.setattr(channel, "_stream_normals", zeroed)  # sample_channel_set's draw
        monkeypatch.setattr(exp, "_stream_normals", zeroed)
    if case == "lemire":
        # trial 3's second word is 0, which a Lemire draw over K users
        # rejects unless K is a power of two: at K = 6 only

        def rejecting(seeds, n):
            out = words(seeds, n).copy()
            out[3, 1] = 0
            return out

        monkeypatch.setattr(exp, "_stream_words", rejecting)
    # only the orders are checked, and a zero row may not be priced
    monkeypatch.setattr(exp, "approx_min_power",
                        lambda rows, targets: mock.Mock(total_power=np.zeros(len(rows))))
    calls = []
    _spied(monkeypatch, "_rule_orders", lambda args, kwargs, out: calls.append((args, out)))
    # one piece; then pieces of two, two and one point, and a point a piece
    budgets = {selection._CHUNK_BYTES: [len(ks)]}
    if case == "split":  # K = 8 sets every unit: 512 bytes, its channels
        budgets.update({2 * cfg.trials * 512: [2, 2, 1], cfg.trials * 512: [1] * 5})
    for budget, sizes in budgets.items():
        monkeypatch.setattr(selection, "_CHUNK_BYTES", budget)
        calls.clear()
        with mock.patch.object(selection, "_streams", side_effect=channel._streams) as chosen:
            exp._run_chunk((cfg, cfg.points(), range(cfg.trials)))
        if case == "lemire":  # one choice call for each K of the piece
            assert [list(c.args[0]) for c in chosen.call_args_list] == \
                [[], [SeedSpec(cfg.master_seed, 2 * 3 + 1)], []]
        assert [len(set(args[4].tolist())) for args, _ in calls] == sizes
        for (_, h, _, _, live, seeds, piece_words), found in calls:
            for k in dict.fromkeys(live.tolist()):
                rows = np.flatnonzero(live == k)
                rus = [seeds[r] for r in rows]
                point = sample_channel_set(
                    cfg.M, k, [SeedSpec(cfg.master_seed, s.stream_index - 1) for s in rus])
                want = {rule: (got.selection_order, got.encoding_order) for rule, got in
                        (("NUS", select_nus(point, k_s)), ("SUS", select_sus(point, k_s)),
                         ("AUS", select_aus(point, k_s)))}
                # RUS picks in draw order from the piece's words, rejected ones included
                picks = selection._rus_picks(rus, k_s, np.full(len(rows), k), piece_words[rows])
                want["RUS"] = picks, picks
                assert found.keys() == want.keys()
                for rule, (picked, encoded) in found.items():
                    assert np.array_equal(picked[rows], want[rule][0]), (rule, k)
                    assert np.array_equal(encoded[rows], want[rule][1]), (rule, k)


def test_stacked_calls_fit_the_cap_unless_a_piece_is_one_point(monkeypatch):
    # a piece's selection call and solver calls each take at most
    # _CHUNK_BYTES of channel rows; only a piece of one point may take more,
    # as a lone point's block always could
    cfg = _cfg(K=None, sweep_axis="K", sweep_values=(12, 4, 14, 6, 9), K_s=2, trials=12,
               power_method="both", algorithms=("NUS", "SUS", "AUS", "RUS", "EXHAUSTIVE"))
    calls = []
    _spied(monkeypatch, "_rule_orders",
           lambda args, kwargs, out: calls.append(("select", args[1].nbytes,
                                                   len(set(args[4].tolist())) == 1)))
    for solver in ("approx_min_power", "exact_min_power"):
        _spied(monkeypatch, solver, lambda args, kwargs, out: calls.append(("price", args[0].nbytes)))
    pieces = []
    # K = 14's channels, 896 bytes a trial, cut the blocks: one block in one
    # piece; one block in pieces of (12, 4), (14, 6) and (9), at the cap; one
    # block, a point a piece; blocks of 4
    trial = 16 * 4 * 14
    for budget in (selection._CHUNK_BYTES, 2 * 12 * trial, 12 * trial, 4 * trial):
        monkeypatch.setattr(selection, "_CHUNK_BYTES", budget)
        calls.clear()
        _sweep_samples(cfg, cfg.points(), workers=1)
        for call in calls:
            if call[0] == "select":
                lone = call[2]
                pieces.append(lone)
            assert lone or call[1] <= budget, call
    assert False in pieces and True in pieces


def _calls(monkeypatch):
    """Spy on a block's searches, selection and solvers: per name, each
    call's arguments and its result, or the InfeasibleGeometryError it raised."""
    import sinrmin.experiment as exp

    calls = {name: [] for name in ("_best_approx_orders", "_best_exact_orders", "_rule_orders",
                                   "approx_min_power", "exact_min_power")}

    def spy(*args, real, made):
        try:
            made.append((args, real(*args)))
        except InfeasibleGeometryError as exc:
            made.append((args, exc))
            raise
        return made[-1][1]

    for name, made in calls.items():
        monkeypatch.setattr(exp, name, functools.partial(spy, real=getattr(exp, name), made=made))
    return calls


def _raised(calls):
    """How many of `calls` raised."""
    return sum(isinstance(out, InfeasibleGeometryError) for _, out in calls)


def test_a_dependent_pair_at_one_k_of_a_piece(monkeypatch):
    # trial 5's user 2 copies its user 0, the strongest of the first three,
    # so at K = 3 NUS picks that dependent pair and its approx pricing
    # raises; at K = 6 and 8 user 3, stronger still, goes first. One piece
    # holds every point: one DP, one exact search a point and one solver
    # call a method, whose approx call then prices its rows alone. Only
    # K = 3's NUS approx cell of trial 5 turns NaN, each point equal to its
    # lone totals
    import sinrmin.experiment as exp

    draw = exp._stream_normals

    def copied(seeds, shape):
        z = draw(seeds, shape)
        for t, spec in enumerate(seeds):
            if spec.stream_index == 2 * 5:  # M = 4: a user is 8 normals
                z[t, :8] *= 30.0
                z[t, 16:24] = z[t, :8]
                z[t, 24:32] *= 60.0
        return z

    monkeypatch.setattr(exp, "_stream_normals", copied)
    cfg = _cfg(K=None, sweep_axis="K", sweep_values=(3, 6, 8), K_s=2, trials=8,
               power_method="both", algorithms=("NUS", "SUS", "AUS", "EXHAUSTIVE"))
    alone = {v: _alone(cfg, v) for v in cfg.points()}
    calls = _calls(monkeypatch)
    _, samples = _sweep_samples(cfg, cfg.points(), 1)
    (block, _), *rows = calls.pop("approx_min_power")
    assert {name: len(c) for name, c in calls.items()} == {
        "_best_approx_orders": 1, "_best_exact_orders": 3, "_rule_orders": 1,
        "exact_min_power": 1}
    assert len(block[0]) == len(cfg.algorithms) * len(cfg.points()) * cfg.trials
    assert [len(args[0]) for args, _ in rows] == [1] * len(block[0]) and _raised(rows) == 1
    for v, got in zip(cfg.points(), samples):
        _assert_same_totals(got, alone[v])
        nan = {(name, t) for name, arr in got.items() for t in np.flatnonzero(np.isnan(arr))}
        assert nan == ({(("NUS", "approx"), 5)} if v == 3 else set()), v


@pytest.mark.parametrize("trials", (8, 64))
def test_a_piece_whose_searches_find_nothing_at_one_k(monkeypatch, trials):
    # trial 5's first three users are multiples of one weak user, and its
    # users 3 and up are drawn as usual: at K = 3 every pick is a dependent
    # pair, so each approx cell of trial 5 raises and the block's DP marks
    # the trial -1 there, while K = 6 and 8 pick and search around them. The
    # -1 row is never priced, and the block takes one DP, one exact search a
    # point, one selection call and one solver call a method, whose approx
    # call then prices its rows alone
    import sinrmin.experiment as exp

    draw, bad = exp._stream_normals, 5

    def dependent(seeds, shape):
        z = draw(seeds, shape)
        for t, spec in enumerate(seeds):
            if spec.stream_index == 2 * bad:  # M = 4: a user is 8 normals
                z[t, :8] *= 0.1
                z[t, 8:16], z[t, 16:24] = 0.5 * z[t, :8], -0.25 * z[t, :8]
        return z

    monkeypatch.setattr(exp, "_stream_normals", dependent)
    cfg = _cfg(K=None, sweep_axis="K", sweep_values=(3, 6, 8), K_s=2, trials=trials,
               power_method="both", algorithms=("NUS", "SUS", "AUS", "RUS", "EXHAUSTIVE"))
    alone = {v: _alone(cfg, v) for v in cfg.points()}
    calls = _calls(monkeypatch)
    _, samples = _sweep_samples(cfg, cfg.points(), 1)
    (block, _), *rows = calls.pop("approx_min_power")
    assert {name: len(c) for name, c in calls.items()} == {
        "_best_approx_orders": 1, "_best_exact_orders": 3, "_rule_orders": 1,
        "exact_min_power": 1}
    ((_, found),) = calls["_best_approx_orders"]
    assert [np.flatnonzero(o[:, 0] < 0).tolist() for o in found] == [[bad], [], []]
    assert all((o >= 0).all() for _, o in calls["_best_exact_orders"])
    # every series of every point but the DP's one -1 row; each rule's pick raises alone
    assert len(block[0]) == len(cfg.algorithms) * len(cfg.points()) * trials - 1
    assert [len(args[0]) for args, _ in rows] == [1] * len(block[0]) and _raised(rows) == 4
    for v, got in zip(cfg.points(), samples):
        _assert_same_totals(got, alone[v])
        nan = {(name, t) for name, arr in got.items() for t in np.flatnonzero(np.isnan(arr))}
        want = {((alg, "approx"), bad) for alg in cfg.algorithms}
        assert nan == (want if v == 3 else set()), v


def test_sweep_groups_keep_the_rows(monkeypatch):
    import sinrmin.experiment as exp

    cfg = _cfg(**_K_SWEEP, trials=6, algorithms=("NUS", "RUS"))
    reference = run_sweep(cfg)
    groups = []
    run_chunk = exp._run_chunk

    def recording(payload):
        groups.append(payload[1])
        return run_chunk(payload)

    monkeypatch.setattr(exp, "_run_chunk", recording)
    # totals of two points fit, not three: the sweep runs as groups of 2 and 1
    monkeypatch.setattr(exp, "_SAMPLE_BYTES", 2 * 8 * cfg.trials * 2)
    assert run_sweep(cfg) == reference
    assert groups == [(3, 6), (8,)]


@pytest.mark.parametrize("workers", (1, 2))
def test_block_size_does_not_change_samples(monkeypatch, workers):
    import sinrmin.experiment as exp

    cfg = _cfg(K=6, trials=40, power_method="both",
               algorithms=("NUS", "SUS", "AUS", "RUS", "EXHAUSTIVE"))
    reference = _alone(cfg)
    _assert_same_totals(reference, _reference(cfg, None))
    per_trial = 16 * 6 * 4
    assert selection._CHUNK_BYTES // per_trial >= cfg.trials  # one default block
    for budget in (selection._CHUNK_BYTES, per_trial, 7 * per_trial):
        # the pool forks, so its workers see the patched budget
        monkeypatch.setattr(selection, "_CHUNK_BYTES", budget)
        _assert_same_totals(_alone(cfg, workers=workers), reference)


def test_rejected_lemire_word_calls_choice_at_every_point(monkeypatch):
    import sinrmin.experiment as exp

    cfg = _cfg(**_K_SWEEP, trials=10, algorithms=("RUS",))
    plain = {v: _reference(cfg, v) for v in cfg.points()}
    t = 3
    words = exp._stream_words

    def rejecting(seeds, n):
        # a zero word is rejected by a Lemire draw whose span is no power of
        # two: the second word's span is K - 1 at K > K_s, and 3 at K = K_s = 3
        out = words(seeds, n).copy()
        out[t, 1] = 0
        return out

    monkeypatch.setattr(exp, "_stream_words", rejecting)
    # select_rus calls choice on the streams it hands to channel._streams
    with mock.patch.object(selection, "_streams", side_effect=channel._streams) as chosen:
        _, samples = _sweep_samples(cfg, cfg.points(), workers=1)
    assert [list(c.args[0]) for c in chosen.call_args_list] == \
        [[SeedSpec(cfg.master_seed, 2 * t + 1)]] * len(cfg.points())
    for v, got in zip(cfg.points(), samples):
        _assert_same_totals(got, plain[v])


def test_a_sweep_builds_each_spec_once():
    # a block builds its channel and random-selection specs once, for every point
    cfg = _cfg(**_K_SWEEP, trials=9, algorithms=("NUS", "RUS"))
    with mock.patch.object(SeedSpec, "__post_init__", autospec=True,
                           side_effect=SeedSpec.__post_init__) as built:
        run_sweep(cfg)
    assert built.call_count == 2 * cfg.trials


def test_a_sweep_validates_its_config_once():
    ref = resources.files("sinrmin").joinpath("configs/fig2.cfg")
    with resources.as_file(ref) as path:
        cfg = dataclasses.replace(parse_config(path), trials=20)
    with mock.patch.object(ExperimentConfig, "validate", autospec=True,
                           side_effect=ExperimentConfig.validate) as checked:
        rows = run_sweep(cfg)
    assert checked.call_count == 1
    assert {row.sweep_value for row in rows} == set(cfg.sweep_values)


def test_budget_exceeded_produces_flagged_row():
    cfg = _cfg(K=12, K_s=4, trials=50, algorithms=("EXHAUSTIVE", "NUS"),
               exhaustive_budget=1000)
    rows = run_point(cfg)
    ex = [r for r in rows if r.algorithm == "EXHAUSTIVE"][0]
    assert ex.note == "budget_exceeded"
    assert ex.trials == 0 and ex.mc_mean is None
    nus = [r for r in rows if r.algorithm == "NUS"][0]
    assert nus.trials == 50 and nus.mc_mean is not None


def test_infeasible_trials_counted_and_flagged(monkeypatch):
    import sinrmin.experiment as exp

    def always_infeasible(channels, targets):
        raise InfeasibleGeometryError("forced")

    monkeypatch.setitem(
        exp._run_chunk.__globals__, "approx_min_power", always_infeasible
    )
    rows = run_point(_cfg(trials=20))
    row = rows[0]
    assert row.infeasible_count == 20
    assert row.mc_mean is None
    assert "infeasible_rate_exceeded" in row.note


def test_analytic_markers_in_notes():
    # NUS at K_s=4, M=4 has a divergent closed form; MC still runs
    cfg = _cfg(K_s=4, K=10, trials=30, algorithms=("NUS", "EXHAUSTIVE"))
    rows = run_point(cfg)
    nus = [r for r in rows if r.algorithm == "NUS"][0]
    assert nus.analytic_value is None
    assert nus.note.startswith("divergent:")
    assert nus.mc_mean is not None
    ex = [r for r in rows if r.algorithm == "EXHAUSTIVE"][0]
    assert ex.analytic_value is None
    assert ex.note == "no_closed_form"


def test_lower_bound_row_only_at_two_selected():
    rows2 = run_point(_cfg(trials=10))
    lb = [r for r in rows2 if r.algorithm == "LOWER_BOUND"]
    assert len(lb) == 1
    assert lb[0].power_method == "analytic"
    assert lb[0].analytic_value is not None and lb[0].mc_mean is None
    rows1 = run_point(_cfg(K_s=1, trials=10))
    assert not any(r.algorithm == "LOWER_BOUND" for r in rows1)


def test_exact_rows_carry_no_analytic():
    cfg = _cfg(trials=20, power_method="both", algorithms=("NUS",))
    rows = run_point(cfg)
    by_method = {r.power_method: r for r in rows if r.algorithm == "NUS"}
    assert by_method["exact"].analytic_value is None
    assert by_method["approx"].analytic_value is not None


def _summary_alone(arr):
    """A series' (infeasible count, mean, stderr) by the per-series formula,
    the reference for `_summaries`."""
    ok = arr[~np.isnan(arr)]
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(ok.mean()) if ok.size else None
        stderr = float(ok.std(ddof=1) / math.sqrt(ok.size)) if ok.size > 1 else 0.0
    return int(arr.size - ok.size), mean, stderr


@pytest.mark.parametrize("t", (1, 2, 7, 129, 2000))
def test_stacked_summaries_equal_each_series_alone(t):
    # rows at three scales, one with every third trial infeasible, one all
    # infeasible, and one with an overflowed (inf) total
    rng = np.random.default_rng(t)
    stack = rng.exponential(size=(6, t)) * np.array([[1e-3], [1.0], [1e3], [1.0], [1.0], [1.0]])
    stack[3, ::3] = np.nan
    stack[4] = np.nan
    stack[5, -1] = np.inf
    (got,) = _summaries(stack, [dict(enumerate(stack))])
    got = list(got.values())
    assert got[4] == (t, None, 0.0)
    # repr writes each float exactly, NaN alike, and a NumPy scalar apart
    assert repr(got) == repr([_summary_alone(row) for row in stack])


@pytest.mark.parametrize("trials", (1, 7))
def test_an_infinite_total_raises_in_run_point(monkeypatch, trials):
    import sinrmin.experiment as exp

    real = exp.approx_min_power

    def overflowed(rows, targets):
        total = real(rows, targets).total_power.copy()
        total[-1] = np.inf
        return types.SimpleNamespace(total_power=total)

    monkeypatch.setattr(exp, "approx_min_power", overflowed)
    with pytest.raises(ArithmeticError, match=r"^NUS approx at M=4, K=10: Monte Carlo mean inf "):
        run_point(_cfg(trials=trials, algorithms=("NUS",)))


# ---------------------------------------------------------------------------
# run_sweep


def test_sweep_rejects_invalid_config():
    with pytest.raises(ConfigError):
        run_sweep(_cfg(M=None, sweep_axis="M", sweep_values=(3, 2), K_s=3))


def test_sweep_shapes_and_rus_flatness():
    cfg = _cfg(K=None, sweep_axis="K", sweep_values=(4, 8, 12),
               algorithms=("SUS", "RUS"), trials=2500, master_seed=555)
    rows = run_sweep(cfg)
    sus = [r for r in rows if r.algorithm == "SUS"]
    rus = [r for r in rows if r.algorithm == "RUS"]
    assert [r.sweep_value for r in sus] == [4, 8, 12]
    # more users -> greedy picks from a bigger pool -> cheaper
    assert sus[0].mc_mean > sus[1].mc_mean > sus[2].mc_mean
    # random selection cannot profit from extra users
    vals = {r.analytic_value for r in rus}
    assert len(vals) == 1
    assert vals.pop() == pytest.approx(5 / 6, rel=1e-12)


# ---------------------------------------------------------------------------
# validation report


def test_validate_rows_checks_and_sides():
    base = dict(sweep_axis="none", sweep_value=None, power_method="approx",
                trials=1000, seed=1, infeasible_count=0, note="")
    rows = [
        ResultRow(algorithm="RUS", mc_mean=0.84, mc_stderr=0.004,
                  analytic_value=5 / 6, **base),
        ResultRow(algorithm="SUS", mc_mean=0.36, mc_stderr=0.002,
                  analytic_value=0.3632, **base),
        ResultRow(algorithm="SUS", mc_mean=0.40, mc_stderr=0.002,
                  analytic_value=0.3632, **base),
        ResultRow(algorithm="EXHAUSTIVE", mc_mean=0.35, mc_stderr=0.002,
                  analytic_value=None, **base),
    ]
    report = validate_rows(rows, rel_tol=0.02, z=3.0)
    assert len(report) == 3  # no-analytic row skipped
    rus, sus_ok, sus_bad = report
    assert rus.check == "two_sided" and rus.passed
    assert sus_ok.check == "one_sided_upper" and sus_ok.passed
    assert not sus_bad.passed


@pytest.mark.parametrize("tolerance", [dict(rel_tol=math.nan), dict(rel_tol=math.inf),
                                       dict(rel_tol=-0.1), dict(z=math.inf), dict(z=-1.0)])
def test_validate_rows_rejects_bad_tolerances(tolerance):
    (name, value), = tolerance.items()
    with pytest.raises(ConfigError, match=f"^{name} must be finite and non-negative"):
        validate_rows([], **tolerance)


def test_validate_rows_two_sided_failure():
    row = ResultRow(
        sweep_axis="none", sweep_value=None, algorithm="NUS",
        power_method="approx", trials=1000, seed=1, mc_mean=0.50,
        mc_stderr=0.001, analytic_value=0.40, infeasible_count=0, note="",
    )
    (rep,) = validate_rows([row])
    assert not rep.passed
