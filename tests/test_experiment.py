"""Monte Carlo harness tests: determinism, oracles, flags, validation."""

import math
from collections import Counter
from importlib import resources

import numpy as np
import pytest

from sinrmin.analytic import alpha, avg_power_rus
from sinrmin.cli import parse_config
from sinrmin.errors import ConfigError, InfeasibleGeometryError
from sinrmin.experiment import (
    ExperimentConfig,
    ResultRow,
    _point_samples,
    run_point,
    run_sweep,
    validate_rows,
)


def _cfg(**overrides) -> ExperimentConfig:
    base = dict(
        M=4, K=10, K_s=2, gamma_db=10.0, sigma_sq=0.1,
        algorithms=("RUS",), power_method="approx",
        trials=100, master_seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


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
    monkeypatch.setattr("sinrmin.experiment.sample_channel_set", None)  # never reached
    with pytest.raises(ConfigError, match=f"^{field}="):
        run_sweep(_cfg(**overrides))


@pytest.mark.parametrize("overrides, message", [
    (dict(algorithms=("NUS", "FOO")), "unknown algorithm 'FOO'"),
    (dict(trials=10.5), "^trials="),
])
def test_run_point_validates_before_any_work(monkeypatch, overrides, message):
    monkeypatch.setattr("sinrmin.experiment.sample_channel_set", None)  # never reached
    with pytest.raises(ConfigError, match=message):
        run_point(_cfg(**overrides))


@pytest.mark.parametrize("overrides, sweep_value", [
    (dict(K=None, sweep_axis="K", sweep_values=(4, 6)), None),
    (dict(K=None, sweep_axis="K", sweep_values=(4, 6)), 9),
    (dict(), 4),  # a config with no sweep has the one point None
])
def test_run_point_checks_its_sweep_value(monkeypatch, overrides, sweep_value):
    monkeypatch.setattr("sinrmin.experiment.sample_channel_set", None)  # never reached
    with pytest.raises(ConfigError, match=f"^sweep value {sweep_value!r} is not a point"):
        run_point(_cfg(**overrides), sweep_value)


def test_validate_bounds_the_exact_z_inverse():
    # one trial's channels fit in the block bytes, but its M x M Z^-1 would take 4 GiB
    big = dict(K_s=2, algorithms=("NUS",), M=16384, K=4)
    for method in ("exact", "both"):
        with pytest.raises(ConfigError, match=f"Z\\^-1 takes {16 * 16384**2} bytes"):
            _cfg(power_method=method, **big).validate()
    _cfg(power_method="approx", **big).validate()
    _cfg(power_method="exact", M=256, K=4).validate()  # exactly the block bytes
    with pytest.raises(ConfigError, match="Z\\^-1 takes"):
        _cfg(power_method="exact", M=None, K=4, sweep_axis="M", sweep_values=(4, 257)).validate()


def test_exact_blocks_hold_each_trials_z_inverse(monkeypatch):
    import sinrmin.experiment as exp

    sizes = []
    run_chunk = exp._run_chunk

    def recording(payload):
        sizes.append(len(payload[2]))
        return run_chunk(payload)

    monkeypatch.setattr(exp, "_run_chunk", recording)
    cfg = _cfg(M=8, K=3, trials=10, power_method="both", algorithms=("NUS", "EXHAUSTIVE"))
    reference = _point_samples(cfg, None, workers=1)
    sizes.clear()
    # 3 trials of Z^-1, which is room for 8 trials of channels
    monkeypatch.setattr(exp, "_BLOCK_BYTES", 3 * 16 * 8 * 8)
    samples = _point_samples(cfg, None, workers=1)
    assert max(sizes) == 3
    for key, arr in reference.items():
        assert arr.tobytes() == samples[key].tobytes(), key


@pytest.mark.parametrize("run", [run_sweep, run_point])
@pytest.mark.parametrize("workers", [0, -3, 2.5, True])
def test_bad_worker_counts_are_config_errors(monkeypatch, run, workers):
    monkeypatch.setattr("sinrmin.experiment.sample_channel_set", None)  # never reached
    with pytest.raises(ConfigError, match=f"^workers must be an int >= 1, got {workers!r}$"):
        run(_cfg(), workers=workers)


def test_float_fields_accept_ints():
    _cfg(gamma_db=10, sigma_sq=1).validate()


def test_exhaustive_dp_memory_is_bounded_before_any_work():
    # 999,000 orderings are within the budget, and one trial's channels take
    # 1,040,000 bytes, but the DP's largest level would take 1.04 GB
    big = dict(M=65, K=1000, K_s=2, trials=1, algorithms=("EXHAUSTIVE",))
    for method in ("approx", "both"):
        with pytest.raises(ConfigError, match="1040000000 bytes"):
            _cfg(**big, power_method=method).validate()
    with pytest.raises(ConfigError, match="exact search's step takes 67600000 bytes"):
        _cfg(**big, power_method="exact").validate()  # its own bound, not the DP's
    _cfg(**big, exhaustive_budget=998_999).validate()  # skipped, never run
    _cfg(**big).validate(simulatable=False)
    ref = resources.files("sinrmin").joinpath("configs/fig4.cfg")
    with resources.as_file(ref) as path:
        assert "EXHAUSTIVE" in parse_config(path).algorithms  # largest level 729,600 bytes


def test_exact_search_memory_is_bounded_before_any_work():
    # 65,280 orderings are within the budget, and one trial's channels and
    # Z^-1 fit in the block bytes, but one prefix's step takes 16 K M^2 bytes
    big = dict(M=256, K=256, K_s=2, trials=1, algorithms=("NUS", "EXHAUSTIVE"))
    for method in ("exact", "both"):
        with pytest.raises(ConfigError, match=f"step takes {16 * 256**3} bytes, over 1048576"):
            _cfg(**big, power_method=method).validate()
    _cfg(**big, exhaustive_budget=65_279, power_method="exact").validate()  # skipped
    _cfg(**dict(big, algorithms=("NUS",)), power_method="exact").validate()
    _cfg(M=16, K=256, K_s=2, algorithms=("EXHAUSTIVE",), power_method="exact").validate()
    with pytest.raises(ConfigError, match=f"step takes {16 * 257 * 256} bytes"):
        _cfg(M=16, K=257, K_s=2, algorithms=("EXHAUSTIVE",), power_method="exact").validate()


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
    samples = _point_samples(cfg, None, workers=1)
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
    samples = _point_samples(cfg, None, workers=1)
    for alg in ("NUS", "SUS", "AUS", "RUS"):
        e = samples[(alg, "exact")]
        a = samples[(alg, "approx")]
        assert np.all(e <= a * (1 + 1e-12))


def test_exhaustive_floor_per_trial():
    cfg = _cfg(K=6, trials=200, algorithms=("EXHAUSTIVE", "NUS", "SUS", "AUS", "RUS"),
               master_seed=17)
    samples = _point_samples(cfg, None, workers=1)
    floor = samples[("EXHAUSTIVE", "approx")]
    for alg in ("NUS", "SUS", "AUS", "RUS"):
        assert np.all(floor <= samples[(alg, "approx")] * (1 + 1e-9))


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace the process pool with an in-process one; yields its sizes."""
    import sinrmin.experiment as exp

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

    monkeypatch.setattr(exp, "ProcessPoolExecutor", SerialPool)
    return sizes


def test_pool_size_bounded_by_chunks(monkeypatch, pool_sizes):
    monkeypatch.setattr("os.cpu_count", lambda: 128)
    cfg = _cfg(trials=3, algorithms=("NUS",))
    samples = _point_samples(cfg, None, workers=64)
    assert pool_sizes == [3]
    assert np.array_equal(samples[("NUS", "approx")],
                          _point_samples(cfg, None, workers=1)[("NUS", "approx")])


def test_pool_size_bounded_by_cpu_count(monkeypatch, pool_sizes):
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    cfg = _cfg(trials=50, algorithms=("NUS", "RUS"))
    samples = _point_samples(cfg, None, workers=5000)
    assert pool_sizes == [2]
    serial = _point_samples(cfg, None, workers=1)
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
    monkeypatch.setattr(exp, "_BLOCK_BYTES", 3 * 16 * 6 * 4)  # 3 trials
    cfg = _cfg(K=6, trials=trials, algorithms=("NUS",))
    samples = _point_samples(cfg, None, workers=workers)
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

    for name in ("select_nus", "select_rus", "select_exhaustive",
                 "approx_min_power", "exact_min_power"):
        monkeypatch.setattr(exp, name, counted(name, getattr(exp, name)))
    cfg = _cfg(K=6, trials=5, power_method="both",
               algorithms=("NUS", "RUS", "EXHAUSTIVE"))
    # the default budget holds all 5 trials in one block; this one, 2 trials
    for blocks, budget in ((1, exp._BLOCK_BYTES), (3, 2 * 16 * 6 * 4)):
        calls.clear()
        monkeypatch.setattr(exp, "_BLOCK_BYTES", budget)
        samples = _point_samples(cfg, None, workers=1)
        assert all(not np.isnan(arr).any() for arr in samples.values())
        assert Counter(calls) == {
            ("select_nus", None): blocks,
            ("select_rus", None): blocks,
            ("select_exhaustive", "exact"): blocks,
            ("select_exhaustive", "approx"): blocks,
            # one solver call per method: NUS, RUS and EXHAUSTIVE stacked
            ("exact_min_power", None): blocks,
            ("approx_min_power", None): blocks,
        }


@pytest.mark.parametrize("workers", (1, 2))
def test_block_size_does_not_change_samples(monkeypatch, workers):
    import sinrmin.experiment as exp

    cfg = _cfg(K=6, trials=40, power_method="both",
               algorithms=("NUS", "SUS", "AUS", "RUS", "EXHAUSTIVE"))
    reference = _point_samples(cfg, None, workers=1)
    per_trial = 16 * 6 * 4
    assert exp._BLOCK_BYTES // per_trial >= cfg.trials  # one default block
    for budget in (exp._BLOCK_BYTES, per_trial, 7 * per_trial):
        # the pool forks, so its workers see the patched budget
        monkeypatch.setattr(exp, "_BLOCK_BYTES", budget)
        samples = _point_samples(cfg, None, workers=workers)
        assert samples.keys() == reference.keys()
        for key, arr in reference.items():
            assert arr.tobytes() == samples[key].tobytes(), key


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
