"""Block kernels against their one-set calls: every row bit for bit.

Each public sampler, selection rule and power solver takes a (T, K, M)
block as well as one (K, M) set, and a set is priced as the block of
T=1. These properties check that a block's row t is exactly what set t
gives alone, on near-dependent users, at K_s = M and with per-position
targets, and that an infeasible trial turns only its own totals NaN.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinrmin import experiment
from sinrmin.channel import ChannelSet, SeedSpec, sample_channel_set
from sinrmin.errors import InfeasibleGeometryError
from sinrmin.power import SinrTargets, approx_min_power, exact_min_power
from sinrmin.selection import select_aus, select_exhaustive, select_nus, select_rus, select_sus


@st.composite
def _blocks(draw):
    t = draw(st.integers(1, 6))
    m = draw(st.integers(1, 5))
    k = draw(st.integers(1, 7))
    k_s = draw(st.one_of(st.just(min(m, k)), st.integers(1, min(m, k))))
    seed = draw(st.integers(0, 2**64 - 1))
    seeds = [SeedSpec(seed, i) for i in range(t)]
    h = sample_channel_set(m, k, seeds).users.copy()
    if k >= 3:
        # some trials get a last user within eps of the first two users' span
        eps = draw(st.sampled_from([1e-3, 1e-6, 1e-9]))
        a, b = draw(st.tuples(st.floats(-2, 2), st.floats(-2, 2)))
        noise = sample_channel_set(m, 1, SeedSpec(seed, t)).users[0]
        near = draw(st.lists(st.integers(0, t - 1), max_size=t))
        h[near, -1] = a * h[near, 0] + 1j * b * h[near, 1] + eps * noise
    per_position = st.lists(st.floats(0.5, 100.0), min_size=k_s, max_size=k_s)
    gamma = draw(st.one_of(st.floats(0.5, 100.0), per_position.map(np.array)))
    return h, k_s, SinrTargets(gamma, draw(st.sampled_from([0.1, 1.0]))), seed


def _equal_or_both_infeasible(solver, rows, targets):
    """Block totals and per-user powers equal the one-set calls bit for bit."""
    singles = []
    for h in rows:
        try:
            singles.append(solver(h, targets))
        except InfeasibleGeometryError:
            singles.append(None)
    try:
        block = solver(rows, targets)
    except InfeasibleGeometryError:
        assert any(s is None for s in singles)
        return
    for t, single in enumerate(singles):
        assert single is not None
        assert block.total_power[t] == single.total_power
        assert np.array_equal(block.per_user_power[t], single.per_user_power)
        assert np.array_equal(block.achieved_sinr[t], single.achieved_sinr)


@settings(max_examples=80, deadline=None)
@given(_blocks())
def test_block_rows_equal_one_set_calls(instance):
    h, k_s, targets, seed = instance
    m, k = h.shape[-1], h.shape[-2]
    seeds = [SeedSpec(seed, i) for i in range(len(h))]
    drawn = sample_channel_set(m, k, seeds).users
    for t, s in enumerate(seeds):
        assert np.array_equal(drawn[t], sample_channel_set(m, k, s).users)

    block = ChannelSet(h)
    for rule in (select_nus, select_sus, select_aus):
        sel = rule(block, k_s)
        for t in range(len(h)):
            one = rule(ChannelSet(h[t]), k_s)
            assert tuple(sel.selection_order[t]) == one.selection_order
            assert tuple(sel.encoding_order[t]) == one.encoding_order
        ordered = np.take_along_axis(h, sel.encoding_order[..., None], axis=1)
        _equal_or_both_infeasible(approx_min_power, ordered, targets)
        _equal_or_both_infeasible(exact_min_power, ordered, targets)

        assert sel == rule(block, k_s) and sel != rule(ChannelSet(h[0]), k_s)

    rus = select_rus(block, k_s, seeds)
    for t, s in enumerate(seeds):
        assert tuple(rus.encoding_order[t]) == select_rus(ChannelSet(h[t]), k_s, s).encoding_order


def _totals(cfg, targets, series, block, rus=()):
    """Totals of `series` over `block`, priced as a piece of one point at its
    K, with the EXHAUSTIVE orders `_run_chunk` searches it for."""
    (found,) = experiment._searches(cfg, targets, block, [(block.K, series)])
    (totals,) = experiment._piece_totals(cfg, targets, block, [(block.K, series, found)], rus)
    return totals


def _copy_strongest_user(h, trials):
    """A copy of each trial's strongest user: NUS picks both, and the second
    lies in the first's span, so only those trials' approx prices are infeasible."""
    for i in trials:
        strongest = int(np.argmax((np.abs(h[i]) ** 2).sum(axis=1)))
        h[i, (strongest + 1) % h.shape[1]] = h[i, strongest]


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 9), st.data())
def test_infeasible_trial_is_the_only_nan(t, data):
    # the block's first and last trials are always among the bad ones
    bad = {0, t - 1} | data.draw(st.sets(st.integers(0, t - 1), max_size=3))
    seed = data.draw(st.integers(0, 2**32 - 1))
    cfg = experiment.ExperimentConfig(
        M=4, K=6, K_s=2, gamma_db=10.0, sigma_sq=0.1, algorithms=("NUS", "SUS"),
        power_method="both", trials=t, master_seed=seed,
    )
    h = sample_channel_set(4, 6, [SeedSpec(seed, 2 * i) for i in range(t)]).users.copy()
    _copy_strongest_user(h, bad)
    targets = SinrTargets(cfg.gamma_linear, cfg.sigma_sq)
    series = [(alg, meth) for alg in cfg.algorithms for meth in cfg.methods()]
    totals = _totals(cfg, targets, series, ChannelSet(h))

    assert np.isnan(totals[("NUS", "approx")]).tolist() == [i in bad for i in range(t)]
    for key in series:
        if key != ("NUS", "approx"):
            assert not np.isnan(totals[key]).any()
    for i in range(t):
        order = list(select_nus(ChannelSet(h[i]), 2).encoding_order)
        assert totals[("NUS", "exact")][i] == exact_min_power(h[i][order], targets).total_power
        if i not in bad:
            want = approx_min_power(h[i][order], targets).total_power
            assert totals[("NUS", "approx")][i] == want


def test_exhaustive_infeasible_trial_in_a_block():
    t, bad = 5, {1, 4}
    cfg = experiment.ExperimentConfig(
        M=4, K=6, K_s=3, gamma_db=10.0, sigma_sq=0.1, algorithms=("EXHAUSTIVE",),
        power_method="both", trials=t, master_seed=3,
    )
    h = sample_channel_set(4, 6, [SeedSpec(3, 2 * i) for i in range(t)]).users.copy()
    h[sorted(bad), 2:] = 0.0  # two nonzero users left, one fewer than K_s
    targets = SinrTargets(cfg.gamma_linear, cfg.sigma_sq)
    series = [("EXHAUSTIVE", meth) for meth in cfg.methods()]
    for _, meth in series:
        with pytest.raises(InfeasibleGeometryError):
            select_exhaustive(ChannelSet(h), 3, targets, meth)
    totals = _totals(cfg, targets, series, ChannelSet(h))
    solvers = {"exact": exact_min_power, "approx": approx_min_power}
    for key in series:
        assert np.isnan(totals[key]).tolist() == [i in bad for i in range(t)]
        for i in set(range(t)) - bad:
            order = list(select_exhaustive(ChannelSet(h[i]), 3, targets, key[1]).encoding_order)
            assert totals[key][i] == solvers[key[1]](h[i][order], targets).total_power


def test_an_infeasible_cell_reprices_the_rows_alone(monkeypatch):
    # the piece's one approx call raises on the bad trial's NUS pick, so it
    # prices each of its rows alone, and the DP searches once
    t, bad = 64, 37
    cfg = experiment.ExperimentConfig(
        M=4, K=6, K_s=2, gamma_db=10.0, sigma_sq=0.1,
        algorithms=("NUS", "SUS", "AUS", "RUS", "EXHAUSTIVE"), trials=t, master_seed=5,
    )
    h = sample_channel_set(4, 6, [SeedSpec(5, 2 * i) for i in range(t)]).users.copy()
    _copy_strongest_user(h, [bad])
    calls, searches = [], []
    search = experiment._best_approx_orders
    monkeypatch.setattr(experiment, "approx_min_power", lambda rows, targets:
                        calls.append(len(rows)) or approx_min_power(rows, targets))
    monkeypatch.setattr(experiment, "_best_approx_orders",
                        lambda *args: searches.append(1) or search(*args))
    targets = SinrTargets(cfg.gamma_linear, cfg.sigma_sq)
    series = [(alg, "approx") for alg in cfg.algorithms]
    rus = [SeedSpec(5, 2 * i + 1) for i in range(t)]
    totals = _totals(cfg, targets, series, ChannelSet(h), rus)
    assert np.isnan(totals[("NUS", "approx")]).tolist() == [i == bad for i in range(t)]
    for key in series:
        assert not np.isnan(np.delete(totals[key], bad)).any()
    assert calls == [len(series) * t] + [1] * (len(series) * t) and len(searches) == 1


def test_an_overflowed_total_is_infinite_not_infeasible():
    # the first user's unit-noise power overflows and the recursion turns
    # NaN; run_point must reject that total, not count it as infeasible
    cfg = experiment.ExperimentConfig(
        M=4, K=6, K_s=2, gamma_db=10.0, sigma_sq=0.1, algorithms=("NUS",),
        power_method="exact", trials=3, master_seed=2,
    )
    h = sample_channel_set(4, 6, [SeedSpec(2, 2 * i) for i in range(3)]).users
    block = ChannelSet(0.01 * h)
    targets = SinrTargets(1e307, 0.1)
    series = [("NUS", "exact")]
    order = select_nus(block, 2).encoding_order[..., None]
    with np.errstate(over="ignore", invalid="ignore"):
        rows = np.take_along_axis(block.users, order, axis=1)
        assert np.isnan(exact_min_power(rows, targets).total_power).all()
        totals = _totals(cfg, targets, series, block)
    assert np.isposinf(totals[("NUS", "exact")]).all()


@pytest.mark.parametrize("t", (1, 3, 7))
def test_stacked_pricing_equals_each_series_alone(t):
    cfg = experiment.ExperimentConfig(
        M=4, K=6, K_s=3, gamma_db=10.0, sigma_sq=0.1,
        algorithms=("NUS", "SUS", "AUS", "RUS", "EXHAUSTIVE"),
        power_method="both", trials=t, master_seed=11,
    )
    block = sample_channel_set(4, 6, [SeedSpec(11, 2 * i) for i in range(t)])
    targets = SinrTargets(cfg.gamma_linear, cfg.sigma_sq)
    series = [(alg, meth) for alg in cfg.algorithms for meth in cfg.methods()]
    rus = [SeedSpec(11, 2 * i + 1) for i in range(t)]
    totals = _totals(cfg, targets, series, block, rus)
    solvers = {"exact": exact_min_power, "approx": approx_min_power}
    rules = {"NUS": select_nus, "SUS": select_sus, "AUS": select_aus,
             "RUS": lambda c, k_s: select_rus(c, k_s, rus)}
    for alg, meth in series:
        if alg == "EXHAUSTIVE":
            order = select_exhaustive(block, cfg.K_s, targets, meth).encoding_order
        else:
            order = rules[alg](block, cfg.K_s).encoding_order
        rows = np.take_along_axis(block.users, order[..., None], axis=1)
        want = solvers[meth](rows, targets).total_power
        assert totals[(alg, meth)].tobytes() == want.tobytes()
