"""Selection rule tests: hand instances, invariants, exhaustive benchmark."""

import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sinrmin import channel
from sinrmin.channel import ChannelSet, SeedSpec, sample_channel_set
from sinrmin.errors import (
    BudgetError,
    ConfigError,
    DimensionError,
    DomainError,
    InfeasibleGeometryError,
)
from sinrmin import selection
from sinrmin.power import SinrTargets, approx_min_power, exact_min_power
from sinrmin.selection import (
    SelectionResult,
    select_aus,
    select_exhaustive,
    select_nus,
    select_rus,
    select_sus,
)

T10 = SinrTargets(10.0, 1.0)


def _cs(rows) -> ChannelSet:
    return ChannelSet(np.array(rows, dtype=complex))


def test_result_validation():
    with pytest.raises(ConfigError):
        SelectionResult("BOGUS", (0, 1), (1, 0))
    with pytest.raises(ConfigError):
        SelectionResult("NUS", (0, 0), (0, 0))
    with pytest.raises(ConfigError):
        SelectionResult("NUS", (0, 1), (1, 2))


def test_k_s_range_enforced():
    c = sample_channel_set(2, 5, SeedSpec(1, 0))
    with pytest.raises(ConfigError):
        select_nus(c, 3)  # K_s > M
    with pytest.raises(ConfigError):
        select_nus(c, 0)
    c2 = sample_channel_set(8, 3, SeedSpec(1, 1))
    with pytest.raises(ConfigError):
        select_sus(c2, 4)  # K_s > K


@pytest.mark.parametrize("channels", [None, "x", np.eye(3, dtype=complex), [[1, 0], [0, 1]]],
                         ids=["none", "str", "array", "list"])
@pytest.mark.parametrize("rule", [
    lambda c: select_nus(c, 2),
    lambda c: select_sus(c, 2),
    lambda c: select_aus(c, 2),
    lambda c: select_rus(c, 2, SeedSpec(0)),
    lambda c: select_exhaustive(c, 2, T10),
], ids=["nus", "sus", "aus", "rus", "exhaustive"])
def test_rules_reject_non_channel_input(rule, channels):
    # they raised AttributeError on the missing .M before the check
    with pytest.raises(ConfigError, match="^need a ChannelSet, got "):
        rule(channels)


_EYE = ChannelSet(np.eye(4, dtype=complex))


@pytest.mark.parametrize("call, args, error", [
    (sample_channel_set, (4, 3, 7), ConfigError),
    (sample_channel_set, (4, 3, [1]), ConfigError),
    (sample_channel_set, (4, 3, "ab"), ConfigError),
    (sample_channel_set, (4.5, 3, SeedSpec(1)), DimensionError),
    (sample_channel_set, (4, 3.0, SeedSpec(1)), DimensionError),
    (select_rus, (_EYE, 2, 5), ConfigError),
    (select_rus, (_EYE, 2, [5]), ConfigError),
    (select_rus, (_EYE, 2, [SeedSpec(1), None]), ConfigError),
    (select_rus, (_EYE, 2.0, SeedSpec(1)), ConfigError),
    (select_nus, (_EYE, 2.0), ConfigError),
    (select_sus, (_EYE, "2"), ConfigError),
    (select_aus, (_EYE, None), ConfigError),
    (select_exhaustive, (_EYE, 2.5, T10), ConfigError),
    (select_exhaustive, (_EYE, True, T10, "exact"), ConfigError),
    (select_nus, (_EYE, True), ConfigError),
    (select_exhaustive, (_EYE, 2, 10.0), ConfigError),
    (select_exhaustive, (_EYE, 2, T10, "exact", "x"), ConfigError),
    (select_exhaustive, (_EYE, 2, T10, "exact", 10.5), ConfigError),
    (select_exhaustive, (_EYE, 2, T10, "exact", True), ConfigError),
    (select_exhaustive, (_EYE, 2, T10, "approx", 0), ConfigError),
])
def test_bad_arguments_raise_package_errors(call, args, error):
    with pytest.raises(error):
        call(*args)


# ---------------------------------------------------------------------------
# NUS


def test_nus_hand_instance():
    r = select_nus(_cs([[1, 0], [3, 0], [2, 0]]), 2)
    assert r.selection_order == (1, 2)
    assert r.encoding_order == (2, 1)
    assert r.algorithm_tag == "NUS"


def test_nus_full_set_sorts_ascending():
    c = sample_channel_set(6, 6, SeedSpec(2, 0))
    norms = np.einsum("ij,ij->i", c.users.conj(), c.users).real
    r = select_nus(c, 6)
    assert list(r.encoding_order) == sorted(range(6), key=lambda i: norms[i])


def test_nus_tie_prefers_lower_index():
    r = select_nus(_cs([[1, 1], [1, 1], [2, 0]]), 2)
    assert r.selection_order == (2, 0)
    assert r.encoding_order == (0, 2)


# ---------------------------------------------------------------------------
# SUS


def test_sus_hand_instance():
    r = select_sus(_cs([[2, 0], [0, 1], [1.5, 1.5]]), 2)
    assert r.selection_order == (2, 0)
    assert r.encoding_order == (2, 0)  # encoding = pick order


def test_sus_first_pick_matches_nus():
    for trial in range(10):
        c = sample_channel_set(4, 8, SeedSpec(3, trial))
        assert select_sus(c, 3).selection_order[0] == select_nus(c, 1).selection_order[0]


def test_sus_orthogonal_set_reduces_to_nus_selection():
    c = _cs([[2, 0, 0], [0, 3, 0], [0, 0, 1]])
    r = select_sus(c, 2)
    assert set(r.selection_order) == set(select_nus(c, 2).selection_order)


def test_sus_single_pick_equals_nus():
    c = sample_channel_set(4, 9, SeedSpec(4, 0))
    assert select_sus(c, 1).encoding_order == select_nus(c, 1).encoding_order


def test_sus_rejects_overflowing_channel():
    # the first two users' squared norms overflow to inf, on which SUS
    # picked the weakest user first; such a set is refused
    with pytest.raises(DomainError):
        select_sus(ChannelSet([[1e200, 0, 0], [1e200, 1e200, 0], [0, 1, 0]]), 2)


# ---------------------------------------------------------------------------
# AUS


def test_aus_hand_instance():
    r = select_aus(_cs([[3, 0], [1, 1], [0, 0.1]]), 2)
    assert r.selection_order == (0, 2)
    assert r.encoding_order == (2, 0)  # ascending norm


def test_aus_collinear_degenerate_still_selects():
    r = select_aus(_cs([[3, 0], [1, 0], [2, 0]]), 2)
    assert r.selection_order == (0, 1)
    with pytest.raises(InfeasibleGeometryError):
        approx_min_power(
            _cs([[3, 0], [1, 0], [2, 0]]).users[list(r.encoding_order)], T10
        )
    # every user collinear: both greedy rules still pick, lowest index first
    c = _cs([[3, 0, 0], [1, 0, 0], [2, 0, 0]])
    for rule in (select_sus, select_aus):
        r = rule(c, 3)
        assert r.selection_order == (0, 1, 2)
        with pytest.raises(InfeasibleGeometryError):
            approx_min_power(c.users[list(r.encoding_order)], T10)
    # a zero-norm user scores 0 against the span, not 0/0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert select_aus(_cs([[1, 0], [0, 0], [0, 1]]), 2).selection_order == (0, 2)


def test_aus_ignores_strength_after_first():
    # a tiny near-orthogonal user beats a strong nearly-aligned one
    c = _cs([[10, 0, 0], [9, 1, 0], [0, 0, 0.01]])
    assert select_aus(c, 2).selection_order == (0, 2)


def test_aus_single_pick_equals_nus():
    c = sample_channel_set(4, 9, SeedSpec(4, 1))
    assert select_aus(c, 1).encoding_order == select_nus(c, 1).encoding_order


@pytest.mark.parametrize("k_s", [1, 2, 3, 4])
def test_sus_and_aus_share_their_first_pick_and_step(monkeypatch, k_s):
    # one greedy call gives both rules' picks: the first pick and its
    # complement step are taken once, so at K_s = 2 AUS takes no step of its own
    c = sample_channel_set(4, 7, [SeedSpec(3, 2 * t) for t in range(5)])
    steps, step = [], selection._complement_step
    monkeypatch.setattr(selection, "_complement_step",
                        lambda *args: steps.append(1) or step(*args))
    found = selection._rule_orders({"SUS", "AUS"}, c.users, c._norms, k_s, np.full(5, 7))
    assert len(steps) == max(0, 2 * k_s - 3)
    for rule, select in (("SUS", select_sus), ("AUS", select_aus)):
        steps.clear()
        want = select(c, k_s)
        assert len(steps) == k_s - 1
        assert np.array_equal(found[rule][0], want.selection_order)
        assert np.array_equal(found[rule][1], want.encoding_order)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5), st.integers(1, 8), st.integers(1, 6), st.integers(0, 2**32 - 1),
    st.sampled_from(["", "dependent", "zero"]), st.data(),
)
def test_rule_orders_over_row_prefixes_equal_each_row_alone(m, k, t, seed, craft, data):
    # a row that holds only its first K' users gets what those users alone
    # give, under every rule, beside rows of other K' in one call
    k_s = data.draw(st.integers(1, min(m, k)), label="k_s")
    live = np.array(data.draw(st.lists(st.integers(k_s, k), min_size=t, max_size=t)))
    h = sample_channel_set(m, k, [SeedSpec(seed, 2 * i) for i in range(t)]).users.copy()
    if craft == "dependent" and k > 1:  # user 1 a multiple of user 0: the floor's tie
        h[:, 1] = (1.5 - 0.5j) * h[:, 0]
    if craft == "zero":
        h[0, min(1, k - 1)] = 0.0
    specs = [SeedSpec(seed, 2 * i + 1) for i in range(t)]
    block = ChannelSet(h)
    found = selection._rule_orders({"NUS", "SUS", "AUS", "RUS"}, block.users, block._norms,
                                   k_s, live, specs)
    for i, k_i in enumerate(live):
        one = ChannelSet(h[i, :k_i])
        want = {"NUS": select_nus(one, k_s), "SUS": select_sus(one, k_s),
                "AUS": select_aus(one, k_s), "RUS": select_rus(one, k_s, specs[i])}
        for rule, (picked, encoded) in found.items():
            assert tuple(picked[i].tolist()) == want[rule].selection_order, rule
            assert tuple(encoded[i].tolist()) == want[rule].encoding_order, rule


# ---------------------------------------------------------------------------
# RUS


def test_rus_channel_independent():
    a = select_rus(sample_channel_set(4, 10, SeedSpec(5, 0)), 2, SeedSpec(99, 7))
    b = select_rus(sample_channel_set(4, 10, SeedSpec(6, 0)), 2, SeedSpec(99, 7))
    assert a.selection_order == b.selection_order


def test_rus_full_set():
    c = sample_channel_set(4, 4, SeedSpec(5, 1))
    r = select_rus(c, 4, SeedSpec(0, 0))
    assert sorted(r.selection_order) == [0, 1, 2, 3]


def test_rus_encoding_is_draw_order():
    c = sample_channel_set(4, 10, SeedSpec(5, 2))
    r = select_rus(c, 3, SeedSpec(11, 0))
    assert r.encoding_order == r.selection_order


def test_rus_pair_frequencies_uniform():
    # 20k draws over C(10,2)=45 pairs; binomial 3-sigma acceptance per pair
    k, k_s, draws = 10, 2, 20_000
    c = sample_channel_set(4, k, SeedSpec(5, 3))
    counts = {}
    for t in range(draws):
        r = select_rus(c, k_s, SeedSpec(2024, t))
        key = tuple(sorted(r.selection_order))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 45
    p = 1.0 / 45.0
    bound = 3.0 * np.sqrt(draws * p * (1 - p))
    for pair, n in counts.items():
        assert abs(n - draws * p) <= bound, (pair, n)


def _rejects(spec, k, k_s) -> bool:
    """Whether ``choice(k, k_s, replace=False)`` on spec's stream takes more
    words than its 2 k_s - 1 draws (one fewer at k_s = K), as it does when
    a Lemire draw rejects a word."""
    n = 2 * k_s - 1 - (k == k_s)
    used = spec.generator().bit_generator
    np.random.Generator(used).choice(k, size=k_s, replace=False)
    plain = spec.generator().bit_generator
    plain.random_raw(-(-n // 2))
    return (used.state["state"], used.state["has_uint32"]) != (plain.state["state"], n % 2)


def _assert_picks_equal_choice(specs, k, k_s):
    """select_rus on a block of ``specs`` picks what each spec's generator
    chooses; returns the specs on whose streams select_rus called choice."""
    block = ChannelSet(np.zeros((len(specs), k, k_s), dtype=complex))
    with mock.patch.object(selection, "_streams", side_effect=channel._streams) as chosen, \
            mock.patch.object(SeedSpec, "generator", autospec=True,
                              side_effect=SeedSpec.generator) as built:
        picked = select_rus(block, k_s, specs).selection_order
    # every stream is positioned by channel._streams, which builds a
    # generator of its own only on a NumPy that seeds otherwise
    assert not built.called or not channel._RESTATED_SEEDING
    for row, spec in zip(picked, specs, strict=True):
        assert np.array_equal(row, spec.generator().choice(k, size=k_s, replace=False))
    (call,) = chosen.call_args_list
    return list(call.args[0])


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.lists(st.integers(0, 2**70) | st.sampled_from([2**32, 2**64 - 1, 2**64]),
             min_size=1, max_size=15),
    st.integers(1, 30) | st.sampled_from([10_000, 10_001, 20_000]),
    st.data(),
)
def test_rus_picks_equal_generator_choice(master, indices, k, data):
    k_s = data.draw(st.integers(1, min(k, 6)), label="k_s")
    specs = [SeedSpec(master, i) for i in indices]
    built = _assert_picks_equal_choice(specs, k, k_s)
    # K beyond Floyd's range builds every generator; any other K only those
    # whose Lemire draw rejects a word
    if k > 10_000:
        assert built == specs
    else:
        assert built == [s for s in specs if _rejects(s, k, k_s)]


def test_rus_rejected_lemire_draw_calls_choice():
    # found by searching the indices of this master seed: the third Floyd
    # draw, in [0, 8837], rejects the word of stream 70387
    specs = [SeedSpec(20261018, i) for i in range(70385, 70390)]
    assert [_rejects(s, 8839, 4) for s in specs] == [False, False, True, False, False]
    assert _assert_picks_equal_choice(specs, 8839, 4) == [specs[2]]


def test_rus_without_restated_seeding_calls_choice(monkeypatch):
    monkeypatch.setattr(channel, "_RESTATED_SEEDING", False)
    # the restated seeding would now be wrong; no stream may take it
    monkeypatch.setattr(channel, "_PCG_MULT", channel._PCG_MULT + 2)
    # the words come from each spec's own generator, and choice runs only
    # where a Lemire draw rejects one
    specs = [SeedSpec(9, i) for i in range(10)]
    assert not any(_rejects(s, 12, 3) for s in specs)
    assert _assert_picks_equal_choice(specs, 12, 3) == []
    specs = [SeedSpec(20261018, i) for i in range(70385, 70390)]
    assert _assert_picks_equal_choice(specs, 8839, 4) == [specs[2]]


# ---------------------------------------------------------------------------
# exhaustive


def test_exhaustive_single_pick_is_max_norm():
    c = sample_channel_set(4, 7, SeedSpec(6, 0))
    best = select_nus(c, 1).encoding_order
    assert select_exhaustive(c, 1, T10, "approx").encoding_order == best
    assert select_exhaustive(c, 1, T10, "exact").encoding_order == best


def test_exhaustive_orthogonal_pair_tie_break():
    c = _cs([[2, 0, 0], [0, 2, 0], [1.4, 1.4, 0]])
    r = select_exhaustive(c, 2, T10)
    assert r.encoding_order == (0, 1)
    assert r.algorithm_tag == "EXHAUSTIVE"


def test_exhaustive_beats_every_rule_per_instance():
    for trial in range(15):
        c = sample_channel_set(4, 6, SeedSpec(7, trial))
        ex = select_exhaustive(c, 3, T10)
        floor = approx_min_power(c.users[list(ex.encoding_order)], T10).total_power
        rules = [
            select_nus(c, 3),
            select_sus(c, 3),
            select_aus(c, 3),
            select_rus(c, 3, SeedSpec(8, trial)),
        ]
        for sel in rules:
            tot = approx_min_power(c.users[list(sel.encoding_order)], T10).total_power
            assert floor <= tot * (1 + 1e-9)


def test_exhaustive_batch_matches_ordering_loop():
    for trial in range(6):
        c = sample_channel_set(3, 5, SeedSpec(9, trial))
        got = select_exhaustive(c, 3, T10)
        _, want = min(
            (approx_min_power(c.users[list(o)], T10).total_power, o)
            for o in itertools.permutations(range(5), 3)
        )
        assert got.encoding_order == want


def test_exhaustive_exact_power_route():
    c = sample_channel_set(3, 4, SeedSpec(10, 0))
    got = select_exhaustive(c, 2, T10, "exact")
    _, want = min(
        (exact_min_power(c.users[list(o)], T10).total_power, o)
        for o in itertools.permutations(range(4), 2)
    )
    assert got.encoding_order == want


def test_exhaustive_skips_infeasible_orderings():
    # the two aligned users can never be ordered together
    c = _cs([[1, 0], [2, 0], [0, 0.5]])
    r = select_exhaustive(c, 2, T10)
    assert set(r.encoding_order) != {0, 1}


def test_exhaustive_budget_and_validation():
    c = sample_channel_set(4, 12, SeedSpec(11, 0))
    with pytest.raises(BudgetError):
        select_exhaustive(c, 4, T10, budget=1000)
    with pytest.raises(ConfigError):
        select_exhaustive(c, 2, T10, power_fn="fastest")


def _brute_force_approx(h, k_s, targets):
    """Cheapest approx ordering, one solver call per ordering.

    Infeasible orderings are skipped; a strict comparison over the
    lexicographic enumeration keeps the first of tied minima.
    """
    best, order = math.inf, None
    for cand in itertools.permutations(range(len(h)), k_s):
        try:
            total = approx_min_power(h[list(cand)], targets).total_power
        except InfeasibleGeometryError:
            continue
        if total < best:
            best, order = total, cand
    return best, order


def _brute_force_exact(h, k_s, targets):
    """Cheapest exact ordering, one solver call per ordering.

    Orderings holding a zero-norm user raise and are skipped; a strict
    comparison over the lexicographic enumeration keeps the first of
    tied minima.
    """
    best, order = math.inf, None
    for cand in itertools.permutations(range(len(h)), k_s):
        try:
            total = exact_min_power(h[list(cand)], targets).total_power
        except DomainError:
            continue
        if total < best:
            best, order = total, cand
    return best, order


def _make_last_near_dependent(h, seed, a, b, eps):
    # last user: a combination of the first two plus eps noise
    noise = sample_channel_set(h.shape[1], 1, SeedSpec(seed, 1)).users[0]
    h[-1] = a * h[0] + 1j * b * h[1] + eps * noise


def _tie_tolerance(h, k_s, *orders):
    # rounding moves an order's rows H by about M K_s eps ||H||. Its weakest
    # residual, about the smallest singular value, moves by that times ||H||
    # over the second smallest, as the span it is measured against tilts; its
    # power over r^2 moves twice as much relative. The bound covers 17 times
    # the largest difference seen between the DP's order and the brute
    # force's over 11,000 draws of these instances
    def bound(order):
        s = np.linalg.svd(h[list(order)], compute_uv=False)
        return h.shape[1] * k_s * np.finfo(float).eps * s[0] ** 2 / (s[-1] * s[max(len(s) - 2, 0)])

    return max(bound(o) for o in orders)


def _rounding_tie():
    # M = K = K_s = 5 with the last user 1e-9 off a span: the DP's order costs
    # 1.04e-5 more than the brute force's under approx_min_power, but mpmath
    # at 60 digits puts the two orders' costs 5e-17 apart
    h = sample_channel_set(5, 5, SeedSpec(2621022905)).users.copy()
    _make_last_near_dependent(h, 2621022905, 0.27543895292588383, -1.483590411221551, 1e-9)
    return ChannelSet(h), 5, SinrTargets(np.array([1.0, 1.0, 9.0, 8.0, 1.0]), 0.1), True


@st.composite
def _exhaustive_instances(draw):
    m = draw(st.integers(2, 5))
    k = draw(st.integers(1, 7))
    k_s = draw(st.one_of(st.just(min(m, k)), st.integers(1, min(m, k))))
    seed = draw(st.integers(0, 2**32 - 1))
    h = sample_channel_set(m, k, SeedSpec(seed)).users.copy()
    eps = draw(st.sampled_from([0.0, 1e-3, 1e-6, 1e-9])) if k >= 3 else 0.0
    if eps:
        _make_last_near_dependent(h, seed, *draw(st.tuples(st.floats(-2, 2), st.floats(-2, 2))), eps)
    per_position = st.lists(st.floats(0.5, 100.0), min_size=k_s, max_size=k_s)
    gamma = draw(st.one_of(st.floats(0.5, 100.0), per_position.map(np.array)))
    sigma_sq = draw(st.sampled_from([0.1, 1.0]))
    return ChannelSet(h), k_s, SinrTargets(gamma, sigma_sq), eps > 0


@settings(max_examples=80, deadline=None)
@given(_exhaustive_instances())
@example(_rounding_tie())
def test_exhaustive_dp_equals_brute_force(instance):
    c, k_s, targets, near_dependent = instance
    best, want = _brute_force_approx(c.users, k_s, targets)
    if want is None:
        with pytest.raises(InfeasibleGeometryError):
            select_exhaustive(c, k_s, targets)
        return
    got = select_exhaustive(c, k_s, targets).encoding_order
    if near_dependent:
        # orderings within the rounding of the weakest residual are ties
        got_total = approx_min_power(c.users[list(got)], targets).total_power
        assert got_total <= best * (1 + _tie_tolerance(c.users, k_s, got, want))
    else:
        assert got == want


@settings(max_examples=50, deadline=None)
@given(_exhaustive_instances())
def test_exhaustive_branch_and_bound_equals_brute_force(instance):
    c, k_s, targets, near_dependent = instance
    best, want = _brute_force_exact(c.users, k_s, targets)
    got = select_exhaustive(c, k_s, targets, "exact").encoding_order
    if near_dependent:
        # the search's batched steps round the gains of near-dependent users
        # differently from the per-ordering solver, so orderings within the
        # rounding of the weakest residual are ties
        got_total = exact_min_power(c.users[list(got)], targets).total_power
        assert got_total <= best * (1 + _tie_tolerance(c.users, k_s, got, want))
    else:
        assert got == want


def test_exhaustive_exact_skips_zero_norm_users():
    c = _cs([[1, 0, 0], [0, 0, 0], [0, 2, 0], [1, 1, 1]])
    got = select_exhaustive(c, 2, T10, "exact").encoding_order
    assert 1 not in got
    assert got == _brute_force_exact(c.users, 2, T10)[1]
    with pytest.raises(InfeasibleGeometryError):
        select_exhaustive(_cs([[0, 0], [1, 0], [0, 0]]), 2, T10, "exact")


def test_exhaustive_exact_tie_keeps_first_order(monkeypatch):
    # every ordering of orthonormal users costs the same
    eye = _cs(np.eye(4)[:3])
    # a copy of a user in the best order ties every ordering it is in
    h = sample_channel_set(4, 6, SeedSpec(16, 2)).users.copy()
    best = _brute_force_exact(h, 3, T10)[1]
    h[5] = h[min(best)]
    assert 5 not in best and _brute_force_exact(h, 3, T10)[1] == best
    # with one prefix a chunk, tied leaves are priced in different chunks
    for chunk in (selection._CHUNK_BYTES, 1):
        monkeypatch.setattr(selection, "_CHUNK_BYTES", chunk)
        assert select_exhaustive(eye, 3, T10, "exact").encoding_order == (0, 1, 2)
        assert select_exhaustive(ChannelSet(h), 3, T10, "exact").encoding_order == best


def test_exhaustive_exact_orders_do_not_depend_on_chunks(monkeypatch):
    h = sample_channel_set(4, 7, [SeedSpec(20, t) for t in range(30)]).users.copy()
    h[::3, 5] = h[::3, 0]  # copies of users tie orderings
    h[1::3, 6] = h[1::3, 2]
    for targets in (T10, SinrTargets(np.array([3.0, 0.5, 8.0]), 0.1)):
        orders = select_exhaustive(ChannelSet(h), 3, targets, "exact").encoding_order
        monkeypatch.setattr(selection, "_CHUNK_BYTES", 1)
        chunked = select_exhaustive(ChannelSet(h), 3, targets, "exact").encoding_order
        monkeypatch.undo()
        assert np.array_equal(chunked, orders)


@pytest.mark.parametrize("chunk", [selection._CHUNK_BYTES, 1])
def test_exhaustive_exact_block_equals_its_rows(monkeypatch, chunk):
    h = sample_channel_set(4, 7, [SeedSpec(21, t) for t in range(40)]).users.copy()
    h[::3, 5] = h[::3, 0]  # copies of users tie orderings
    h[1::3, 6] = h[1::3, 2]
    h[2::5, 4] = h[2::5, 1]
    h[7, 3] = 0.0  # a zero-norm user in one trial only
    for targets in (T10, SinrTargets(np.array([3.0, 0.5, 8.0]), 0.1)):
        # each row alone, with its leaves in one chunk
        rows = [select_exhaustive(ChannelSet(h_t), 3, targets, "exact").encoding_order
                for h_t in h]
        monkeypatch.setattr(selection, "_CHUNK_BYTES", chunk)
        block = select_exhaustive(ChannelSet(h), 3, targets, "exact").encoding_order
        monkeypatch.undo()
        assert 3 not in rows[7]
        assert [tuple(o) for o in block.tolist()] == rows


def test_exhaustive_exact_does_not_enumerate(monkeypatch):
    # a priced pair is one (prefix, user) gain, a squared norm of the prefix's
    # coordinates; a stepped child takes `_uplink_step`, whose p * d is the
    # target of the position it was stepped at
    priced, stepped = [], []
    norms, step = selection._squared_norms, selection._uplink_step

    def counted_norms(rows):
        out = norms(rows)
        priced.append(out.size)
        return out

    def counted_step(c, x, d, p):
        stepped.append(p * d)
        return step(c, x, d, p)

    monkeypatch.setattr(selection, "_squared_norms", counted_norms)
    monkeypatch.setattr(selection, "_uplink_step", counted_step)
    targets = SinrTargets(np.array([10.0, 10.5, 11.0]), 1.0)
    for seed in range(3):
        priced.clear()
        stepped.clear()
        c = sample_channel_set(4, 8, SeedSpec(16, seed))
        got = select_exhaustive(c, 3, targets, "exact").encoding_order
        assert got == _brute_force_exact(c.users, 3, targets)[1]
        # the live check reads the set's kept norms, so the first count is
        # the dive's root pricing its 8 users
        assert priced[0] == 8 and sum(priced) <= 320  # every ordering prices 520
        # only children at the first two positions: a leaf is never stepped
        stepped_at = np.concatenate(stepped)
        assert np.isin(np.round(stepped_at, 6), [10.0, 10.5]).all()
        assert stepped_at.size <= 40  # every first- and second-position child makes 64


def test_set_tables_structure():
    # every set reached from the set less each member, and every S+u
    for k in range(1, 10):
        for k_s in range(1, k + 1):
            members, nexts, drops, elems = selection._set_tables(k, k_s)
            sets = [[frozenset(np.flatnonzero(row).tolist()) for row in m] for m in members]
            for j, level in enumerate(sets):
                assert all(len(s) == j for s in level) and len(set(level)) == len(level)
                assert len(level) == math.comb(k, j)
            for j in range(k_s - 1):
                for i, s in enumerate(sets[j]):
                    for u in range(k):
                        t = nexts[j][i, u]
                        assert t == 0 if u in s else sets[j + 1][t] == s | {u}, (k, k_s, j, s, u)
                assert drops[j].shape == elems[j].shape == (len(sets[j + 1]), j + 1)
                for t, (drop, elem) in enumerate(zip(drops[j], elems[j])):
                    assert elem.tolist() == sorted(sets[j + 1][t])
                    assert all(sets[j][d] | {u} == sets[j + 1][t] for d, u in zip(drop, elem))
                    assert all(u not in sets[j][d] for d, u in zip(drop, elem))
            for a in members + nexts + drops + elems:
                assert not a.flags.writeable
            # colex order: for every K' <= K the j-sets inside range(K') come
            # first, and the tables' prefixes stay inside them
            for k_p in range(k + 1):
                size = [math.comb(k_p, j) for j in range(k_s + 1)]
                for j, level in enumerate(sets):
                    assert level[: size[j]] == [s for s in level if s <= set(range(k_p))]
                for j in range(k_s - 1):
                    free = ~members[j][: size[j], :k_p]  # S+u for u outside S
                    assert (nexts[j][: size[j], :k_p][free] < size[j + 1]).all(), (k, k_s, j, k_p)
                    assert (drops[j][: size[j + 1]] < size[j]).all()
                    assert (elems[j][: size[j + 1]] < k_p).all()


@pytest.mark.parametrize("trials_a_chunk", [None, 1, 3])
@pytest.mark.parametrize("k_s", [1, 2, 4])
def test_exhaustive_dp_block_equals_its_rows(monkeypatch, k_s, trials_a_chunk):
    h = sample_channel_set(4, 7, [SeedSpec(22, t) for t in range(40)]).users.copy()
    h[::3, 5] = h[::3, 0]  # copies of users tie orderings
    h[1::3, 6] = 1j * h[1::3, 2]  # a phase-rotated copy
    h[2::5, 4] = h[2::5, 1]
    h[7, 3] = 0.0  # a zero-norm user in one trial only
    chunk = selection._CHUNK_BYTES if trials_a_chunk is None else (
        trials_a_chunk * selection._dp_trial_bytes(7, 4, k_s))
    bad = h.copy()  # no feasible ordering: a trial of zero users but one (none at K_s = 1),
    bad[9] = 0.0  # whose sets with that user leave no residual to bound the last step by
    bad[9, 2] = h[9, 2] if k_s > 1 else 0.0
    for targets in (T10, SinrTargets(np.array([3.0, 0.5, 8.0, 2.0])[:k_s], 0.1)):
        rows = [select_exhaustive(ChannelSet(h_t), k_s, targets).encoding_order for h_t in h]
        with pytest.raises(InfeasibleGeometryError):
            select_exhaustive(ChannelSet(bad[9]), k_s, targets)
        monkeypatch.setattr(selection, "_CHUNK_BYTES", chunk)
        block = select_exhaustive(ChannelSet(h), k_s, targets).encoding_order
        with pytest.raises(InfeasibleGeometryError):
            select_exhaustive(ChannelSet(bad), k_s, targets)
        monkeypatch.undo()
        assert 3 not in rows[7]
        assert [tuple(o) for o in block.tolist()] == rows


def test_exhaustive_dp_orders_do_not_depend_on_sub_chunks(monkeypatch):
    # a cap of one last-level row's bytes steps the kept sets one row at a
    # time, one trial a chunk. Orthonormal users tie every ordering, so
    # pruning keeps all C(6, 3) last-level sets, and the first order wins
    eye = np.eye(6, dtype=complex)
    h = sample_channel_set(6, 6, [SeedSpec(23, t) for t in range(12)]).users.copy()
    h[3], h[8] = eye, 1j * eye[::-1]
    h[5, 4] = h[5, 1]  # a copy of a user ties orderings
    rows, step = [], selection._complement_step

    def recording(coords, x, x_sq):
        rows.append(coords.shape[:-2])
        return step(coords, x, x_sq)

    for targets in (T10, SinrTargets(np.array([3.0, 0.5, 8.0, 2.0]), 0.1)):
        orders = select_exhaustive(ChannelSet(h), 4, targets).encoding_order
        monkeypatch.setattr(selection, "_CHUNK_BYTES", selection._complex_bytes(6, 4))
        monkeypatch.setattr(selection, "_complement_step", recording)
        assert np.array_equal(select_exhaustive(ChannelSet(h), 4, targets).encoding_order, orders)
        rows.clear()
        assert select_exhaustive(ChannelSet(eye), 4, targets).encoding_order == (0, 1, 2, 3)
        monkeypatch.undo()
        # the dive's step and one per last-level set, each of one row
        assert rows.count((1,)) == 1 + math.comb(6, 3)
        assert tuple(orders[3]) == (0, 1, 2, 3) and tuple(orders[8]) == (0, 1, 2, 3)


@pytest.mark.parametrize("k_s", [1, 2, 4])
def test_exhaustive_dp_serves_every_k_prefix(monkeypatch, k_s):
    # one DP over K = 7 users answers for the first K' users as a DP over
    # those alone would, copies that tie orderings and infeasible K' included
    h = sample_channel_set(4, 7, [SeedSpec(24, t) for t in range(30)]).users.copy()
    h[::3, 5] = h[::3, 0]
    h[1::3, 4] = 1j * h[1::3, 2]
    h[2, 1] = h[2, 0]  # infeasible at K' = K_s = 2 only
    h[4, :3] = 0.0  # three zero users: nothing is feasible before K' = K_s + 3
    ks = range(k_s, 8)
    for targets in (T10, SinrTargets(np.array([3.0, 0.5, 8.0, 2.0])[:k_s], 0.1)):
        for trials_a_chunk in (None, 4):
            if trials_a_chunk:
                monkeypatch.setattr(selection, "_CHUNK_BYTES",
                                    trials_a_chunk * selection._dp_trial_bytes(7, 4, k_s))
            c = ChannelSet(h)
            shared = selection._best_approx_orders(c.users, c._norms, k_s, targets, ks)
            monkeypatch.undo()
            for k, got in zip(ks, shared):
                try:
                    want = select_exhaustive(ChannelSet(h[:, :k]), k_s, targets).encoding_order
                except InfeasibleGeometryError:
                    want = None
                assert (got < 0).any() == (want is None), k
                assert want is None or np.array_equal(got, want), k
    assert any((o < 0).any() for o in shared) and (shared[-1] >= 0).all()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 6), st.integers(1, 5), st.integers(0, 2**32 - 1),
       st.booleans(), st.data())
def test_searches_mark_exactly_the_trials_that_raise_alone(m, k, t, seed, chunked, data):
    # a block's row of -1 is exactly a trial whose search alone raises, and
    # every other row is that search's order: the DP at every K' of the
    # block, and the exact search, over trials with dependent copies of a
    # user and zero users, in one chunk or a trial (a prefix) a chunk
    k_s = data.draw(st.integers(1, min(m, k)), label="k_s")
    h = sample_channel_set(m, k, [SeedSpec(seed, i) for i in range(t)]).users.copy()
    for i in range(t):
        copies = data.draw(st.sets(st.integers(0, k - 1)), label=f"copies of user 0 in {i}")
        zeros = data.draw(st.sets(st.integers(0, k - 1)), label=f"zero users in {i}")
        h[i, sorted(copies)] = (1.5 - 0.5j) * h[i, 0]
        h[i, sorted(zeros)] = 0.0
    c, ks = ChannelSet(h), range(k_s, k + 1)
    with mock.patch.object(selection, "_CHUNK_BYTES", 1 if chunked else selection._CHUNK_BYTES):
        found = {("approx", kk): o for kk, o in
                 zip(ks, selection._best_approx_orders(c.users, c._norms, k_s, T10, ks))}
        found["exact", k] = selection._best_exact_orders(c.users, c._norms, k_s, T10)
    for (method, kk), orders in found.items():
        assert orders.shape == (t, k_s) and orders.dtype == np.intp
        for i in range(t):
            try:
                want = select_exhaustive(ChannelSet(h[i, :kk]), k_s, T10, method).encoding_order
            except InfeasibleGeometryError:
                want = (-1,) * k_s
            assert tuple(orders[i].tolist()) == want, (method, kk, i)


def test_exhaustive_dp_steps_lower_levels_once_a_chunk_for_a_k_sweep(monkeypatch):
    # figure 4's shape, M = K_s = 4 over a K sweep: levels 1 and 2 are
    # stepped in full, as (trial, set, user, coordinate) arrays, once a DP
    # chunk at the widest K, not once a point
    from sinrmin import experiment

    cfg = experiment.ExperimentConfig(
        K_s=4, gamma_db=10.0, sigma_sq=0.1, algorithms=("NUS", "EXHAUSTIVE"), trials=40,
        master_seed=4, M=4, sweep_axis="K", sweep_values=(5, 14, 8, 11))
    full, step = [], selection._complement_step

    def recording(coords, x, x_sq):
        if coords.ndim == 4:
            full.append(coords.shape[1:3])
        return step(coords, x, x_sq)

    monkeypatch.setattr(selection, "_complement_step", recording)
    experiment._run_chunk((cfg, cfg.points(), range(cfg.trials)))
    chunks = -(-cfg.trials // selection._per_chunk(selection._dp_trial_bytes(14, 4, 4)))
    assert chunks == 3
    assert full == [(14, 14), (math.comb(14, 2), 14)] * chunks


def test_exhaustive_dp_does_not_enumerate(monkeypatch):
    # at M = K_s = 4 a step into the last level leaves one coordinate a user
    rows, step = [], selection._complement_step

    def counted(coords, x, x_sq):
        out = step(coords, x, x_sq)
        if out.shape[-1] == 1:
            rows.append(math.prod(out.shape[:-2]))
        return out

    monkeypatch.setattr(selection, "_complement_step", counted)
    select_exhaustive(sample_channel_set(4, 20, [SeedSpec(23, t) for t in range(20)]), 4, T10)
    assert sum(rows) <= 200 * 20  # stepping every last-level set takes 1,140 a trial


@pytest.mark.parametrize("seed", range(5))
def test_exhaustive_dp_regression_m4_k8(seed):
    c = sample_channel_set(4, 8, SeedSpec(14, seed))
    _, want = _brute_force_approx(c.users, 4, T10)
    assert select_exhaustive(c, 4, T10).encoding_order == want


def test_exhaustive_dp_dependent_user_in_one_dim_complement():
    # M=4, K_s=4: the last level's complement is one-dimensional
    h = sample_channel_set(4, 6, SeedSpec(18, 0)).users.copy()
    h[5] = 0.8 * h[0] - 0.5j * h[1] + 1.3 * h[2]
    for order in itertools.permutations((0, 1, 2)):
        with pytest.raises(InfeasibleGeometryError):
            approx_min_power(h[[*order, 5]], T10)
    _, want = _brute_force_approx(h, 4, T10)
    assert select_exhaustive(ChannelSet(h), 4, T10).encoding_order == want


@pytest.mark.parametrize(
    "m, k, k_s, seed",
    # M=6, K_s=3 leaves a complement of more than one coordinate at the
    # last level; M=4, K=9, K_s=4 has 3,024 orderings
    [(6, 10, 3, 0), (4, 9, 4, 0), (4, 9, 4, 1), (4, 9, 4, 2)],
)
def test_exhaustive_dp_equals_brute_force_fixed(m, k, k_s, seed):
    c = sample_channel_set(m, k, SeedSpec(19, seed))
    _, want = _brute_force_approx(c.users, k_s, T10)
    assert select_exhaustive(c, k_s, T10).encoding_order == want


def test_exhaustive_dp_subnormal_first_coordinate():
    # user 0's first coordinate is subnormal: its phase x_1/|x_1| must not
    # overflow into the reflection, which would leave a wrong order
    h = np.array([[1e-311, 1.0, 0.5], [0.3, 0.2, 1.0], [1.0, -0.4, 0.1],
                  [0.2, 0.9, -0.7]], dtype=complex)
    _, want = _brute_force_approx(h, 3, T10)
    assert want == (2, 0, 3)
    assert select_exhaustive(ChannelSet(h), 3, T10).encoding_order == want


def test_exhaustive_tie_break_at_depth_three():
    # every ordering of the orthogonal triple costs 30, as do some with user 3,
    # e.g. (0, 2, 3); the lexicographically first is expected
    c = _cs([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]])
    assert select_exhaustive(c, 3, T10).encoding_order == (0, 1, 2)


def test_exhaustive_collinear_users():
    # collinear up to 1e-14 relative: below the rank tolerance, as in the solver
    c = _cs([[1, 0, 0], [2, 2e-14, 0], [3, 0, 3e-14], [0.5, 0, 0]])
    with pytest.raises(InfeasibleGeometryError):
        select_exhaustive(c, 3, T10)
    r = select_exhaustive(c, 3, T10, "exact")
    assert len(set(r.encoding_order)) == 3


def test_exhaustive_rejects_non_finite_channel():
    rows = sample_channel_set(3, 5, SeedSpec(15, 0)).users.copy()
    rows[1, 0] = np.nan
    with pytest.raises(DomainError):
        select_exhaustive(ChannelSet(rows), 2, T10)


# ---------------------------------------------------------------------------
# shared invariants


def test_all_rules_return_distinct_valid_indices():
    c = sample_channel_set(5, 9, SeedSpec(12, 0))
    results = [
        select_nus(c, 4),
        select_sus(c, 4),
        select_aus(c, 4),
        select_rus(c, 4, SeedSpec(13, 0)),
        select_exhaustive(c, 2, T10),
    ]
    for r in results:
        assert len(set(r.selection_order)) == len(r.selection_order)
        assert all(0 <= i < 9 for i in r.selection_order)
        assert sorted(r.encoding_order) == sorted(r.selection_order)


def test_norm_rules_encode_weakest_first():
    c = sample_channel_set(5, 9, SeedSpec(12, 1))
    norms = np.einsum("ij,ij->i", c.users.conj(), c.users).real
    for r in (select_nus(c, 4), select_aus(c, 4)):
        seq = list(r.encoding_order)
        assert norms[seq[0]] == min(norms[i] for i in seq)
        assert all(norms[a] <= norms[b] for a, b in zip(seq, seq[1:]))
