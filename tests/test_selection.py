"""Selection rule tests: hand instances, invariants, exhaustive benchmark."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinrmin.channel import ChannelSet, SeedSpec, sample_channel_set
from sinrmin.errors import (
    BudgetError,
    ConfigError,
    DomainError,
    InfeasibleGeometryError,
)
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


@st.composite
def _exhaustive_instances(draw):
    m = draw(st.integers(2, 5))
    k = draw(st.integers(1, 7))
    k_s = draw(st.one_of(st.just(min(m, k)), st.integers(1, min(m, k))))
    seed = draw(st.integers(0, 2**32 - 1))
    h = sample_channel_set(m, k, SeedSpec(seed)).users.copy()
    eps = draw(st.sampled_from([0.0, 1e-3, 1e-6, 1e-9])) if k >= 3 else 0.0
    if eps:
        # last user: a combination of the first two plus eps noise
        a, b = draw(st.tuples(st.floats(-2, 2), st.floats(-2, 2)))
        noise = sample_channel_set(m, 1, SeedSpec(seed, 1)).users[0]
        h[-1] = a * h[0] + 1j * b * h[1] + eps * noise
    per_position = st.lists(st.floats(0.5, 100.0), min_size=k_s, max_size=k_s)
    gamma = draw(st.one_of(st.floats(0.5, 100.0), per_position.map(np.array)))
    sigma_sq = draw(st.sampled_from([0.1, 1.0]))
    return ChannelSet(h), k_s, SinrTargets(gamma, sigma_sq), eps > 0


@settings(max_examples=80, deadline=None)
@given(_exhaustive_instances())
def test_exhaustive_dp_equals_brute_force(instance):
    c, k_s, targets, near_dependent = instance
    best, want = _brute_force_approx(c.users, k_s, targets)
    if want is None:
        with pytest.raises(InfeasibleGeometryError):
            select_exhaustive(c, k_s, targets)
        return
    got = select_exhaustive(c, k_s, targets).encoding_order
    if near_dependent:
        # residuals of near-dependent users carry relative error ~1e-16/eps,
        # so orderings within that of the minimum are ties
        got_total = approx_min_power(c.users[list(got)], targets).total_power
        assert got_total <= best * (1 + 1e-5)
    else:
        assert got == want


@pytest.mark.parametrize("seed", range(5))
def test_exhaustive_dp_regression_m4_k8(seed):
    c = sample_channel_set(4, 8, SeedSpec(14, seed))
    _, want = _brute_force_approx(c.users, 4, T10)
    assert select_exhaustive(c, 4, T10).encoding_order == want


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
