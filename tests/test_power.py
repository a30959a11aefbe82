"""Power recursion, residual-norm bound, and duality tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinrmin.channel import SeedSpec, _complement_step, _squared_norms, sample_channel_set
from sinrmin.errors import (
    ConfigError,
    DimensionError,
    DomainError,
    InfeasibleGeometryError,
)
from sinrmin.power import (
    PowerSolution,
    SinrTargets,
    approx_min_power,
    downlink_dual_solution,
    evaluate_sinr,
    exact_min_power,
)

T10 = SinrTargets(10.0, 1.0)


def _instance(m: int, n: int, trial: int) -> np.ndarray:
    return sample_channel_set(m, n, SeedSpec(0xBEEF, trial)).users[:n]


# ---------------------------------------------------------------------------
# targets and solution containers


def test_targets_validation():
    with pytest.raises(ConfigError):
        SinrTargets(0.0, 1.0)
    with pytest.raises(ConfigError):
        SinrTargets(np.array([1.0, -2.0]), 1.0)
    with pytest.raises(ConfigError):
        SinrTargets(10.0, 0.0)
    for bad in (np.inf, np.nan):
        with pytest.raises(ConfigError):
            SinrTargets(bad, 1.0)
        with pytest.raises(ConfigError):
            SinrTargets(np.array([1.0, bad]), 1.0)
        with pytest.raises(ConfigError):
            SinrTargets(10.0, bad)
    with pytest.raises(DimensionError):
        SinrTargets(np.ones((2, 2)), 1.0)


def test_gamma_vector_broadcast_and_mismatch():
    assert np.array_equal(T10.gamma_vector(3), [10.0, 10.0, 10.0])
    vec = SinrTargets(np.array([1.0, 2.0]), 1.0)
    assert np.array_equal(vec.gamma_vector(2), [1.0, 2.0])
    with pytest.raises(DimensionError):
        vec.gamma_vector(3)


def test_solution_total_consistency_enforced():
    with pytest.raises(DomainError):
        PowerSolution(np.array([1.0, 2.0]), 4.0, np.array([1.0, 1.0]), "exact_dual_ul")


def test_solution_beamformer_norm_enforced():
    with pytest.raises(DomainError):
        PowerSolution(
            np.array([1.0]),
            1.0,
            np.array([1.0]),
            "downlink_dual",
            beamformers=np.array([[2.0 + 0j, 0.0]]),
        )


# ---------------------------------------------------------------------------
# hand-checked instances


def test_single_user_power():
    h = np.array([[1.0 + 0j, 1.0]])
    sol = exact_min_power(h, T10)
    assert sol.total_power == pytest.approx(5.0, rel=1e-12)
    assert approx_min_power(h, T10).total_power == pytest.approx(5.0, rel=1e-12)
    dual = downlink_dual_solution(h, T10)
    assert dual.total_power == pytest.approx(5.0, rel=1e-12)
    assert np.allclose(dual.beamformers[0], h[0] / np.sqrt(2.0))
    assert sol.method_tag == "exact_dual_ul"


def test_two_user_back_substitution():
    h = np.array([[1, 0], [1, 1]], dtype=complex)
    sol = exact_min_power(h, T10)
    assert sol.per_user_power[0] == pytest.approx(10.0, rel=1e-12)
    assert sol.per_user_power[1] == pytest.approx(110.0 / 12.0, rel=1e-12)
    assert sol.total_power == pytest.approx(115.0 / 6.0, rel=1e-12)
    assert np.allclose(sol.achieved_sinr, 10.0, rtol=1e-12)


def test_two_user_residual_bound():
    h = np.array([[1, 0], [1, 1]], dtype=complex)
    sol = approx_min_power(h, T10)
    # second user: norm 2, sin^2 = 1/2
    assert np.allclose(sol.per_user_power, [10.0, 10.0], rtol=1e-12)
    assert sol.total_power == pytest.approx(20.0, rel=1e-12)
    assert sol.method_tag == "approx_lemma1"


def test_orthogonal_users_match_exact():
    h = np.array([[1, 0], [0, np.sqrt(2.0)]], dtype=complex)
    assert exact_min_power(h, T10).total_power == pytest.approx(15.0, rel=1e-12)
    assert approx_min_power(h, T10).total_power == pytest.approx(15.0, rel=1e-12)


def test_encoding_order_matters():
    h = np.array([[1, 0], [1, 1]], dtype=complex)
    fwd = exact_min_power(h, T10).total_power
    rev = exact_min_power(h[::-1], T10).total_power
    assert fwd == pytest.approx(115.0 / 6.0, rel=1e-12)
    assert rev == pytest.approx(140.0 / 6.0, rel=1e-12)


def test_per_user_targets_respected():
    h = _instance(4, 3, 0)
    targets = SinrTargets(np.array([2.0, 5.0, 9.0]), 0.7)
    for fn in (exact_min_power, approx_min_power):
        sol = fn(h, targets)
        assert np.allclose(sol.achieved_sinr, [2.0, 5.0, 9.0], rtol=1e-12)
    dual = downlink_dual_solution(h, targets)
    assert np.allclose(dual.achieved_sinr, [2.0, 5.0, 9.0], rtol=1e-9)


# ---------------------------------------------------------------------------
# duality


@pytest.mark.parametrize("k_s", [1, 2, 4])
def test_duality_matches_exact_total(k_s):
    for trial in range(50):
        h = _instance(4, k_s, 100 * k_s + trial)
        exact = exact_min_power(h, T10)
        dual = downlink_dual_solution(h, T10)
        assert dual.total_power == pytest.approx(exact.total_power, rel=1e-9)
        assert np.allclose(dual.achieved_sinr, 10.0, rtol=1e-9)
        assert np.allclose(np.linalg.norm(dual.beamformers, axis=1), 1.0, atol=1e-10)


def test_duality_with_unequal_targets_and_noise():
    h = _instance(5, 4, 7)
    targets = SinrTargets(np.array([0.5, 3.0, 10.0, 1.0]), 0.37)
    exact = exact_min_power(h, targets)
    dual = downlink_dual_solution(h, targets)
    assert dual.total_power == pytest.approx(exact.total_power, rel=1e-9)
    assert np.allclose(dual.achieved_sinr, targets.gamma, rtol=1e-9)


# ---------------------------------------------------------------------------
# dominance and convergence


@settings(max_examples=60, deadline=None)
@given(
    trial=st.integers(0, 10_000),
    n=st.integers(1, 4),
    gamma=st.floats(1.0, 1e3),
    sigma_sq=st.floats(1e-3, 10.0),
)
def test_approx_never_undercuts_exact(trial, n, gamma, sigma_sq):
    h = _instance(4, n, trial)
    targets = SinrTargets(gamma, sigma_sq)
    e = exact_min_power(h, targets).total_power
    a = approx_min_power(h, targets).total_power
    assert a >= e * (1.0 - 1e-12)


def test_gap_shrinks_with_target():
    gaps = {}
    for gamma in (10.0, 1000.0):
        targets = SinrTargets(gamma, 1.0)
        rel = []
        for trial in range(400):
            h = _instance(4, 2, trial)
            e = exact_min_power(h, targets).total_power
            a = approx_min_power(h, targets).total_power
            rel.append((a - e) / e)
        gaps[gamma] = float(np.median(rel))
    assert gaps[1000.0] < 0.01
    assert gaps[1000.0] < gaps[10.0]


def test_gap_monotone_in_common_target_per_instance():
    h = _instance(4, 2, 11)
    rels = []
    for gamma in (1.0, 10.0, 100.0, 1000.0):
        targets = SinrTargets(gamma, 1.0)
        e = exact_min_power(h, targets).total_power
        a = approx_min_power(h, targets).total_power
        rels.append((a - e) / e)
    assert all(b <= a + 1e-12 for a, b in zip(rels, rels[1:]))


def test_scaling_by_scalar():
    h = _instance(4, 3, 3)
    base = approx_min_power(h, T10).total_power
    scaled = approx_min_power(2.5 * h, T10).total_power
    assert scaled == pytest.approx(base / 2.5**2, rel=1e-12)
    single = exact_min_power(h[:1], T10).total_power
    single_scaled = exact_min_power(2.5 * h[:1], T10).total_power
    assert single_scaled == pytest.approx(single / 2.5**2, rel=1e-12)


# ---------------------------------------------------------------------------
# evaluate_sinr


def test_evaluate_sinr_zero_powers():
    h = _instance(4, 3, 5)
    bf = h / np.linalg.norm(h, axis=1, keepdims=True)
    out = evaluate_sinr(h, bf, np.zeros(3), T10)
    assert np.array_equal(out, np.zeros(3))


def test_evaluate_sinr_single_user_formula():
    h = np.array([[3.0 + 4j, 0.0]])
    bf = h / 5.0
    out = evaluate_sinr(h, bf, [2.0], SinrTargets(1.0, 4.0))
    # q |h^H v|^2 / sigma^2 = 2 * 25 / 4
    assert out[0] == pytest.approx(12.5, rel=1e-12)


def test_evaluate_sinr_accumulates_earlier_beams():
    h = np.array([[1, 0], [1, 1]], dtype=complex)
    bf = np.array([[1, 0], [0, 1]], dtype=complex)
    out = evaluate_sinr(h, bf, [4.0, 3.0], SinrTargets(1.0, 2.0))
    assert out[0] == pytest.approx(4.0 / 2.0, rel=1e-12)
    assert out[1] == pytest.approx(3.0 / (2.0 + 4.0), rel=1e-12)


def test_evaluate_sinr_length_mismatch():
    h = _instance(4, 3, 5)
    bf = h / np.linalg.norm(h, axis=1, keepdims=True)
    with pytest.raises(DimensionError):
        evaluate_sinr(h, bf[:2], np.ones(3), T10)
    with pytest.raises(DimensionError):
        evaluate_sinr(h, bf, np.ones(2), T10)


# ---------------------------------------------------------------------------
# failure modes


def test_zero_channel_rejected():
    h = np.array([[1, 0], [0, 0]], dtype=complex)
    for fn in (exact_min_power, approx_min_power, downlink_dual_solution):
        with pytest.raises(DomainError):
            fn(h, T10)


@pytest.mark.parametrize(
    "solver", [exact_min_power, approx_min_power, downlink_dual_solution]
)
def test_non_finite_channel_rejected(solver):
    for bad in (np.nan, np.inf):
        h = np.eye(3, dtype=complex)
        h[1, 2] = bad
        with pytest.raises(DomainError):
            solver(h, T10)
    # finite entries whose squared norms overflow: not a NaN total, nor
    # "channel 0 lies in the span of its predecessors"
    with pytest.raises(DomainError):
        solver([[1e200, 0], [1e200, 1e200]], SinrTargets(10, 0.1))


def test_dependent_channels_infeasible_for_residual_bound():
    h = np.array([[1, 0], [2, 0]], dtype=complex)
    with pytest.raises(InfeasibleGeometryError):
        approx_min_power(h, T10)
    # the exact recursion still succeeds: interference is invertible noise
    sol = exact_min_power(h, T10)
    assert np.isfinite(sol.total_power)


def test_more_users_than_dimensions_infeasible():
    h = _instance(2, 3, 9)
    with pytest.raises(InfeasibleGeometryError):
        approx_min_power(h, T10)


def test_rows_past_the_dimension_name_channel_m():
    # rows past the M-th have no axis left; the first of them is named, for
    # one set and for a block, while the first M rows alone are feasible
    for m, n in ((1, 2), (2, 3), (3, 6)):
        h = _instance(m, n, 9)
        for rows in (h, np.stack([h, h])):
            with pytest.raises(InfeasibleGeometryError, match=f"^channel {m} lies"):
                approx_min_power(rows, T10)
        assert np.isfinite(approx_min_power(h[:m], T10).total_power)


@pytest.mark.parametrize("m", (1, 2, 4))
def test_approx_steps_once_per_predecessor(monkeypatch, m):
    # row i needs the complement of rows 0..i-1 only, so n rows take n - 1
    # steps; the totals are those of a loop that also steps past the last row
    import sinrmin.power as power

    steps = []

    def counted(*args):
        steps.append(args[0].shape)
        return _complement_step(*args)

    monkeypatch.setattr(power, "_complement_step", counted)
    for n in range(1, m + 1):
        h = np.stack([_instance(m, n, trial) for trial in range(3)])
        steps.clear()
        total = approx_min_power(h, T10).total_power
        assert len(steps) == n - 1
        coords, res2 = h, np.zeros(h.shape[:-1])
        for i in range(n):
            res2[:, i] = _squared_norms(coords[:, 0])
            coords = _complement_step(coords[:, 1:], coords[:, 0], res2[:, i])
        assert total.tobytes() == (T10.sigma_sq * T10.gamma / res2).sum(axis=-1).tobytes()
