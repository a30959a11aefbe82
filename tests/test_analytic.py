"""Distribution laws, reciprocal means, and average-power formula tests."""

import functools
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import betainc, cython_special, gammainc, gammaincc, gammaln

import sinrmin.analytic as analytic
from sinrmin.analytic import (
    DistributionSpec,
    _order_stat_power_coeffs,
    alpha,
    avg_power_aus_two,
    avg_power_lower_bound_two,
    avg_power_nus,
    avg_power_rus,
    avg_power_sus,
    cdf,
    mean_inverse,
    mean_inverse_quadrature,
    order_stat_mean_inverse_alpha,
    pdf,
)
from sinrmin.channel import SeedSpec
from sinrmin.errors import ConfigError, DivergenceError

GAMMA = 10.0  # 10 dB, linear
SIGMA_SQ = 0.1


# ---------------------------------------------------------------------------
# distribution specs


def test_spec_validation():
    with pytest.raises(ConfigError):
        DistributionSpec("nope", 4)
    with pytest.raises(ConfigError):
        DistributionSpec.norm_chisq(0)
    with pytest.raises(ConfigError):
        DistributionSpec.norm_order_stat(4, 0, 10)
    with pytest.raises(ConfigError):
        DistributionSpec.norm_order_stat(4, 11, 10)
    with pytest.raises(ConfigError):
        DistributionSpec.norm_not_largest(4, 1)
    with pytest.raises(ConfigError):
        DistributionSpec.sin_sq_angle(4, 0)
    with pytest.raises(ConfigError):
        DistributionSpec.sin_sq_angle(4, 4)
    with pytest.raises(ConfigError):
        DistributionSpec.sin_sq_angle_max(1, 5)


# ---------------------------------------------------------------------------
# cdf / pdf values


def test_cdf_norm_chisq_single_antenna_is_exponential():
    spec = DistributionSpec.norm_chisq(1)
    xs = np.array([0.0, 0.5, 1.0, 3.0])
    assert np.allclose(cdf(spec, xs), 1.0 - np.exp(-xs), rtol=1e-12)


def test_cdf_sin_sq_angle_single_dim():
    # one-dimensional span in C^4: CDF x^(M-1)
    spec = DistributionSpec.sin_sq_angle(4, 1)
    assert cdf(spec, 0.5) == pytest.approx(0.125, rel=1e-12)
    xs = np.linspace(0, 1, 11)
    assert np.allclose(cdf(spec, xs), xs**3, rtol=1e-12)


def test_cdf_sin_sq_angle_max_power_law():
    spec = DistributionSpec.sin_sq_angle_max(4, 9)
    assert cdf(spec, 0.9) == pytest.approx(0.9**27, rel=1e-12)


def test_cdf_order_stat_largest_is_power_of_parent():
    M, K = 4, 10
    spec = DistributionSpec.norm_order_stat(M, 1, K)
    xs = np.linspace(0.1, 20, 25)
    assert np.allclose(cdf(spec, xs), gammainc(M, xs) ** K, rtol=1e-10)


def test_cdf_order_stat_matches_beta_tail_identity():
    # independent route: the binomial tail equals a regularized incomplete beta
    M, K = 4, 10
    xs = np.linspace(0.05, 18, 40)
    g = gammainc(M, xs)
    for r in range(1, K + 1):
        spec = DistributionSpec.norm_order_stat(M, r, K)
        assert np.allclose(cdf(spec, xs), betainc(K + 1 - r, r, g), atol=1e-12)


def test_cdf_not_largest_combination():
    M, K = 4, 10
    spec = DistributionSpec.norm_not_largest(M, K)
    xs = np.linspace(0.05, 18, 20)
    g = gammainc(M, xs)
    expect = (K * g - g**K) / (K - 1)
    assert np.allclose(cdf(spec, xs), expect, rtol=1e-12)


def _all_specs():
    return [
        DistributionSpec.norm_chisq(4),
        DistributionSpec.norm_order_stat(4, 1, 10),
        DistributionSpec.norm_order_stat(4, 7, 10),
        DistributionSpec.norm_not_largest(4, 10),
        DistributionSpec.sin_sq_angle(4, 2),
        DistributionSpec.sin_sq_angle_max(4, 9),
        DistributionSpec.norm_order_stat(1, 3, 6),
        DistributionSpec.sin_sq_angle(6, 5),
    ]


def test_cdf_monotone_with_proper_limits():
    for spec in _all_specs():
        hi = 1.0 if spec.kind.startswith("sin") else 60.0
        xs = np.linspace(0.0, hi, 301)
        vals = np.asarray(cdf(spec, xs))
        assert vals[0] <= 1e-12
        assert vals[-1] == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.all((vals >= 0.0) & (vals <= 1.0 + 1e-12))
        # clamping outside the support
        assert cdf(spec, -1.0) == 0.0
        assert cdf(spec, hi * 10) == pytest.approx(1.0, abs=1e-9)


def test_pdf_matches_cdf_derivative():
    eps = 1e-6
    for spec in _all_specs():
        xs = np.array([0.3, 0.7]) if spec.kind.startswith("sin") else np.array([2.0, 6.0])
        slope = (np.asarray(cdf(spec, xs + eps)) - np.asarray(cdf(spec, xs - eps))) / (2 * eps)
        assert np.allclose(pdf(spec, xs), slope, rtol=1e-5)


def test_order_stat_rank_sum_consistency():
    # summing the r-th-largest densities over all ranks recovers K parents
    M, K = 4, 10
    xs = np.linspace(0.1, 15, 60)
    total = np.zeros_like(xs)
    for r in range(1, K + 1):
        total += np.asarray(pdf(DistributionSpec.norm_order_stat(M, r, K), xs))
    parent = K * np.asarray(pdf(DistributionSpec.norm_chisq(M), xs))
    assert np.allclose(total, parent, rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------------------
# reciprocal means


def test_mean_inverse_closed_forms():
    assert mean_inverse(DistributionSpec.norm_chisq(4)) == pytest.approx(1 / 3, rel=1e-12)
    assert mean_inverse(DistributionSpec.sin_sq_angle(4, 1)) == pytest.approx(1.5, rel=1e-12)
    # two-dimensional span in C^4: 6 * integral of (1 - x) dx = 3
    assert mean_inverse(DistributionSpec.sin_sq_angle(4, 2)) == pytest.approx(3.0, rel=1e-12)
    assert mean_inverse(DistributionSpec.sin_sq_angle_max(4, 9)) == pytest.approx(
        27 / 26, rel=1e-12
    )
    m, k = 4, 10
    expect = (k / (m - 1) - alpha(m, k)) / (k - 1)
    assert mean_inverse(DistributionSpec.norm_not_largest(m, k)) == pytest.approx(
        expect, rel=1e-12
    )


def test_mean_inverse_closed_vs_quadrature():
    specs = [
        DistributionSpec.norm_chisq(4),
        DistributionSpec.norm_chisq(2),
        DistributionSpec.sin_sq_angle(4, 1),
        DistributionSpec.sin_sq_angle(4, 2),
        DistributionSpec.sin_sq_angle(8, 5),
        DistributionSpec.sin_sq_angle_max(4, 9),
        DistributionSpec.sin_sq_angle_max(2, 2),
        DistributionSpec.norm_not_largest(4, 10),
        DistributionSpec.norm_not_largest(3, 4),
    ]
    for spec in specs:
        closed = mean_inverse(spec)
        quad_val = mean_inverse_quadrature(spec)
        assert abs(closed - quad_val) <= 1e-7 * abs(closed), spec


def test_mean_inverse_order_stat_vs_alpha_combination():
    for m, r, k in [(4, 1, 10), (4, 2, 10), (4, 4, 10), (3, 2, 8), (5, 3, 12), (2, 1, 4)]:
        quad_val = mean_inverse_quadrature(DistributionSpec.norm_order_stat(m, r, k))
        combo = order_stat_mean_inverse_alpha(m, r, k)
        assert abs(quad_val - combo) <= 1e-7 * abs(combo), (m, r, k)


def test_mean_inverse_order_stat_cancellation_falls_back():
    # the alpha combination alone is off by 2.9e-5 and 2.1e-6 relative here
    for m, r, k in [(4, 8, 100), (2, 8, 64)]:
        spec = DistributionSpec.norm_order_stat(m, r, k)
        quad_val = mean_inverse_quadrature(spec)
        assert abs(mean_inverse(spec) - quad_val) <= 1e-9 * quad_val, (m, r, k)


def test_mean_inverse_single_dim_order_stat():
    # a one-dimensional norm with enough competitors converges even though
    # the single-user law does not
    spec = DistributionSpec.norm_order_stat(1, 4, 5)
    val = mean_inverse(spec)
    assert np.isfinite(val) and val > 0


def test_mean_inverse_divergences():
    with pytest.raises(DivergenceError):
        mean_inverse(DistributionSpec.norm_chisq(1))
    with pytest.raises(DivergenceError):
        mean_inverse(DistributionSpec.sin_sq_angle(4, 3))
    with pytest.raises(DivergenceError):
        mean_inverse(DistributionSpec.norm_order_stat(1, 5, 5))
    with pytest.raises(DivergenceError):
        mean_inverse(DistributionSpec.sin_sq_angle_max(2, 1))


def test_divergence_message_names_parameters():
    with pytest.raises(DivergenceError, match="M=1"):
        mean_inverse(DistributionSpec.norm_chisq(1))
    with pytest.raises(DivergenceError, match="i=3"):
        mean_inverse(DistributionSpec.sin_sq_angle(4, 3))


# ---------------------------------------------------------------------------
# alpha


def test_alpha_single_user_closed_form():
    for m in range(2, 11):
        assert abs(alpha(m, 1) - 1.0 / (m - 1)) <= 1e-9 / (m - 1)


def test_alpha_monotone():
    # more users -> larger maximum -> smaller reciprocal mean
    vals_k = [alpha(4, k) for k in (1, 2, 4, 8, 16)]
    assert all(b < a for a, b in zip(vals_k, vals_k[1:]))
    vals_m = [alpha(m, 10) for m in (2, 3, 4, 6, 8)]
    assert all(b < a for a, b in zip(vals_m, vals_m[1:]))


def test_alpha_rejects_single_antenna():
    with pytest.raises(DivergenceError):
        alpha(1, 10)
    with pytest.raises(ConfigError):
        alpha(4, 0)


def test_alpha_matches_order_stat_route():
    # same quantity through the generic order-statistic quadrature
    for m, k in [(2, 3), (4, 10), (6, 16)]:
        other = mean_inverse_quadrature(DistributionSpec.norm_order_stat(m, 1, k))
        assert abs(alpha(m, k) - other) <= 1e-8 * other


def test_alpha_against_sampled_maximum():
    # Monte Carlo oracle: 1e6 draws of max of K Gamma(M,1) variables
    m, k = 4, 10
    rng = SeedSpec(777, 0).generator()
    best = rng.gamma(m, size=(1_000_000, k)).max(axis=1)
    inv = 1.0 / best
    est = inv.mean()
    stderr = inv.std(ddof=1) / math.sqrt(inv.size)
    assert abs(alpha(m, k) - est) <= 3.0 * stderr


_ALPHA_GRID = [(m, k) for m in range(2, 17) for k in range(1, 65)]


def test_scalar_gamma_functions_match_the_ufuncs_bitwise():
    # alpha calls the scalar forms in place of the ufuncs; that is safe only
    # while the installed scipy gives both the same bits
    tiny = np.finfo(float).tiny
    xs = np.concatenate(([0.0, 5e-324, tiny / 2**20, tiny / 2], np.logspace(-300, 6, 1531)))
    for a in range(1, 65):
        for scalar, ufunc in (
            (cython_special.gammainc, gammainc),
            (cython_special.gammaincc, gammaincc),
        ):
            got = np.array([scalar(a, x) for x in xs])
            assert got.tobytes() == ufunc(a, xs).tobytes(), (scalar, a)


def _alpha_doubling_from_8m8(m: int, k: int) -> float:
    # alpha as it was integrated before it chose its first limit: the ufuncs,
    # [0, 8M+8] first and, while the tail test fails, twice the limit from 0
    log_gamma_m = gammaln(m)

    def integrand(x: float) -> float:
        if x <= 0.0:
            return 0.0
        base = math.exp(-x + (m - 2) * math.log(x) - log_gamma_m)
        return k * base * float(gammainc(m, x)) ** (k - 1)

    upper = 8.0 * m + 8.0
    while True:
        value = quad(integrand, 0.0, upper, epsabs=0.0, epsrel=1e-10, limit=300)[0]
        if k * float(gammaincc(m - 1, upper)) / (m - 1) <= 1e-12 * value:
            return float(value)
        upper *= 2.0


def test_alpha_equals_the_doubling_loop_bitwise():
    alpha.cache_clear()
    for m, k in _ALPHA_GRID:
        assert alpha(m, k).hex() == _alpha_doubling_from_8m8(m, k).hex(), (m, k)


def test_alpha_integrates_once(monkeypatch):
    # the first limit is the one the doubling loop would have ended on
    limits = []

    def counted(func, a, b, **kwargs):
        limits.append(b)
        return quad(func, a, b, **kwargs)

    monkeypatch.setattr(analytic, "quad", counted)
    for m, k in _ALPHA_GRID:
        alpha.cache_clear()
        limits.clear()
        alpha(m, k)
        assert len(limits) == 1, (m, k, limits)
    alpha.cache_clear()


def test_alpha_within_the_bounds_its_first_limit_rests_on():
    # 1/max <= K / (sum of the K norms), whose mean is K / (KM - 1) <= 1 / (M - 1)
    for m, k in _ALPHA_GRID:
        assert alpha(m, k) * (m - 1) <= 1.0 + 1e-12, (m, k)
        assert alpha(m, k) * (k * m - 1) / k <= 1.0 + 1e-12, (m, k)


def test_order_stat_power_coeffs_match_printed_forms():
    for k in (6, 10, 16):
        assert _order_stat_power_coeffs(1, k) == {k: 1}
        assert _order_stat_power_coeffs(2, k) == {k - 1: k, k: -(k - 1)}
        expect3 = {
            k - 2: k * (k - 1) // 2,
            k - 1: -k * (k - 2),
            k: (k - 1) * (k - 2) // 2,
        }
        assert _order_stat_power_coeffs(3, k) == expect3
        expect4 = {
            k - 3: k * (k - 1) * (k - 2) // 6,
            k - 2: -k * (k - 1) * (k - 3) // 2,
            k - 1: k * (k - 2) * (k - 3) // 2,
            k: -(k - 1) * (k - 2) * (k - 3) // 6,
        }
        assert _order_stat_power_coeffs(4, k) == expect4


# ---------------------------------------------------------------------------
# average powers


def test_avg_power_rus_values():
    assert avg_power_rus(4, 2, GAMMA, SIGMA_SQ) == pytest.approx(5 / 6, rel=1e-12)
    assert avg_power_rus(4, 3, GAMMA, SIGMA_SQ) == pytest.approx(11 / 6, rel=1e-12)
    assert avg_power_rus(4, 1, GAMMA, SIGMA_SQ) == pytest.approx(1 / 3, rel=1e-12)


def test_avg_power_rus_divergence():
    with pytest.raises(DivergenceError):
        avg_power_rus(4, 4, GAMMA, SIGMA_SQ)
    with pytest.raises(DivergenceError):
        avg_power_rus(2, 2, GAMMA, SIGMA_SQ)


def test_avg_power_single_selected_user():
    # with one selected user out of one, every rule reduces to gamma*sigma^2*E[1/||h||^2]
    val = avg_power_nus(4, 1, 1, GAMMA, SIGMA_SQ)
    assert val == pytest.approx(GAMMA * SIGMA_SQ / 3.0, rel=1e-9)
    assert avg_power_sus(4, 1, 1, GAMMA, SIGMA_SQ) == pytest.approx(val, rel=1e-9)


def test_avg_power_nus_sus_use_best_norms():
    # with K_s = 1 both pick the largest norm
    for m, k in [(4, 10), (6, 8)]:
        expect = GAMMA * SIGMA_SQ * alpha(m, k)
        assert avg_power_nus(m, k, 1, GAMMA, SIGMA_SQ) == pytest.approx(expect, rel=1e-7)
        assert avg_power_sus(m, k, 1, GAMMA, SIGMA_SQ) == pytest.approx(expect, rel=1e-7)


def test_avg_power_nus_sus_match_quadrature_term_sum():
    # the same sums with every order-statistic mean by quadrature on its
    # density, angle means in closed form
    @functools.cache
    def quad_mean(m, r, k):
        return mean_inverse_quadrature(DistributionSpec.norm_order_stat(m, r, k))

    def angle(m, d):
        return 1.0 if d == 0 else mean_inverse(DistributionSpec.sin_sq_angle(m, d))

    for m in range(4, 9):
        for k in range(8, 17):
            for k_s in (2, 4):
                sus = sum(quad_mean(m + 1 - i, i, k) for i in range(1, k_s + 1))
                expect = GAMMA * SIGMA_SQ * sus
                got = avg_power_sus(m, k, k_s, GAMMA, SIGMA_SQ)
                assert abs(got - expect) <= 1e-9 * expect, ("SUS", m, k, k_s)
                if k_s >= m:  # the last NUS angle term diverges
                    continue
                nus = sum(
                    quad_mean(m, k_s + 1 - i, k) * angle(m, i - 1)
                    for i in range(1, k_s + 1)
                )
                expect = GAMMA * SIGMA_SQ * nus
                got = avg_power_nus(m, k, k_s, GAMMA, SIGMA_SQ)
                assert abs(got - expect) <= 1e-9 * expect, ("NUS", m, k, k_s)


def test_avg_power_nus_divergences():
    with pytest.raises(DivergenceError, match="i=4"):
        avg_power_nus(4, 10, 4, GAMMA, SIGMA_SQ)
    with pytest.raises(DivergenceError, match="i=2"):
        avg_power_nus(2, 10, 2, GAMMA, SIGMA_SQ)


def test_avg_power_sus_small_dims():
    # the final term lives in a one-dimensional space; enough users keep it finite
    val5 = avg_power_sus(4, 5, 4, GAMMA, SIGMA_SQ)
    val8 = avg_power_sus(4, 8, 4, GAMMA, SIGMA_SQ)
    assert np.isfinite(val5) and np.isfinite(val8)
    assert val8 < val5  # more users to choose from can only help
    with pytest.raises(DivergenceError, match="i=4"):
        avg_power_sus(4, 4, 4, GAMMA, SIGMA_SQ)


def test_avg_power_monotone_in_m_and_k():
    nus_m = [avg_power_nus(m, 10, 2, GAMMA, SIGMA_SQ) for m in (3, 4, 6, 8)]
    assert all(b < a for a, b in zip(nus_m, nus_m[1:]))
    sus_k = [avg_power_sus(4, k, 2, GAMMA, SIGMA_SQ) for k in (4, 8, 16)]
    assert all(b < a for a, b in zip(sus_k, sus_k[1:]))


def test_avg_power_aus_two_structure():
    m, k = 4, 10
    weak = mean_inverse(DistributionSpec.norm_not_largest(m, k))
    angle = mean_inverse(DistributionSpec.sin_sq_angle_max(m, k - 1))
    expect = GAMMA * SIGMA_SQ * (weak + alpha(m, k) * angle)
    assert avg_power_aus_two(m, k, GAMMA, SIGMA_SQ) == pytest.approx(expect, rel=1e-12)


def test_avg_power_aus_two_pair_reduction():
    # K = 2: no angle competition, and the weaker norm is just "the other user"
    m = 5
    expect = GAMMA * SIGMA_SQ * (
        (2 / (m - 1) - alpha(m, 2)) + alpha(m, 2) * (m - 1) / (m - 2)
    )
    assert avg_power_aus_two(m, 2, GAMMA, SIGMA_SQ) == pytest.approx(expect, rel=1e-12)


def test_avg_power_lower_bound_printed_coefficients():
    m, k = 4, 10
    n = (m - 1) * (k - 1)
    expect = GAMMA * SIGMA_SQ * (
        k * alpha(m, k - 1) - (k - 1) * (1.0 - (m - 1) / (n - 1)) * alpha(m, k)
    )
    assert avg_power_lower_bound_two(m, k, GAMMA, SIGMA_SQ) == pytest.approx(
        expect, rel=1e-12
    )


def test_benchmark_orderings_across_grid():
    for m in (3, 4, 6, 8):
        for k in (3, 6, 10, 20):
            lb = avg_power_lower_bound_two(m, k, GAMMA, SIGMA_SQ)
            sus = avg_power_sus(m, k, 2, GAMMA, SIGMA_SQ)
            nus = avg_power_nus(m, k, 2, GAMMA, SIGMA_SQ)
            aus = avg_power_aus_two(m, k, GAMMA, SIGMA_SQ)
            rus = avg_power_rus(m, 2, GAMMA, SIGMA_SQ)
            assert lb <= sus + 1e-12
            assert lb <= nus + 1e-12
            assert lb <= aus + 1e-12
            assert aus <= rus + 1e-12
            if k >= 6:
                # the greedy-selection value is an upper bound, so it can sit
                # above the exact norm-selection average when K is tiny; with
                # real selection diversity it drops below
                assert sus <= nus + 1e-12


def test_avg_power_config_errors():
    with pytest.raises(ConfigError):
        avg_power_nus(4, 10, 0, GAMMA, SIGMA_SQ)
    with pytest.raises(ConfigError):
        avg_power_nus(4, 10, 11, GAMMA, SIGMA_SQ)
    with pytest.raises(ConfigError):
        avg_power_sus(4, 10, 5, GAMMA, SIGMA_SQ)
    with pytest.raises(ConfigError):
        avg_power_aus_two(2, 10, GAMMA, SIGMA_SQ)
    with pytest.raises(ConfigError):
        avg_power_lower_bound_two(4, 1, GAMMA, SIGMA_SQ)
    with pytest.raises(ConfigError):
        avg_power_nus(4, 10, 2, -1.0, SIGMA_SQ)
    with pytest.raises(ConfigError):
        avg_power_nus(4, 10, 2, GAMMA, 0.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ConfigError):
            avg_power_nus(4, 10, 2, bad, SIGMA_SQ)
        with pytest.raises(ConfigError):
            avg_power_sus(4, 10, 2, GAMMA, bad)
        with pytest.raises(ConfigError):
            avg_power_rus(4, 2, GAMMA, bad)


def test_scaling_in_gamma_and_sigma():
    base = avg_power_sus(4, 10, 2, 1.0, 1.0)
    assert avg_power_sus(4, 10, 2, 7.0, 1.0) == pytest.approx(7 * base, rel=1e-12)
    assert avg_power_sus(4, 10, 2, 1.0, 0.3) == pytest.approx(0.3 * base, rel=1e-12)
