"""Distribution laws, reciprocal means, and average-power formula tests."""

import functools
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import betainc, gammainc, gammaincc, gammaln

import sinrmin.analytic as analytic
from sinrmin.analytic import (
    DistributionSpec,
    _alpha_terms,
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
    # cdf takes the regularized incomplete beta; check it against the binomial
    # tail it equals: at least K + 1 - r of the K parents at or below x
    M, K = 4, 10
    xs = np.linspace(0.05, 18, 40)
    g = gammainc(M, xs)
    for r in range(1, K + 1):
        spec = DistributionSpec.norm_order_stat(M, r, K)
        tail = sum(math.comb(K, j) * g**j * (1.0 - g) ** (K - j) for j in range(K + 1 - r, K + 1))
        assert np.allclose(cdf(spec, xs), tail, atol=1e-12)


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
        combo = float(sum(_alpha_terms(m, r, k)))
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


_EPS = np.finfo(float).eps
_ORDER_STATS = [(m, r, k) for m in range(1, 9) for k in range(1, 25) for r in range(1, k + 1)]


def test_order_stat_integrand_is_the_density_over_t():
    # pdf stays the independent check of the array integrand, which sums the
    # logs of the coefficient, the powers and the parent density: each value
    # carries about as many roundings as those terms are large, and pdf's own
    # exponent about as many. Where G >= 1/2, pdf's 1 - G carries an absolute
    # rounding of G, which Q does not. Subnormal values hold fewer digits
    ts = np.logspace(-3, 2, 161)
    for m, r, k in _ORDER_STATS:
        integrand, _ = analytic._order_stat_quadrature(m, r, k)
        got = integrand(ts)
        ref = pdf(DistributionSpec.norm_order_stat(m, r, k), ts) / ts
        g, q = gammainc(m, ts), gammaincc(m, ts)
        log_g, log_q = analytic._gamma_cdf_logs(m, ts)
        ulps = np.abs(got - ref) / np.where(ref > 0.0, ref, 1.0) / _EPS
        roundings = (4.0 + math.log(r * math.comb(k, r)) + ts + (m - 1) * np.abs(np.log(ts))
                     + (k - r) * np.abs(log_g) + (r - 1) * np.abs(log_q))
        normal = ref >= np.finfo(float).tiny
        low = (g < 0.5) & normal
        high = (g >= 0.5) & (q >= 1e-8) & normal
        assert np.all(ulps[low] <= 4.0 * roundings[low]), (m, r, k)
        bound = 4.0 * roundings[high] + 2.0 * (1 + (k - r) + (r - 1) / q[high])
        assert np.all(ulps[high] <= bound), (m, r, k)


def test_gamma_cdf_logs_take_each_side_from_the_one_below_a_half():
    # log G from G and log(1 - G) from 1 - G while G < 1/2; past that both
    # come from Q, so log G stays nonzero where G has rounded to 1
    xs = np.concatenate((np.logspace(-3, 2, 121), [200.0, 700.0, 800.0]))
    for m in (1, 2, 4, 16, 64):
        g, q = gammainc(m, xs), gammaincc(m, xs)
        log_g, log_q = analytic._gamma_cdf_logs(m, xs)
        low, high = (g < 0.5) & (g > 0.0), (g >= 0.5) & (q > 0.0)
        assert np.array_equal(log_g[low], np.log(g[low])), m
        assert np.array_equal(log_q[low], np.log1p(-g[low])), m
        assert np.array_equal(log_g[high], np.log1p(-q[high])), m
        assert np.array_equal(log_q[high], np.log(q[high])), m
        assert np.all(log_g[high] < 0.0), m
        # a Q below the normal range counts as the smallest normal
        assert np.all(log_q[q == 0.0] == np.log(np.finfo(float).tiny)), m


def test_order_stat_tail_is_the_mass_above_the_limit():
    # I_Q(r, K+1-r) against 1 - I_G(K+1-r, r), which rounds to an absolute
    # few eps; the bound leaves room for the betainc of the oldest supported SciPy
    for m, r, k in _ORDER_STATS:
        spec = DistributionSpec.norm_order_stat(m, r, k)
        if analytic._divergence_exponent(spec) < 1:
            continue
        _, tail = analytic._order_stat_quadrature(m, r, k)
        us = np.array([0.25, 1.0, 4.0] + [(8.0 * m + 8.0) * 2**j for j in range(4)])
        got = np.array([tail(u) for u in us])
        assert np.all(np.abs(got - (1.0 - cdf(spec, us)) / us) * us <= 64 * _EPS), (m, r, k)


def test_mean_inverse_order_stat_at_large_k():
    # K alpha(M, K-1) - (K-1) alpha(M, K) cancels, so these go to quadrature,
    # where a G rounded to 1 raised ArithmeticError at K = 1e15 and gave
    # 9.5e-94 at K = 1e18. The references are mpmath's at 50 digits
    spec = DistributionSpec.norm_order_stat(2, 2, 10**15)
    assert abs(mean_inverse(spec) - 0.026485994884306) <= 1e-10
    ref = 0.022304443712853929536
    assert abs(mean_inverse(DistributionSpec.norm_order_stat(2, 2, 10**18)) - ref) <= 1e-10 * ref


def test_mean_inverse_order_stat_past_the_float_range():
    # r C(K, r) passes the float range from r = 18 at K = 1e18, where the
    # alpha combination and the quadrature both raised OverflowError. The
    # references are mpmath's at 40 digits
    refs = {(2, 18): 0.023611548543417084, (2, 20): 0.023673371310629959,
            (1, 20): 0.025991121502352727, (3, 19): 0.021971163456059734}
    for (m, r), ref in refs.items():
        spec = DistributionSpec.norm_order_stat(m, r, 10**18)
        assert abs(mean_inverse(spec) - ref) <= 1e-10 * ref, (m, r)
    # the sum of SUS at M = K_s = 20 takes every r from 1 to 20
    assert abs(avg_power_sus(20, 10**18, 20, 10.0, 0.1) - 0.328292152181966) <= 1e-10


def test_quad_to_tail_names_the_limit_it_gave_up_at():
    with pytest.raises(ArithmeticError, match=r"^tail criterion unreachable for x at upper 1\.04858e\+06$"):
        analytic._quad_to_tail(np.ones_like, 1.0, lambda u: 1.0, "x")


def test_order_stat_quadrature_integrates_each_piece_once(monkeypatch):
    # M = 2, r = 2 at K = 1e18 doubles its limit twice from 8M + 8; each
    # doubling integrates only the new piece and adds it to the total
    pieces, nodes = [], []
    integrate = analytic._integrate
    quadrature = analytic._order_stat_quadrature

    def counted_quadrature(m, r, k):
        integrand, tail = quadrature(m, r, k)

        def counted(t):
            nodes.append((len(pieces) - 1, t.size, t.min(), t.max()))
            return integrand(t)

        return counted, tail

    def recorded(integrand, lower, upper, what):
        pieces.append((lower, upper))
        return integrate(integrand, lower, upper, what)

    monkeypatch.setattr(analytic, "_order_stat_quadrature", counted_quadrature)
    monkeypatch.setattr(analytic, "_integrate", recorded)
    value = mean_inverse_quadrature(DistributionSpec.norm_order_stat(2, 2, 10**18))
    assert pieces == [(0.0, 24.0), (24.0, 48.0), (48.0, 96.0)]
    # every evaluation lies inside the piece being integrated, and each piece
    # takes as many as integrating it alone does
    for piece, _, lo, hi in nodes:
        assert pieces[piece][0] < lo and hi < pieces[piece][1], (piece, lo, hi)
    integrand, _ = quadrature(2, 2, 10**18)
    for i, (lower, upper) in enumerate(pieces):
        alone = []
        integrate(lambda t: alone.append(t.size) or integrand(t), lower, upper, "x")
        assert sum(alone) == sum(n for piece, n, _, _ in nodes if piece == i), (lower, upper)
    ref = 0.022304443712853929536  # mpmath's at 50 digits
    assert abs(value - ref) <= 1e-12 * ref


def test_integrate_is_exact_on_polynomials_of_the_rule_degree():
    # the 20-point rule integrates degree 39 exactly, so the first panels pass
    value = analytic._integrate(lambda t: t**39, 0.0, 2.0, "x")
    assert value == pytest.approx(2.0**40 / 40, rel=1e-14)
    assert analytic._integrate(lambda t: 3.0 * t**2, 1.0, 4.0, "x") == pytest.approx(63.0, rel=1e-14)


def test_integrand_that_misses_the_tolerance_raises_at_the_panel_cap():
    # noise of 1e-6 relative never meets the tolerance: the panels double each
    # level until the cap, and no call evaluates more than two halves of each
    sizes = []
    noise = np.random.default_rng(5)

    def noisy(t):
        sizes.append(t.size)
        return 1.0 + 1e-6 * noise.random(t.shape)

    with pytest.raises(ArithmeticError, match=r"^quadrature lost its tolerance for x on \[0, 1\] at 1024 panels$"):
        analytic._integrate(noisy, 0.0, 1.0, "x")
    assert max(sizes) <= 2 * analytic._MAX_PANELS * analytic._UNIT_NODES.size
    assert len(sizes) <= 2 + math.log2(analytic._MAX_PANELS / analytic._START_PANELS)


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


def _log_cdfs(m: int, x: float) -> tuple:
    # log G and log(1 - G), each from whichever of G and Q is below 1/2
    g = float(gammainc(m, x))
    if g < 0.5:
        return (math.log(g) if g > 0.0 else -math.inf), math.log1p(-g)
    q = float(gammaincc(m, x))
    return math.log1p(-q), (math.log(q) if q > 0.0 else -math.inf)


def _quad_reference(integrand, m: int, tail) -> float:
    # scipy's QUADPACK as the independent check, from [0, 8M+8] in doubled
    # pieces until the tail bound is 1e-13 of the total; full_output returns
    # a lost tolerance as a message, which the comparison would catch
    value, lower, upper = 0.0, 0.0, 8.0 * m + 8.0
    while True:
        value += quad(integrand, lower, upper, epsabs=0.0, epsrel=1e-13, limit=500, full_output=1)[0]
        if tail(upper) <= 1e-13 * value:
            return value
        lower, upper = upper, 2.0 * upper


def _alpha_reference(m: int, k: int) -> float:
    def integrand(x: float) -> float:
        log_g = _log_cdfs(m, x)[0] if k > 1 else 0.0
        return k * math.exp((k - 1) * log_g - x + (m - 2) * math.log(x) - gammaln(m))

    return _quad_reference(integrand, m, lambda u: k * float(gammaincc(m - 1, u)) / (m - 1))


def _order_stat_reference(m: int, r: int, k: int) -> float:
    log_coef = math.log(r * math.comb(k, r)) - gammaln(m)

    def integrand(t: float) -> float:
        log_g, log_q = _log_cdfs(m, t)
        exponent = log_coef - t + (m - 1) * math.log(t)
        exponent += ((k - r) * log_g if k > r else 0.0) + ((r - 1) * log_q if r > 1 else 0.0)
        return math.exp(exponent) / t

    return _quad_reference(integrand, m, lambda u: float(betainc(r, k + 1 - r, gammaincc(m, u))) / u)


_ALPHA_LARGE_K = [(m, 10**e) for m in range(2, 17) for e in range(3, 19)]


def test_alpha_matches_a_quad_reference():
    # alpha also drops a tail of up to 1e-12 of its value: 8.7e-13 at (7, 1e8)
    alpha.cache_clear()
    for m, k in _ALPHA_GRID + _ALPHA_LARGE_K:
        ref = _alpha_reference(m, k)
        assert abs(alpha(m, k) - ref) <= 1e-12 * ref, (m, k)


def test_mean_inverse_quadrature_matches_a_quad_reference():
    specs = _ORDER_STATS + [(m, r, 10**e) for m in (2, 3, 4, 8, 16) for e in range(9, 19)
                            for r in (1, 2, 4, 8, 16, 20)]
    for m, r, k in specs:
        spec = DistributionSpec.norm_order_stat(m, r, k)
        if analytic._divergence_exponent(spec) < 1:
            continue
        ref = _order_stat_reference(m, r, k)
        assert abs(mean_inverse_quadrature(spec) - ref) <= 1e-12 * ref, (m, r, k)


def test_alpha_integrates_once(monkeypatch):
    # the first limit is the one the doubling loop would have ended on
    limits = []
    integrate = analytic._integrate

    def counted(integrand, lower, upper, what):
        limits.append(upper)
        return integrate(integrand, lower, upper, what)

    monkeypatch.setattr(analytic, "_integrate", counted)
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


def test_alpha_holds_its_tolerance_at_large_k():
    # G^{K-1} from a G rounded near 1 lost the quadrature its tolerance from K ~ 1.2e8
    for m in (2, 4, 16):
        k = 2 * 10**8
        assert alpha(m, k) < alpha(m, 10**8), m
        assert alpha(m, k) <= k / (k * m - 1), m


def _double_loop_coeffs(r: int, k: int) -> dict:
    # sum_{j >= K+1-r} C(K, j) G^j (1 - G)^{K-j}, each (1 - G)^{K-j} expanded
    coeffs: dict = {}
    for j in range(k + 1 - r, k + 1):
        for m in range(0, k - j + 1):
            coeffs[j + m] = coeffs.get(j + m, 0) + math.comb(k, j) * math.comb(k - j, m) * (-1) ** m
    return {n: c for n, c in coeffs.items() if c != 0}


def test_order_stat_power_coeffs_match_the_double_loop_expansion():
    # ascending in n too: _alpha_terms sums in that order
    for k in range(1, 41):
        for r in range(1, k + 1):
            want = sorted(_double_loop_coeffs(r, k).items())
            assert list(_order_stat_power_coeffs(r, k).items()) == want, (r, k)


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
