"""Distribution laws, reciprocal means, and average-power formula tests."""

import collections
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
from sinrmin.errors import BudgetError, ConfigError, DimensionError, DivergenceError, DomainError

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


def test_counts_take_numpy_integers_as_ints_and_refuse_bools():
    # one rule for the specs, the averages and alpha: a NumPy integer is
    # stored as an int, so it shares the stores' keys
    spec = DistributionSpec.norm_order_stat(np.int64(4), np.int32(2), np.uint8(10))
    assert spec == DistributionSpec.norm_order_stat(4, 2, 10)
    assert type(spec.M) is type(spec.r) is type(spec.K) is int
    assert DistributionSpec.sin_sq_angle(np.int16(4), np.int64(1)).i == 1
    want = avg_power_nus(4, 10, 2, GAMMA, SIGMA_SQ)
    assert avg_power_nus(np.int64(4), np.int64(10), np.int8(2), GAMMA, SIGMA_SQ) == want
    assert avg_power_lower_bound_two(np.int64(4), np.int64(10), GAMMA, SIGMA_SQ) == (
        avg_power_lower_bound_two(4, 10, GAMMA, SIGMA_SQ))
    alpha.cache_clear()
    assert alpha(np.int64(4), np.int16(3)) == alpha(4, 3)
    assert alpha.cache_info().currsize == 1
    alpha.cache_clear()
    for bad in ((True, 1, 1), (4, True, 10), (4, 1, np.True_)):
        with pytest.raises(ConfigError, match="must be an integer"):
            DistributionSpec.norm_order_stat(*bad)


@pytest.mark.parametrize("average, counts", [
    (avg_power_nus, (4, 10, 2)),
    (avg_power_sus, (4, 10, 2)),
    (avg_power_rus, (4, 2)),
    (avg_power_aus_two, (4, 10)),
    (avg_power_lower_bound_two, (4, 10)),
], ids=["nus", "sus", "rus", "aus_two", "lower_bound_two"])
@pytest.mark.parametrize("bad", [True, np.True_], ids=["bool", "np.bool_"])
def test_averages_refuse_a_bool_target(average, counts, bad):
    # True once passed as a gamma or sigma_sq of 1
    for targets in ((bad, SIGMA_SQ), (GAMMA, bad)):
        with pytest.raises(ConfigError, match="must be positive and finite"):
            average(*counts, *targets)


@pytest.mark.parametrize("call", [
    lambda: alpha([4], 3),
    lambda: alpha(np.array(4), 3),
    lambda: alpha(4, 3.0),
    lambda: alpha(4, True),
    lambda: mean_inverse("x"),
    lambda: mean_inverse(None),
    lambda: mean_inverse([DistributionSpec.norm_chisq(4)]),
    lambda: mean_inverse_quadrature("x"),
    lambda: cdf(None, 1.0),
    lambda: pdf("x", 1.0),
], ids=["alpha-list", "alpha-array", "alpha-float", "alpha-bool", "mean_inverse-str",
        "mean_inverse-none", "mean_inverse-list", "quadrature-str", "cdf-none", "pdf-str"])
def test_alpha_and_mean_inverse_check_arguments_before_their_stores(call):
    # a list or an array was unhashable in the stores' keys, and a string
    # had no kind; cdf, pdf and the quadrature check their spec alike
    with pytest.raises(ConfigError):
        call()


@pytest.mark.parametrize("f", [cdf, pdf])
@pytest.mark.parametrize("x, error", [
    ("ab", DimensionError), (object(), DimensionError), ([[1, 2], [3]], DimensionError),
    ([1.0, None], DimensionError), (10**400, DimensionError), (1j, DomainError),
    (np.array([1.0, 2.0j]), DomainError),
], ids=["str", "object", "ragged", "none-entry", "huge-int", "complex", "complex-array"])
def test_cdf_and_pdf_reject_bad_x(f, x, error):
    # NumPy's conversion raised a bare ValueError or TypeError, or cast
    # None to nan and dropped the imaginary part
    for spec in (DistributionSpec.norm_chisq(3), DistributionSpec.sin_sq_angle(4, 1)):
        with pytest.raises(error, match="^x must be"):
            f(spec, x)


def test_cdf_and_pdf_take_real_arrays_of_any_numeric_dtype():
    spec = DistributionSpec.norm_order_stat(3, 2, 5)
    want = cdf(spec, np.array([0.5, 2.0]))
    for x in ([0.5, 2.0], np.array([0.5, 2.0], np.float32), (0.5, 2.0)):
        assert np.array_equal(cdf(spec, x), want)
    assert cdf(spec, np.array([1, 2], np.int8)).tolist() == cdf(spec, [1.0, 2.0]).tolist()
    assert pdf(spec, 2) == pdf(spec, 2.0)


def test_pdf_forms_each_rank_binomial_once(monkeypatch):
    formed = []
    comb = math.comb

    def counted(n, k):
        formed.append((n, k))
        return comb(n, k)

    analytic._log_rank_coef.cache_clear()
    monkeypatch.setattr(analytic.math, "comb", counted)
    spec = DistributionSpec.norm_order_stat(4, 3000, 6000)
    first = pdf(spec, 3.67)
    assert pdf(spec, 3.67) == first and pdf(spec, [3.0, 4.0])[0] == pdf(spec, 3.0)
    assert formed.count((6000, 3000)) == 1
    monkeypatch.undo()
    analytic._log_rank_coef.cache_clear()
    assert pdf(spec, 3.67) == first  # the same bits as formed afresh


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


def _refuse(*args):
    raise AssertionError("priced")


def test_order_stat_with_both_sides_huge_is_refused_before_any_alpha(monkeypatch):
    # the combination would take 5e17 alphas, and the tail bound of the
    # quadrature sums the shorter side, 5e17 terms a point; the density's
    # C(K, r) has about 3e17 digits
    monkeypatch.setattr(analytic, "alpha", _refuse)
    spec = DistributionSpec.norm_order_stat(2, 5 * 10**17, 10**18)
    for call in (mean_inverse, mean_inverse_quadrature):
        with pytest.raises(BudgetError, match=r"would sum 500000000000000000 terms, past 10000$"):
            call(spec)
    with pytest.raises(BudgetError, match=r"would have up to 3.68e\+17 digits, past 1000000$"):
        pdf(spec, 1.0)


def test_pdf_forms_a_binomial_whose_tail_is_past_the_term_bound():
    # pdf sums no tail: C(40000, 20000), of 12,040 digits, is formed, and
    # the density is r C(K, r) G^(K-r) (1 - G)^(r-1) times the parent's
    spec = DistributionSpec.norm_order_stat(4, 20000, 40000)
    with pytest.raises(BudgetError, match="past 10000"):
        mean_inverse_quadrature(spec)
    x = 3.67  # near the Gamma(4, 1) median, where the density peaks
    log_ref = (math.log(20000 * math.comb(40000, 20000)) + 20000 * math.log(gammainc(4, x))
               + 19999 * math.log(gammaincc(4, x)) + 3 * math.log(x) - x - math.log(6))
    assert pdf(spec, x) == pytest.approx(math.exp(log_ref), rel=1e-9)


def test_combination_is_refused_from_r_and_k_only_where_it_cancels():
    # the bound behind _combination_cancels: wherever it refuses, the
    # combination built in full fails mean_inverse's test, at any M
    refused = 0
    for k in (31, 40, 64):
        for r in range(2, k + 1):
            if not analytic._combination_cancels(r, k):
                continue
            refused += 1
            for m in (2, 3, 4, 8, 16):
                terms = _alpha_terms(m, r, k)
                rounding = sum(abs(t) for t in terms) * _EPS
                assert rounding > analytic._QUAD_REL * float(sum(terms)), (m, r, k)
    assert refused
    # the bound rises with r, so no more than 36 alphas are built below it
    assert not analytic._combination_cancels(2, 10**18)
    assert analytic._combination_cancels(37, 10**100)


def test_mean_inverse_single_dim_order_stat():
    # a one-dimensional norm with enough competitors converges even though
    # the single-user law does not
    spec = DistributionSpec.norm_order_stat(1, 4, 5)
    val = mean_inverse(spec)
    assert np.isfinite(val) and val > 0


_EPS = np.finfo(float).eps
_ORDER_STATS = [(m, r, k) for m in range(1, 9) for k in range(1, 25) for r in range(1, k + 1)]


def test_order_stat_pdf_matches_the_scalar_reference():
    # pdf against the tests' scalar density on _log_cdfs, which sums the same
    # logs of the coefficient, the powers and the parent density in another
    # order: each value carries about as many roundings as those terms are
    # large. Subnormal values hold fewer digits
    ts = np.logspace(-3, 2, 161)
    for m in range(1, 9):
        log_g, log_q = np.array([_log_cdfs(m, t) for t in ts]).T
        for _, r, k in (s for s in _ORDER_STATS if s[0] == m):
            got = pdf(DistributionSpec.norm_order_stat(m, r, k), ts)
            ref = np.array([_order_stat_density(m, r, k, t) for t in ts])
            roundings = (4.0 + math.log(r * math.comb(k, r)) + ts + (m - 1) * np.abs(np.log(ts))
                         + (k - r) * np.abs(log_g) + (r - 1) * np.abs(log_q))
            normal = ref >= np.finfo(float).tiny
            ulps = np.abs(got - ref)[normal] / ref[normal] / _EPS
            assert np.all(ulps <= 4.0 * roundings[normal]), (m, r, k)


def test_pdf_upper_tail_keeps_its_digits():
    # where G rounds to 1, 1 - G from G lost every digit of the first and 4.5%
    # of the second. The references are mpmath's at 60 digits
    refs = [(DistributionSpec.norm_order_stat(6, 7, 24), 52.33, 1.4322819197419805e-107),
            (DistributionSpec.norm_not_largest(4, 10), 45.0, 2.0217589230444981e-30)]
    for spec, x, ref in refs:
        assert abs(pdf(spec, x) - ref) <= 1e-12 * ref, spec


@pytest.mark.parametrize("spec", [DistributionSpec.norm_chisq(4),
                                  DistributionSpec.norm_order_stat(4, 2, 10),
                                  DistributionSpec.norm_not_largest(4, 10)])
def test_squared_norm_pdf_is_zero_at_the_ends(spec):
    # -t + (M-1) log t is -inf + inf at +inf; pyproject turns the warning into an error
    assert pdf(spec, np.inf) == 0.0
    assert np.array_equal(pdf(spec, [-np.inf, -1.0, 0.0, np.inf]), np.zeros(4))


def test_gamma_cdf_logs_take_each_side_from_the_one_below_a_half():
    # log G from G and log(1 - G) from 1 - G while G < 1/2; past that both
    # come from Q, so log G stays nonzero where G has rounded to 1. SciPy's
    # side below 1/2 is the reference, to a few ulps plus its own rounding:
    # it forms each side as the exp of a sum of x, (M-1) log x and log (M-1)!
    xs = np.concatenate((np.logspace(-3, 2, 121), [200.0, 700.0, 800.0]))
    tiny = np.finfo(float).tiny
    for m in (1, 2, 4, 16, 64):
        g, q = gammainc(m, xs), gammaincc(m, xs)
        log_g, log_q = analytic._gamma_cdf_logs(m, xs)
        below = g < 0.5
        side = np.where(below, g, q)
        normal = side >= tiny
        log_side = np.log(side[normal])
        log_rest = np.log1p(-side[normal])
        ulps = (4.0 + xs[normal] + (m - 1) * np.abs(np.log(xs[normal])) + math.lgamma(m)
                + np.abs(log_side))
        got_side = np.where(below, log_g, log_q)[normal]
        got_rest = np.where(below, log_q, log_g)[normal]
        assert np.all(np.abs(got_side - log_side) <= ulps * _EPS), m
        assert np.all(np.abs(got_rest - log_rest) <= ulps * _EPS * np.abs(log_rest)), m
        assert np.all(log_g[~below & (q > 0.0)] < 0.0), m
        # a Q below the normal range counts as the smallest normal
        assert np.all(log_q[q < tiny] == np.log(tiny)), m


@pytest.mark.parametrize("m, x, ref", [
    # P of Gamma(M, 1) below x = M and Q from there, mpmath's gammainc at 50
    # digits: about M, near where e^-x leaves the normal floats, and past it
    (1, 0.5, 0.3934693402873665764),
    (1, 2.0, 0.13533528323661269189),
    (1, 700.0, 9.8596765437597708567e-305),
    (4, 1.0, 0.018988156876153809079),
    (4, 4.0, 0.43347012036670893362),
    (4, 708.0, 1.9647027903975222871e-300),
    (64, 50.0, 0.031843441750738075584),
    (64, 70.0, 0.22090730754116029992),
    (64, 708.0, 6.527894509745744312e-216),
    (64, 900.0, 9.6936103096454093104e-293),
    (128, 100.0, 0.0039946202940355885144),
    (128, 128.0, 0.48824554909587709949),
    (128, 140.0, 0.14492251808246528878),
    (128, 708.0, 1.2035797098698549065e-159),
    (128, 1000.0, 1.9296633753383650048e-267),
    # past _LINEAR_M the density is formed in logs and its sum term by term,
    # which adds about |x - M| + sqrt(M) ulps
    (200, 186.0, 0.16100729256569677294),
    (200, 214.0, 0.160796694025947768),
    (1000, 968.0, 0.15568315249955535728),
    (1000, 1000.0, 0.4957947558197844915),
    (1000, 1032.0, 0.1558059888290624762),
])
def test_gamma_tails_match_mpmath(m, x, ref):
    ulps = 8.0 + (abs(x - m) + math.sqrt(m) if m > analytic._LINEAR_M else 0.0)
    t, low = analytic._gamma_side(m, np.array([x]))
    assert low[0] == (x < m)
    assert abs(t[0] - ref) <= ulps * np.spacing(ref)
    p, q = analytic._gamma_pq_at(m, x)
    assert abs((p if x < m else q) - ref) <= ulps * np.spacing(ref)


@pytest.mark.parametrize("x, r, k, ref", [
    # P(at least r of K successes at x), mpmath's sum of the r terms below at
    # 60 digits. SciPy 1.17's betainc(4, 1e8 - 3, 4.734e-8) is 0.6956345537
    (4.734e-8, 4, 10**8, 0.69563455274717016467),
    (1e-8, 1, 10**8, 0.63212056066795489962),
    (3e-8, 8, 10**8, 0.011904502560115510441),
    (2.5e-18, 2, 10**18, 0.71270250481635425399),
    (4e-18, 4, 10**18, 0.56652987963329112268),
    (1.5e-17, 20, 10**18, 0.1247812150325248379),
    (1e-19, 1, 10**18, 0.0951625819640404246),
    # below 1/2 the complement would keep only an absolute few eps, so the
    # tail is summed up from r: mpmath's sum of the terms above at 60 digits
    (1e-8, 2, 10**6, 0.00004966786433279846881),
    (1e-9, 3, 10**6, 1.6654121740261295291e-10),
    (2e-8, 5, 10**8, 0.052653015539240699318),
    (1e-19, 3, 10**18, 0.00015465307026467164188),
    (1e-3, 40, 10**4, 7.025288522156329686e-13),
])
def test_binomial_tail_matches_mpmath_at_large_k(x, r, k, ref):
    # I_x(r, K+1-r) sums the r-term complement, or the tail itself where
    # that is below 1/2; I_{1-x}(K+1-r, r), the same chance from the other
    # side, sums its r terms directly
    assert abs(analytic._beta_cdf(x, 1.0 - x, r, k + 1 - r) - ref) <= 1e-12 * ref
    assert abs(analytic._beta_cdf(1.0 - x, x, k + 1 - r, r) - (1.0 - ref)) <= 1e-12 * (1.0 - ref)


@pytest.mark.parametrize("spec", [
    DistributionSpec.norm_order_stat(4, 500_000, 10**6),
    DistributionSpec.norm_order_stat(2, 5 * 10**17, 10**18),
    DistributionSpec.sin_sq_angle(10**6, 500_000),
])
def test_binomial_tail_refuses_more_terms_than_its_bound(spec):
    # both sides of these tails are past _MAX_TERMS terms a point: refused
    # before the first, where summing them would take minutes or forever
    with pytest.raises(BudgetError, match=f"past {analytic._MAX_TERMS}"):
        cdf(spec, 0.5)


def test_binomial_tail_ends():
    # I_0 = 0 and I_1 = 1 exactly, from either side
    for a, b in ((1, 1), (3, 1), (1, 3), (4, 7)):
        assert analytic._beta_cdf(0.0, 1.0, a, b) == 0.0
        assert analytic._beta_cdf(1.0, 0.0, a, b) == 1.0


def test_order_stat_tail_is_the_mass_above_the_limit():
    # I_Q(r, K+1-r) against 1 - I_G(K+1-r, r), which rounds to an absolute
    # few eps; the tail takes Q from the scalar head, the CDF from the array
    # kernel. The chi-square's is Q, and a non-largest's at least its own mass
    for m, r, k in _ORDER_STATS:
        spec = DistributionSpec.norm_order_stat(m, r, k)
        if analytic._divergence_exponent(spec) < 1:
            continue
        _, tail = analytic._norm_law("norm_order_stat", m, r, (k,))
        us = np.array([0.25, 1.0, 4.0] + [(8.0 * m + 8.0) * 2**j for j in range(4)])
        got = np.array([tail(u)[0] for u in us])
        assert np.all(np.abs(got - (1.0 - cdf(spec, us)) / us) * us <= 64 * _EPS), (m, r, k)
        if r == 1:
            not_largest = DistributionSpec.norm_not_largest(m, k + 1)
            _, chisq_tail = analytic._norm_law("norm_chisq", m, 0, (0,))
            _, not_largest_tail = analytic._norm_law("norm_not_largest", m, 0, (k + 1,))
            for u in us:
                assert abs(chisq_tail(u)[0] * u - gammaincc(m, u)) <= 64 * _EPS, (m, u)
                assert not_largest_tail(u)[0] * u >= 1.0 - cdf(not_largest, u) - 64 * _EPS, (m, k, u)


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
    law = analytic._norm_law

    def counted_law(*args):
        log_density, tail = law(*args)

        def counted(t):
            nodes.append((len(pieces) - 1, t.size, t.min(), t.max()))
            return log_density(t)

        return counted, tail

    def recorded(integrand, lower, upper, what):
        pieces.append((lower, upper))
        return integrate(integrand, lower, upper, what)

    monkeypatch.setattr(analytic, "_norm_law", counted_law)
    monkeypatch.setattr(analytic, "_integrate", recorded)
    value = mean_inverse_quadrature(DistributionSpec.norm_order_stat(2, 2, 10**18))
    assert pieces == [(0.0, 24.0), (24.0, 48.0), (48.0, 96.0)]
    # every evaluation lies inside the piece being integrated, and each piece
    # takes as many as integrating it alone does
    for piece, _, lo, hi in nodes:
        assert pieces[piece][0] < lo and hi < pieces[piece][1], (piece, lo, hi)
    log_density, _ = law("norm_order_stat", 2, 2, (10**18,))
    for i, (lower, upper) in enumerate(pieces):
        alone = []
        integrate(lambda t: alone.append(t.size) or np.exp(log_density(t)) / t, lower, upper, "x")
        assert sum(alone) == sum(n for piece, n, _, _ in nodes if piece == i), (lower, upper)
    ref = 0.022304443712853929536  # mpmath's at 50 digits
    assert abs(value - ref) <= 1e-12 * ref


def test_integrate_is_exact_on_polynomials_of_the_rule_degree():
    # the 20-point rule integrates degree 39 exactly, so the first panels pass
    value = analytic._integrate(lambda t: t**39, 0.0, 2.0, "x")
    assert value == pytest.approx(2.0**40 / 40, rel=1e-14)
    assert analytic._integrate(lambda t: 3.0 * t**2, 1.0, 4.0, "x") == pytest.approx(63.0, rel=1e-14)


def test_functions_integrated_together_take_the_nodes_they_take_alone():
    # two peaks split different panels, level by level; each is evaluated at
    # the very node arrays it takes alone, so no integrand whose rounding
    # depends on the nodes taken with a node can move its bits
    peaks = (lambda t: 1.0 / (1e-4 + (t - 0.3) ** 2), lambda t: 1.0 / (1e-4 + (t - 0.7) ** 2))

    def recorded(calls, functions):
        def integrand(t):
            calls.append(t.tobytes())
            return np.stack([f(t) for f in functions])
        return integrand

    together = []
    values = analytic._integrate(recorded(together, peaks), 0.0, 1.0, "x")
    for peak, value in zip(peaks, values):
        alone = []
        assert analytic._integrate(recorded(alone, (peak,)), 0.0, 1.0, "x")[0] == value
        assert set(alone) <= set(together) and len(alone) > 3
    assert len(together) > len(alone)


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


@functools.lru_cache(maxsize=4096)
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


def _order_stat_density(m: int, r: int, k: int, t: float) -> float:
    # r C(K, r) G^{K-r} (1 - G)^{r-1} times the Gamma(M, 1) density, in logs
    log_g, log_q = _log_cdfs(m, t)
    exponent = math.log(r * math.comb(k, r)) - gammaln(m) - t + (m - 1) * math.log(t)
    exponent += ((k - r) * log_g if k > r else 0.0) + ((r - 1) * log_q if r > 1 else 0.0)
    return math.exp(exponent)


def _order_stat_reference(m: int, r: int, k: int) -> float:
    return _quad_reference(lambda t: _order_stat_density(m, r, k, t) / t, m,
                           lambda u: float(betainc(r, k + 1 - r, gammaincc(m, u))) / u)


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


def _first_limit(m: int, n: int) -> float:
    # the limit alpha(m, n) alone doubles to from 8M + 8 before it integrates:
    # the first whose tail is within 1e-12 of alpha's bound n / (nM - 1)
    tail = analytic._norm_law("norm_order_stat", m, 1, (n,))[1]
    upper, bound = 8.0 * m + 8.0, 1.01 * analytic._TAIL_FRACTION * n / (n * m - 1)
    while tail(upper)[0] > bound and upper <= 1e6:
        upper *= 2.0
    return upper


def test_alpha_integrates_once(monkeypatch):
    # each n of a block integrates once, on [0, the limit its own doubling
    # loop ends on], with the n of the block that share that limit
    calls = []
    integrate = analytic._integrate

    def counted(integrand, lower, upper, what):
        value = integrate(integrand, lower, upper, what)
        calls.append((lower, upper, np.size(value)))
        return value

    monkeypatch.setattr(analytic, "_integrate", counted)
    split = 0
    for m in range(2, 17):
        for first in range(1, 65, analytic._ALPHA_BLOCK):
            alpha.cache_clear()
            calls.clear()
            alpha(m, first)
            limits = collections.Counter(
                _first_limit(m, n) for n in range(first, first + analytic._ALPHA_BLOCK))
            want = sorted((0.0, u, count) for u, count in limits.items())
            assert sorted(calls) == want, (m, first)
            split += len(limits) > 1
    assert split  # n = 1..8 at M = 3 start from 32 and 64
    alpha.cache_clear()


def _lone_alpha(m: int, n: int) -> float:
    # alpha(m, n) integrated alone, as before blocks
    log_density, tail = analytic._norm_law("norm_order_stat", m, 1, (n,))
    upper = _first_limit(m, n)
    value = analytic._quad_to_tail(lambda t: np.exp(log_density(t)) / t, upper, tail, "x")
    return float(value[0])


@pytest.mark.parametrize("m", range(2, 17))
def test_block_alphas_equal_lone_integrals_bitwise(m):
    # a block integrates its n at shared nodes; each keeps the bits of its
    # lone integral, whichever n asks first and whatever the store holds
    ks = list(range(1, 65)) + [10**e for e in range(3, 19)]
    want = [_lone_alpha(m, k).hex() for k in ks]
    for order in (1, -1, 1):
        alpha.cache_clear()
        got = {k: alpha(m, k) for k in ks[::order]}
        assert [got[k].hex() for k in ks] == want, order
    alpha.cache_clear()


def test_alphas_keep_the_bits_of_one_n_integrals():
    # alpha's values at the last commit that integrated one n at a time, but
    # (3, 2), 1 ulp nearer 5/16 now that P's series is summed along each
    # point's row, and (200, 5), within 2e-16 of mpmath (3e-14 before) now
    # that the density past _LINEAR_M is centred
    parent = {(2, 1): "0x1.ffffffffffff3p-1", (3, 2): "0x1.4000000000005p-2",
              (4, 7): "0x1.377e4b3502db9p-3", (8, 64): "0x1.016c71aecf7b5p-4",
              (200, 5): "0x1.2f0fd66cda56fp-8", (2, 10**9): "0x1.4ec4e6f8b87e9p-5",
              (16, 10**18): "0x1.9966885c260e7p-7"}
    alpha.cache_clear()
    for (m, k), value in parent.items():
        assert alpha(m, k).hex() == value, (m, k)
    alpha.cache_clear()


def test_alpha_whose_block_fails_is_integrated_alone(monkeypatch):
    # a block may lose the tolerance where one of its n alone holds it (at
    # M = 10,000 alpha(M, 1) did, before the density past _LINEAR_M was
    # centred): another n's failure must not be K's
    block = analytic._alpha_block

    def failing(m, ns, what):
        if len(ns) > 1:
            raise ArithmeticError("quadrature lost its tolerance")
        return block(m, ns, what)

    alpha.cache_clear()
    monkeypatch.setattr(analytic, "_alpha_block", failing)
    assert alpha(4, 3).hex() == _lone_alpha(4, 3).hex()
    assert alpha.cache_info().currsize == 1
    alpha.cache_clear()


def test_failed_block_is_not_integrated_again(monkeypatch):
    # the block's failure is stored, and so is each n integrated alone: a
    # second call integrates nothing, a third n of the block only itself
    block, calls = analytic._alpha_block, []

    def failing(m, ns, what):
        calls.append(ns)
        if len(ns) > 1:
            raise ArithmeticError("quadrature lost its tolerance")
        return block(m, ns, what)

    alpha.cache_clear()
    monkeypatch.setattr(analytic, "_alpha_block", failing)
    first = alpha(4, 3)
    assert calls == [tuple(range(1, 9)), (3,)]
    assert alpha(4, 3) == first and len(calls) == 2
    alpha(4, 5)
    assert calls[2:] == [(5,)]
    info = alpha.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 1, 1)
    alpha.cache_clear()


def test_alpha_cache_info_counts_hits_and_misses():
    alpha.cache_clear()
    assert alpha.cache_info()[:2] == (0, 0)
    alpha(4, 3)  # a miss integrates the block n = 1..8
    alpha(4, 3)
    alpha(4, 8)
    alpha(4, 9)  # n = 9..16
    info = alpha.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 2, 2)
    alpha.cache_clear()
    assert alpha.cache_info()[:2] == (0, 0) and alpha.cache_info().currsize == 0


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


def test_avg_power_nus_names_a_divergent_term_before_pricing_any(monkeypatch):
    # term 1 is the billionth largest of 1e18 norms, which took a billion
    # alphas before the angle of term 4 could diverge
    monkeypatch.setattr(analytic, "alpha", _refuse)
    monkeypatch.setattr(analytic, "mean_inverse_quadrature", _refuse)
    with pytest.raises(DivergenceError, match=r"^NUS term i=4 diverges: .* for sin_sq_angle"):
        avg_power_nus(4, 10**18, 10**9, GAMMA, SIGMA_SQ)
    with pytest.raises(DivergenceError, match=r"^NUS term i=1 diverges: .* for norm_order_stat"):
        avg_power_nus(1, 5, 5, GAMMA, SIGMA_SQ)
    with pytest.raises(DivergenceError, match=r"^NUS term i=2 diverges: .* fills C\^1"):
        avg_power_nus(1, 5, 4, GAMMA, SIGMA_SQ)


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


@pytest.mark.parametrize("func, args", [
    (avg_power_nus, (4, None, 2, GAMMA, SIGMA_SQ)),
    (avg_power_nus, (4, 10, True, GAMMA, SIGMA_SQ)),
    (avg_power_sus, (4, 8, 1.5, GAMMA, SIGMA_SQ)),
    (avg_power_sus, (4.0, 8, 2, GAMMA, SIGMA_SQ)),
    (avg_power_rus, (4, "2", GAMMA, SIGMA_SQ)),
    (avg_power_aus_two, ("x", 8, GAMMA, SIGMA_SQ)),
    (avg_power_aus_two, (4, False, GAMMA, SIGMA_SQ)),
    (avg_power_lower_bound_two, (4, 8, "x", SIGMA_SQ)),
    (avg_power_lower_bound_two, (4, 8, GAMMA, None)),
])
def test_avg_power_rejects_non_numbers(func, args):
    with pytest.raises(ConfigError):
        func(*args)


_GAMMA_KERNEL_CALLS = {
    "nus": lambda m: avg_power_nus(m, 10, 2, GAMMA, SIGMA_SQ),
    "sus": lambda m: avg_power_sus(m, 10, 2, GAMMA, SIGMA_SQ),
    "aus_two": lambda m: avg_power_aus_two(m, 8, GAMMA, SIGMA_SQ),
    "lower_bound_two": lambda m: avg_power_lower_bound_two(m, 8, GAMMA, SIGMA_SQ),
    "alpha": lambda m: alpha(m, 4),
    "cdf": lambda m: cdf(DistributionSpec.norm_chisq(m), float(m)),
    "pdf": lambda m: pdf(DistributionSpec.norm_order_stat(m, 1, 3), float(m)),
    "quadrature": lambda m: mean_inverse_quadrature(DistributionSpec.norm_chisq(m)),
}


@pytest.mark.parametrize("m", [analytic._MAX_M + 1, 10**30])
@pytest.mark.parametrize("call", _GAMMA_KERNEL_CALLS.values(), ids=_GAMMA_KERNEL_CALLS)
def test_m_past_the_gamma_kernel_bound_is_refused_before_it_runs(monkeypatch, call, m):
    # the kernel takes about 9 sqrt(M) terms a point, so past _MAX_M it is
    # refused, with an error the CLI reports rather than a missing closed form
    def refuse(*args):
        raise AssertionError("the Gamma kernel ran")

    monkeypatch.setattr(analytic, "_gamma_side", refuse)
    with pytest.raises(BudgetError, match=f"M <= {analytic._MAX_M}"):
        call(m)


@pytest.mark.parametrize("m", [200, 10**30])
def test_closed_forms_take_any_m(m):
    # the chi-square's and the sine laws' reciprocal means need no kernel
    assert avg_power_rus(m, 2, GAMMA, SIGMA_SQ) == pytest.approx(
        GAMMA * SIGMA_SQ / (m - 1) * (1.0 + (m - 1) / (m - 2)), rel=1e-12)
    assert mean_inverse(DistributionSpec.sin_sq_angle(m, 1)) == (m - 1) / (m - 2)
    assert mean_inverse(DistributionSpec.norm_chisq(m)) == 1.0 / (m - 1)


@pytest.mark.parametrize("m", [analytic._LINEAR_M, analytic._LINEAR_M + 1, 200])
def test_m_about_the_linear_bound_matches_a_quad_reference(m):
    # at M = _LINEAR_M the head has 128 terms, and past x = 708 e^-x is no
    # longer a normal float: quadrature limits reach 8M + 8 = 1032. Past it
    # the kernel forms the density in logs
    for k in (1, 4, 16):
        ref = _alpha_reference(m, k)
        assert abs(alpha(m, k) - ref) <= 1e-12 * ref, k
    alpha.cache_clear()


@pytest.mark.parametrize("call, parent", [
    # the values of scipy's gammainc, gammaincc and betainc, at the last
    # commit that evaluated the laws with them
    (lambda: avg_power_nus(200, 10, 2, GAMMA, SIGMA_SQ), 0.009200743715963503),
    (lambda: avg_power_sus(200, 10, 2, GAMMA, SIGMA_SQ), 0.009200710099319463),
    (lambda: avg_power_aus_two(1000, 8, GAMMA, SIGMA_SQ), 0.001964290031026474),
    (lambda: avg_power_lower_bound_two(1000, 8, GAMMA, SIGMA_SQ), 0.0019309820412947865),
    (lambda: avg_power_nus(1000, 10, 2, GAMMA, SIGMA_SQ), 0.0019238025003405247),
])
def test_averages_past_the_linear_bound_keep_their_values(call, parent):
    assert call() == pytest.approx(parent, rel=1e-12)


@pytest.mark.parametrize("spec", [
    DistributionSpec.norm_chisq(m) for m in (2, 3, 4, 5, 8, 16, 64)] + [
    DistributionSpec.norm_order_stat(4, 2, 9), DistributionSpec.norm_not_largest(8, 12)])
def test_array_cdf_and_pdf_equal_their_pointwise_values(spec):
    # P's series below x = M is summed along each point's own row: no point's
    # value depends on what else its array holds, whatever the array's length
    xs = np.random.default_rng(spec.M).uniform(0.0, 2.0 * spec.M, 203)
    for f in (cdf, pdf):
        lone = np.array([f(spec, x) for x in xs])
        for cut in (203, 64, 7, 1):
            got = np.concatenate([f(spec, xs[i : i + cut]) for i in range(0, 203, cut)])
            assert got.tobytes() == lone.tobytes(), (f.__name__, cut)


def test_alpha_keeps_its_digits_at_ten_thousand_antennas():
    # past _LINEAR_M the density is centred at its mode; formed as
    # (M-1) log x - x - lgamma(M), its rounding failed the quadrature at 1,024
    # panels here. The reference is mpmath's
    alpha.cache_clear()
    assert alpha(10_000, 10) == pytest.approx(9.848239974902801e-05, rel=1e-12)
    alpha.cache_clear()


def test_kernel_averages_are_finite_at_the_largest_m():
    m = analytic._MAX_M
    for value in (avg_power_nus(m, 10, 2, GAMMA, SIGMA_SQ),
                  avg_power_sus(m, 10, 2, GAMMA, SIGMA_SQ),
                  avg_power_aus_two(m, 10, GAMMA, SIGMA_SQ),
                  avg_power_lower_bound_two(m, 10, GAMMA, SIGMA_SQ)):
        assert 0.0 < value < math.inf
    alpha.cache_clear()


def test_scaling_in_gamma_and_sigma():
    base = avg_power_sus(4, 10, 2, 1.0, 1.0)
    assert avg_power_sus(4, 10, 2, 7.0, 1.0) == pytest.approx(7 * base, rel=1e-12)
    assert avg_power_sus(4, 10, 2, 1.0, 0.3) == pytest.approx(0.3 * base, rel=1e-12)
