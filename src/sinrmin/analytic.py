r"""Closed-form and quadrature evaluation of average minimum transmit power.

For i.i.d. CN(0, 1) channel entries, the approximate per-position power
sigma^2 * gamma / (||h||^2 sin^2 theta) averages into products of two
reciprocal means: one over a squared-norm law (possibly an order
statistic over K users) and one over the squared sine of the angle to an
independent subspace.  This module provides those laws, their reciprocal
means, and the per-algorithm sums built from them.

Everything here is exact analysis or deterministic quadrature; Monte
Carlo estimation lives in ``experiment``.
"""

import math
from contextlib import suppress
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import betainc, betaln, gammainc, gammaincc, gammaln

from .errors import ConfigError, DivergenceError

# quadrature targets: relative tolerance of each integral, and the largest
# fraction of the running total the discarded upper tail may contribute
_QUAD_REL = 1e-10
_TAIL_FRACTION = 1e-12
_EPS, _TINY = float(np.finfo(float).eps), float(np.finfo(float).tiny)
# composite Gauss-Legendre: the 20-point rule on [0, 1], the panels an
# integral starts with, the most it may hold (a bound on its time and
# memory), and an agreement that keeps a panel whatever its share: the
# integrands are exps of sums of logs up to ~1e3, with that many roundings
_UNIT_NODES, _HALF_WEIGHTS = (x / 2.0 for x in np.polynomial.legendre.leggauss(20))
_UNIT_NODES += 0.5
_START_PANELS, _MAX_PANELS, _ROUNDOFF = 8, 1024, 2.0**12 * _EPS

_KINDS = (
    "norm_chisq",
    "norm_order_stat",
    "norm_not_largest",
    "sin_sq_angle",
    "sin_sq_angle_max",
)


@dataclass(frozen=True)
class DistributionSpec:
    """One of the scalar laws used by the average-power formulas.

    kind              meaning of x
    ----------------  ------------------------------------------------------
    norm_chisq        ||h||^2 of one user, h in C^M (Gamma(M, 1))
    norm_order_stat   r-th largest among K i.i.d. ||h||^2 values
    norm_not_largest  ||h||^2 of a user drawn uniformly among the K - 1
                      users that do not attain the maximum
    sin_sq_angle      sin^2 of the angle between h and an independent
                      i-dimensional subspace (Beta(M - i, i))
    sin_sq_angle_max  largest among K i.i.d. sin_sq_angle values with i = 1
    """

    kind: str
    M: int
    r: int = 0
    K: int = 0
    i: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown distribution kind {self.kind!r}")
        for name in ("M", "r", "K", "i"):
            value = getattr(self, name)
            if not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.M < 1:
            raise ConfigError(f"M must be >= 1, got {self.M}")
        if self.kind == "norm_order_stat" and not 1 <= self.r <= self.K:
            raise ConfigError(f"need 1 <= r <= K, got r={self.r}, K={self.K}")
        if self.kind == "norm_not_largest" and self.K < 2:
            raise ConfigError(f"need K >= 2, got K={self.K}")
        if self.kind == "sin_sq_angle" and not 1 <= self.i <= self.M - 1:
            raise ConfigError(f"need 1 <= i <= M - 1, got i={self.i}, M={self.M}")
        if self.kind == "sin_sq_angle_max":
            if self.K < 1:
                raise ConfigError(f"need K >= 1, got K={self.K}")
            if self.M < 2:
                raise ConfigError(f"need M >= 2, got M={self.M}")

    # --- constructors ---

    @classmethod
    def norm_chisq(cls, M: int) -> "DistributionSpec":
        return cls("norm_chisq", M)

    @classmethod
    def norm_order_stat(cls, M: int, r: int, K: int) -> "DistributionSpec":
        return cls("norm_order_stat", M, r=r, K=K)

    @classmethod
    def norm_not_largest(cls, M: int, K: int) -> "DistributionSpec":
        return cls("norm_not_largest", M, K=K)

    @classmethod
    def sin_sq_angle(cls, M: int, i: int) -> "DistributionSpec":
        return cls("sin_sq_angle", M, i=i)

    @classmethod
    def sin_sq_angle_max(cls, M: int, K: int) -> "DistributionSpec":
        return cls("sin_sq_angle_max", M, K=K)


def cdf(spec: DistributionSpec, x) -> "float | np.ndarray":
    """Cumulative distribution function, vectorized over x.

    Arguments below the support clamp to 0 and above it to 1.
    """
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)
    if spec.kind in ("sin_sq_angle", "sin_sq_angle_max"):
        t = np.clip(xs, 0.0, 1.0)
        if spec.kind == "sin_sq_angle":
            out = betainc(spec.M - spec.i, spec.i, t)
        else:
            out = t ** (spec.K * (spec.M - 1))
    else:
        t = np.maximum(xs, 0.0)
        g = gammainc(spec.M, t)
        if spec.kind == "norm_chisq":
            out = g
        elif spec.kind == "norm_not_largest":
            out = (spec.K * g - g**spec.K) / (spec.K - 1)
        else:  # r-th largest of K is <= x iff at least K + 1 - r are: a binomial tail
            out = betainc(spec.K + 1 - spec.r, spec.r, g)
    return float(out[0]) if scalar else out


def pdf(spec: DistributionSpec, x) -> "float | np.ndarray":
    """Probability density, vectorized over x; zero outside the support."""
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs).astype(float)
    out = np.zeros_like(xs)
    if spec.kind in ("sin_sq_angle", "sin_sq_angle_max"):
        inside = (xs >= 0.0) & (xs <= 1.0)
        t = xs[inside]
        if spec.kind == "sin_sq_angle":
            a, b = spec.M - spec.i, spec.i
            out[inside] = t ** (a - 1) * (1.0 - t) ** (b - 1) / math.exp(betaln(a, b))
        else:
            n = spec.K * (spec.M - 1)
            out[inside] = n * t ** (n - 1)
    else:
        inside = xs > 0.0
        t = xs[inside]
        parent = np.exp(-t + (spec.M - 1) * np.log(t) - gammaln(spec.M))
        if spec.kind == "norm_chisq":
            out[inside] = parent
        elif spec.kind == "norm_not_largest":
            g = gammainc(spec.M, t)
            out[inside] = spec.K / (spec.K - 1) * (1.0 - g ** (spec.K - 1)) * parent
        else:
            r, K = spec.r, spec.K
            g = gammainc(spec.M, t)
            coef = r * math.comb(K, r)
            out[inside] = coef * g ** (K - r) * (1.0 - g) ** (r - 1) * parent
        if spec.kind == "norm_chisq" and spec.M == 1:
            out[xs == 0.0] = 1.0
    return float(out[0]) if scalar else out


def _divergence_exponent(spec: DistributionSpec) -> int:
    # density behaves like c * x^s near the lower end of the support;
    # E[1/x] is finite iff s >= 1
    if spec.kind == "norm_chisq":
        return spec.M - 1
    if spec.kind == "norm_order_stat":
        return spec.M * (spec.K + 1 - spec.r) - 1
    if spec.kind == "norm_not_largest":
        return spec.M - 1
    if spec.kind == "sin_sq_angle":
        return spec.M - spec.i - 1
    return spec.K * (spec.M - 1) - 1


def _describe(spec: DistributionSpec) -> str:
    # M and the parameters the kind takes, which are the nonzero ones
    parts = ", ".join(f"{n}={getattr(spec, n)}" for n in ("M", "r", "K", "i")
                      if n == "M" or getattr(spec, n))
    return f"{spec.kind} with {parts}"


def _check_integrable(spec: DistributionSpec) -> None:
    s = _divergence_exponent(spec)
    if s < 1:
        raise DivergenceError(
            f"E[1/x] diverges for {_describe(spec)}: density ~ x^{s} near the lower end")


def _integrate(integrand, lower: float, upper: float, what) -> float:
    # composite Gauss-Legendre on [lower, upper]. Each panel's rule is checked
    # against the sum of the rule on its two halves; the halves are kept when
    # the two agree to the panel's share of the tolerance, or to the rounding
    # of the integrand values, and each half becomes a panel otherwise
    def rule(left, width):  # on each panel [left, left + width]
        return width * (integrand(left[..., None] + width * _UNIT_NODES) @ _HALF_WEIGHTS)

    width = (upper - lower) / _START_PANELS
    left = lower + width * np.arange(_START_PANELS)
    whole, kept = rule(left, width), []
    while len(kept) + left.size <= _MAX_PANELS:
        width *= 0.5
        left = left[:, None] + np.array([0.0, width])
        halves = rule(left, width)
        pair = halves.sum(axis=1)
        share = _QUAD_REL * (math.fsum(kept) + float(pair.sum())) * 2.0 * width / (upper - lower)
        done = np.abs(whole - pair) <= np.maximum(share, _ROUNDOFF * np.abs(pair))
        kept += pair[done].tolist()
        if done.all():
            return math.fsum(kept)
        left, whole = left[~done].ravel(), halves[~done].ravel()
    raise ArithmeticError(f"quadrature lost its tolerance for {what} on "
                          f"[{lower:g}, {upper:g}] at {_MAX_PANELS} panels")


def _quad_to_tail(integrand, upper: float, tail, what) -> float:
    # integrate over [0, upper], doubling upper and adding the new piece until
    # the bound tail(upper) on the discarded mass is negligible in the total
    value, lower = 0.0, 0.0
    while True:
        value += _integrate(integrand, lower, upper, what)
        if tail(upper) <= _TAIL_FRACTION * value:
            return value
        if upper > 1e6:
            raise ArithmeticError(f"tail criterion unreachable for {what} at upper {upper:g}")
        lower, upper = upper, 2.0 * upper


def _gamma_cdf_logs(M: int, x: np.ndarray) -> tuple:
    # log G and log(1 - G) for G the Gamma(M, 1) CDF, each taken from whichever
    # of G and Q = 1 - G is below 1/2: the other has rounded it away. A value
    # below the normal range counts as the smallest normal; its powers vanish
    g, q = (np.maximum(f(M, x), _TINY) for f in (gammainc, gammaincc))
    high = g >= 0.5
    log_g, log_q = np.log(g), np.log(q)
    np.log1p(-q, out=log_g, where=high)
    np.log1p(-g, out=log_q, where=~high)
    return log_g, log_q


def _order_stat_quadrature(M: int, r: int, K: int) -> tuple:
    # pdf(t) / t and the tail bound of the r-th largest of K squared norms. The
    # density r C(K, r) G^{K-r} (1 - G)^{r-1} times the parent's is summed in
    # logs, so a coefficient past the float range meets the powers that cancel
    # it. The mass above u is I_Q(r, K+1-r); the ufunc takes K past int64 as a float
    log_coef = math.log(r * math.comb(K, r)) - gammaln(M)  # math.log takes any int

    def integrand(t: np.ndarray) -> np.ndarray:
        log_g, log_q = _gamma_cdf_logs(M, t)
        return np.exp(log_coef + float(K - r) * log_g + (r - 1) * log_q
                      - t + (M - 1) * np.log(t)) / t

    def tail(u: float) -> float:
        return float(betainc(float(r), float(K + 1 - r), gammaincc(M, u))) / u

    return integrand, tail


def mean_inverse_quadrature(spec: DistributionSpec) -> float:
    """E[1/x] by adaptive quadrature on the density.

    Supports every kind.  :func:`mean_inverse` falls back to it for order
    statistics the alpha combination cannot price accurately; the tests
    use it as the independent reference for every closed form.
    """
    _check_integrable(spec)
    if spec.kind == "norm_order_stat":
        integrand, tail = _order_stat_quadrature(spec.M, spec.r, spec.K)
    else:
        def integrand(t: np.ndarray) -> np.ndarray:
            return pdf(spec, t) / t

        def tail(u: float) -> float:
            return (1.0 - float(cdf(spec, u))) / u

    # 1/x <= 1/u beyond a cut u, so the discarded tail is bounded by the
    # probability mass above u over u; the sine laws end at 1
    upper = 1.0 if spec.kind in ("sin_sq_angle", "sin_sq_angle_max") else 8.0 * spec.M + 8.0
    return _quad_to_tail(integrand, upper, tail, spec)


@lru_cache(maxsize=None)
def mean_inverse(spec: DistributionSpec) -> float:
    """E[1/x] for the given law.

    Closed forms are returned where they exist.  An order statistic with
    M >= 2 is the integer combination of alphas from `_alpha_terms`,
    unless the combination cancels
    so far that its rounding error (sum of |c_n alpha(M, n)| times the
    machine epsilon) exceeds the quadrature tolerance of the value; then,
    and for M = 1, it goes through :func:`mean_inverse_quadrature`.  Laws
    whose reciprocal mean does not converge raise DivergenceError naming
    the offending parameters.
    """
    _check_integrable(spec)
    if spec.kind == "norm_chisq":
        return 1.0 / (spec.M - 1)
    if spec.kind == "sin_sq_angle":
        return (spec.M - 1) / (spec.M - spec.i - 1)
    if spec.kind == "sin_sq_angle_max":
        n = spec.K * (spec.M - 1)
        return n / (n - 1)
    if spec.kind == "norm_not_largest":
        return (spec.K / (spec.M - 1) - alpha(spec.M, spec.K)) / (spec.K - 1)
    if spec.M >= 2:  # norm_order_stat from here on
        # a coefficient past the float range cancels past any tolerance
        with suppress(OverflowError):
            terms = _alpha_terms(spec.M, spec.r, spec.K)
            value = float(sum(terms))
            if sum(abs(t) for t in terms) * _EPS <= _QUAD_REL * value:
                return value
    return mean_inverse_quadrature(spec)


@lru_cache(maxsize=None)
def alpha(M: int, K: int) -> float:
    r"""E[1 / max_{k <= K} ||h_k||^2] for i.i.d. h_k in C^M.

    Evaluates the integral of K e^{-x} x^{M-2} G(M, x)^{K-1} / Gamma(M)
    over x > 0, where G is the regularized lower incomplete gamma
    function.  Only M >= 2 is supported: the single-antenna law already
    fails to have a reciprocal mean, and smaller M is refused outright.
    """
    if not isinstance(M, int) or not isinstance(K, int):
        raise ConfigError(f"M and K must be integers, got M={M!r}, K={K!r}")
    if K < 1:
        raise ConfigError(f"need K >= 1, got K={K}")
    if M < 2:
        raise DivergenceError(f"mean inverse of the largest squared norm needs M >= 2, got M={M}")
    integrand, tail = _order_stat_quadrature(M, 1, K)  # the largest of K
    # the largest norm is at least the mean of the K, whose sum is
    # Gamma(KM, 1), so alpha <= K / (KM - 1).  A limit whose tail exceeds
    # that share (1% over, for rounding) fails the tail test whatever the
    # integral comes to: integrate once, from the first limit not ruled out
    upper, bound = 8.0 * M + 8.0, 1.01 * _TAIL_FRACTION * K / (K * M - 1)
    while tail(upper) > bound and upper <= 1e6:
        upper *= 2.0
    return _quad_to_tail(integrand, upper, tail, f"alpha({M}, {K})")


def _order_stat_power_coeffs(r: int, K: int) -> dict:
    # the order-statistic CDF I_G(a, r), a = K + 1 - r, as sum_n c_n G^n
    a = K + 1 - r
    return {n: (-1) ** (n - a) * math.comb(K, n) * math.comb(n - 1, a - 1)
            for n in range(a, K + 1)}


def _alpha_terms(M: int, r: int, K: int) -> list:
    # c_n * alpha(M, n) for each power G^n of the order-statistic CDF. G^n is
    # the law of a largest of n, so the terms sum to E[1/x] for the r-th
    # largest (David & Nagaraja, *Order Statistics*); needs M >= 2. The c_n
    # alternate in sign and grow like binomials, so for large r and K the sum
    # loses digits; mean_inverse detects that and uses quadrature instead
    return [c * alpha(M, n) for n, c in _order_stat_power_coeffs(r, K).items()]


# ---------------------------------------------------------------------------
# per-algorithm average powers (gamma is the linear SINR target)


def _check_targets(gamma: float, sigma_sq: float) -> None:
    if not 0.0 < gamma < math.inf:
        raise ConfigError(f"gamma must be positive and finite, got {gamma}")
    if not 0.0 < sigma_sq < math.inf:
        raise ConfigError(f"sigma_sq must be positive and finite, got {sigma_sq}")


def _angle_mean_inverse(M: int, d: int) -> float:
    # reciprocal mean of sin^2 against an independent d-dimensional span
    if d == 0:
        return 1.0
    if d >= M:
        raise DivergenceError(f"a {d}-dimensional span fills C^{M}; the angle is zero almost surely")
    return mean_inverse(DistributionSpec.sin_sq_angle(M, d))


def _sum_terms(name: str, K_s: int, term) -> float:
    # term(i) summed over the positions i = 1..K_s, naming a term that diverges
    total = 0.0
    for idx in range(1, K_s + 1):
        try:
            total += term(idx)
        except DivergenceError as exc:
            raise DivergenceError(f"{name} term i={idx} diverges: {exc}") from None
    return total


def _two_user_power(M: int, K: int, gamma: float, sigma_sq: float, first) -> float:
    # gamma sigma^2 (E[1/first] + alpha(M, K) E[1/max sin^2]) for the law first(M, K)
    _check_targets(gamma, sigma_sq)
    if M < 3 or K < 2 or (M - 1) * (K - 1) <= 1:
        raise ConfigError(f"need M >= 3, K >= 2 and (M-1)(K-1) > 1, got M={M}, K={K}")
    first_term = mean_inverse(first(M, K))
    best_angle = mean_inverse(DistributionSpec.sin_sq_angle_max(M, K - 1))
    return gamma * sigma_sq * (first_term + alpha(M, K) * best_angle)


def avg_power_nus(M: int, K: int, K_s: int, gamma: float, sigma_sq: float) -> float:
    """Average total power under norm-based selection of K_s out of K users.

    Position i of the encoding order carries the (K_s + 1 - i)-th largest
    norm and sees an independent (i - 1)-dimensional interference span,
    so each term is a product of two reciprocal means.  Terms whose
    reciprocal mean does not converge raise DivergenceError naming the
    term.  Order-statistic means come from :func:`mean_inverse`, so the
    sum is in closed form wherever the alpha combination is accurate.
    """
    _check_targets(gamma, sigma_sq)
    if not 1 <= K_s <= K:
        raise ConfigError(f"need 1 <= Ks <= K, got Ks={K_s}, K={K}")
    return gamma * sigma_sq * _sum_terms("NUS", K_s, lambda i: mean_inverse(
        DistributionSpec.norm_order_stat(M, K_s + 1 - i, K)) * _angle_mean_inverse(M, i - 1))


def avg_power_sus(M: int, K: int, K_s: int, gamma: float, sigma_sq: float) -> float:
    """Upper bound on the average total power under greedy residual selection.

    The i-th selected residual is stochastically no worse than the i-th
    largest of K squared norms in an (M + 1 - i)-dimensional space, which
    turns the sum into pure order-statistic reciprocal means, each from
    :func:`mean_inverse` (quadrature for the one-dimensional last term
    when K_s = M).  Unlike the other averages this one bounds the true
    mean from above, so Monte Carlo validation against it is one-sided.
    """
    _check_targets(gamma, sigma_sq)
    if not 1 <= K_s <= min(M, K):
        raise ConfigError(f"need 1 <= Ks <= min(M, K), got Ks={K_s}, M={M}, K={K}")
    return gamma * sigma_sq * _sum_terms("SUS", K_s, lambda i: mean_inverse(
        DistributionSpec.norm_order_stat(M + 1 - i, i, K)))


def avg_power_rus(M: int, K_s: int, gamma: float, sigma_sq: float) -> float:
    """Average total power when the K_s users are picked uniformly at random.

    Each position pairs an unordered squared norm with an independent
    angle, so the value depends on M and K_s only; the number of users K
    does not appear.  Finite only for K_s <= M - 1.
    """
    _check_targets(gamma, sigma_sq)
    if K_s < 1:
        raise ConfigError(f"need Ks >= 1, got Ks={K_s}")
    norm_term = mean_inverse(DistributionSpec.norm_chisq(M))  # needs M >= 2
    return gamma * sigma_sq * _sum_terms(
        "RUS", K_s, lambda i: norm_term * _angle_mean_inverse(M, i - 1))


def avg_power_aus_two(M: int, K: int, gamma: float, sigma_sq: float) -> float:
    """Average total power for angle-based selection of two users.

    The first pick is the largest norm; the second maximizes the angle to
    it, which makes its squared sine the largest of K - 1 independent
    draws while its norm is a uniformly chosen non-maximal one.  Encoding
    puts the weaker user first.
    """
    return _two_user_power(M, K, gamma, sigma_sq, DistributionSpec.norm_not_largest)


def avg_power_lower_bound_two(M: int, K: int, gamma: float, sigma_sq: float) -> float:
    """Benchmark lower bound on any two-user selection's average total power.

    Combines the two quantities no rule can beat simultaneously: the
    second-largest norm at the interference-free position and the largest
    norm paired with the best possible angle among its K - 1 partners.
    """
    return _two_user_power(
        M, K, gamma, sigma_sq, lambda M, K: DistributionSpec.norm_order_stat(M, 2, K))
