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
import numbers
from contextlib import suppress
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BudgetError, ConfigError, DivergenceError

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
# the Gamma(M, 1) tails are formed in linear space from about M terms a
# point up to M = _LINEAR_M: x^M/M! stays a float below x = M, and so does
# x^(M-1)/(M-1)! up to x = _X_MAX, past which every Q is below the floats.
# Past it a point takes about 9 sqrt(M) terms, and M = _MAX_M bounds that
# work; _MAX_TERMS bounds the terms of a binomial tail, as many a point
_LINEAR_M, _MAX_M, _X_MAX, _MAX_TERMS = 128, 10**5, 1e4, 10**4

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
        # exact types go first, as checks on ABCs are slow
        if not type(self.M) is type(self.r) is type(self.K) is type(self.i) is int:
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
            out = _beta_cdfs(t, 1.0 - t, spec.M - spec.i, spec.i)
        else:
            out = t ** (spec.K * (spec.M - 1))
    else:
        _check_gamma_m(spec.M)
        t, low = _gamma_side(spec.M, np.maximum(xs, 0.0))
        g, q = np.where(low, t, 1.0 - t), np.where(low, 1.0 - t, t)
        if spec.kind == "norm_not_largest":
            out = (spec.K * g - g**spec.K) / (spec.K - 1)
        else:  # r-th largest of K is <= x iff at least K + 1 - r are: a binomial tail
            r, K = _rank(spec.kind, spec.r, spec.K)
            out = _beta_cdfs(g, q, K + 1 - r, r)
    return float(out[0]) if scalar else out


def pdf(spec: DistributionSpec, x) -> "float | np.ndarray":
    """Probability density, vectorized over x; zero outside the support,
    and at 0 and +inf for the squared-norm laws, whose log density the
    quadrature integrates too: their upper tail keeps its digits."""
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs).astype(float)
    out = np.zeros_like(xs)
    if spec.kind in ("sin_sq_angle", "sin_sq_angle_max"):
        inside = (xs >= 0.0) & (xs <= 1.0)
        t = xs[inside]
        if spec.kind == "sin_sq_angle":
            a, b = spec.M - spec.i, spec.i
            log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
            out[inside] = t ** (a - 1) * (1.0 - t) ** (b - 1) / math.exp(log_beta)
        else:
            n = spec.K * (spec.M - 1)
            out[inside] = n * t ** (n - 1)
    else:
        inside = (xs > 0.0) & (xs < math.inf)
        out[inside] = np.exp(_norm_law(spec.kind, spec.M, spec.r, spec.K)[0](xs[inside]))
    return float(out[0]) if scalar else out


def _rank(kind: str, r: int, K: int) -> tuple:
    # (r, K) of a squared-norm law as the r-th largest of K: the chi-square is
    # the largest of one, and a non-largest of K behaves near zero as one norm
    return (r, K) if kind == "norm_order_stat" else (1, 1)


def _divergence_exponent(spec: DistributionSpec) -> int:
    # density behaves like c * x^s near the lower end of the support;
    # E[1/x] is finite iff s >= 1
    if spec.kind == "sin_sq_angle":
        return spec.M - spec.i - 1
    if spec.kind == "sin_sq_angle_max":
        return spec.K * (spec.M - 1) - 1
    r, K = _rank(spec.kind, spec.r, spec.K)
    return spec.M * (K + 1 - r) - 1


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


def _check_gamma_m(M: int) -> None:
    # refuse an M whose Gamma kernel would take more than _MAX_M's work
    if M > _MAX_M:
        raise BudgetError(f"the Gamma(M, 1) laws are evaluated for M <= {_MAX_M}, got M={M}")


@lru_cache(maxsize=None)
def _series_terms(M: int) -> int:
    # terms of P's series sum_j x^j/((M+1)...(M+j)) at x = M, where it
    # converges slowest, for a term to fall below eps/4 of the sum; Q's head
    # read down from its last term, sum_j (M-1)...(M-j)/x^j, falls faster
    terms, term = 0, 1.0
    while term > _EPS / 4:
        terms += 1
        term *= M / (M + terms)
    return terms


@lru_cache(maxsize=None)
def _gamma_coeffs(M: int) -> tuple:
    # 1/k! for k = M-1 down to 0, Q's head in Horner order; 1/M! for each
    # term of P's series after the first; and the divisors M+1, M+2, ... of
    # those terms
    terms = _series_terms(M)
    head = tuple(1 / math.factorial(k) for k in range(M - 1, -1, -1))
    return head, np.full(terms, 1 / math.factorial(M)), np.arange(M + 1.0, M + terms + 1.0)


def _gamma_side(M: int, x: np.ndarray) -> tuple:
    # (t, low) at points x >= 0: t is P of Gamma(M, 1) where x < M, marked by
    # low, and Q elsewhere, so t <= 0.64, to a few ulps where it is a normal
    # float. Q is its head e^-x sum_{k<M} x^k/k!, positive terms summed in
    # Horner form, with e^-x applied in halves so that it stays normal while
    # Q does. P is its series e^-x x^M/M! sum_j x^j/((M+1)...(M+j))
    if M > _LINEAR_M:
        return _gamma_side_past_linear(M, x)
    head, inv_m_fact, divisors = _gamma_coeffs(M)
    xc = np.minimum(x, _X_MAX)
    t = np.empty_like(xc)
    t.fill(head[0])
    for c in head[1:]:
        t *= xc
        t += c
    half = np.exp(-0.5 * xc)
    t *= half
    t *= half
    low = x < M
    s = x[low]
    ratios = s[:, None] / divisors
    series = np.multiply.accumulate(ratios, axis=1, out=ratios) @ inv_m_fact
    series += inv_m_fact[0]
    t[low] = np.exp(-s) * s**M * series
    return t, low


def _gamma_side_past_linear(M: int, x: np.ndarray) -> tuple:
    # _gamma_side for M past _LINEAR_M, whose terms leave the floats. Both
    # sides are the density d = e^-x x^n/n!, n = M - 1, times a sum, term by
    # term to _series_terms(M): Q's head read down from its last term, sum_j
    # n (n-1)...(n-j+1)/x^j, and P's series x/M sum_j x^j/((M+1)...(M+j)).
    # With x = n (1 + u), log d = n (log1p(u) - u) + log(n^n e^-n/n!), the
    # constant from Stirling's series, so log d is rounded to about (|x - n| +
    # |log d|) eps, where n log x - x - log n! would be to (x + n log x) eps
    n, terms = M - 1, _series_terms(M)
    stirling = (1 / 12 - (1 / 360 - 1 / (1260 * n * n)) / (n * n)) / n
    log_scale = -0.5 * math.log(2.0 * math.pi * n) - stirling
    u = (np.minimum(x, _X_MAX * M) - n) / n
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf at x = 0, where d is 0
        t = np.exp(n * (np.log1p(u) - u) + log_scale)
    low = x < M
    s = x[low]
    term, series = np.ones_like(s), np.ones_like(s)
    for k in range(M + 1, M + terms + 1):
        term *= s / k
        series += term
    t[low] *= series * s / M
    y = x[~low]
    term, head = np.ones_like(y), np.ones_like(y)
    for k in range(n, max(n - terms, 0), -1):
        term *= k / y
        head += term
    t[~low] *= head
    return t, low


def _gamma_pq_at(M: int, u: float) -> tuple:
    # P and Q of Gamma(M, 1) at one float u, each as _gamma_side gives them.
    # At u >= M, which holds every limit the quadrature tries, Q is its head
    # in math at scalar speed; below, and past _LINEAR_M, it is _gamma_side's
    if u < M or M > _LINEAR_M:
        t, low = _gamma_side(M, np.array([u]))
        t = float(t[0])
        return (t, 1.0 - t) if low[0] else (1.0 - t, t)
    head = _gamma_coeffs(M)[0]
    u = min(u, _X_MAX)
    q = head[0]
    for c in head[1:]:
        q = q * u + c
    half = math.exp(-0.5 * u)
    q = q * half * half
    return 1.0 - q, q


def _gamma_cdf_logs(M: int, x: np.ndarray) -> tuple:
    # log G and log(1 - G) for G the Gamma(M, 1) CDF, each taken from the side
    # _gamma_side gives, which is below 0.64: the other has rounded it away. A
    # value below the normal range counts as the smallest normal; its powers vanish
    t, low = _gamma_side(M, x)
    log_t = np.log(np.maximum(t, _TINY, out=t))
    log_rest = np.log1p(-t)
    return np.where(low, log_t, log_rest), np.where(low, log_rest, log_t)


@lru_cache(maxsize=16)
def _log_binomials(n: int, m: int) -> tuple:
    # log C(n, i) for i < m, each from the exact int
    logs, c = [0.0], 1
    for i in range(1, m):
        c = c * (n - i + 1) // i
        logs.append(math.log(c))
    return tuple(logs)


def _beta_cdf(x: float, y: float, a: int, b: int) -> float:
    # I_x(a, b) for integers a, b >= 1, with y = 1 - x given apart: the chance
    # of at least a successes in n = a + b - 1 trials at x. It sums the b
    # terms of that tail, C(n, i) y^i x^(n-i) for i < b failures, or takes 1
    # minus the a terms below it, whichever are fewer, so n may be as large as
    # an int can be, and refuses more than _MAX_TERMS. Each term is taken in
    # logs with C(n, i) exact, and from whichever of x and y is below 1/2; 1
    # minus the first keeps its digits by expm1. Where 1 minus more terms is
    # below 1/2, a lies past the median, and the tail is summed up from a in
    # term ratios until they fall below eps/4 of the sum, to keep its digits
    n = a + b - 1
    s, f, m, complement = (y, x, b, False) if b <= a else (x, y, a, True)
    if m > _MAX_TERMS:
        raise BudgetError(f"I_x({a}, {b}) would sum {m} terms, past {_MAX_TERMS}")
    if s == 0.0 or f == 0.0:  # only s^0 f^n can be nonzero
        head = float(s == 0.0)
        return 1.0 - head if complement else head
    ls, lf = (math.log(s), math.log1p(-s)) if s < 0.5 else (math.log1p(-f), math.log(f))
    log_c = _log_binomials(n, m + 1)
    total = -math.expm1(n * lf) if complement else math.exp(n * lf)
    sign = -1.0 if complement else 1.0
    for i in range(1, m):
        total += sign * math.exp(log_c[i] + i * ls + (n - i) * lf)
    if complement and m > 1 and total < 0.5:
        term, total = math.exp(log_c[m] + m * ls + (n - m) * lf), 0.0
        for i in range(m, n + 1):
            total += term
            term *= (n - i) / (i + 1) * (s / f)
            if term <= _EPS / 4 * total:
                break
    return min(max(total, 0.0), 1.0)


def _beta_cdfs(x: np.ndarray, y: np.ndarray, a: int, b: int) -> np.ndarray:
    # _beta_cdf at each x, y
    values = [_beta_cdf(u, v, a, b) for u, v in zip(x.ravel().tolist(), y.ravel().tolist())]
    return np.reshape(values, x.shape)


def _norm_law(kind: str, M: int, r: int, K: int) -> tuple:
    # log density and tail bound of the squared-norm law with a spec's kind, M,
    # r and K, passed apart so alpha builds no spec. The r-th largest of K has
    # density r C(K, r) G^{K-r} (1 - G)^{r-1} times the parent's, summed in logs
    # so a coefficient past the float range meets the powers that cancel it; a
    # non-largest has K/(K-1) (1 - G^{K-1}) times the parent's. As 1/x <= 1/u,
    # the tail of E[1/x] beyond u is at most the mass above u over u: I_Q(r,
    # K+1-r), for a non-largest the second largest's, in math on one float
    _check_gamma_m(M)
    if kind == "norm_not_largest":
        r = 2
        log_coef = math.log(K / (K - 1)) - math.lgamma(M)

        def log_density(t: np.ndarray) -> np.ndarray:
            log_g = _gamma_cdf_logs(M, t)[0]
            return log_coef + np.log(-np.expm1(float(K - 1) * log_g)) - t + (M - 1) * np.log(t)
    else:
        r, K = _rank(kind, r, K)
        log_coef = math.log(r * math.comb(K, r)) - math.lgamma(M)  # math.log takes any int

        def log_density(t: np.ndarray) -> np.ndarray:
            log_g, log_q = _gamma_cdf_logs(M, t)
            return log_coef + float(K - r) * log_g + (r - 1) * log_q - t + (M - 1) * np.log(t)

    def tail(u: float) -> float:
        p, q = _gamma_pq_at(M, u)
        return _beta_cdf(q, p, r, K + 1 - r) / u

    return log_density, tail


def mean_inverse_quadrature(spec: DistributionSpec) -> float:
    """E[1/x] by adaptive quadrature on the density.

    Supports every kind; the squared-norm laws integrate the log density
    :func:`pdf` exponentiates.  :func:`mean_inverse` falls back to it for
    order statistics the alpha combination cannot price accurately; the
    tests use it as the independent reference for every closed form.
    """
    _check_integrable(spec)
    if spec.kind in ("sin_sq_angle", "sin_sq_angle_max"):  # they end at 1: no tail
        return _quad_to_tail(lambda t: pdf(spec, t) / t, 1.0, lambda u: 0.0, spec)
    log_density, tail = _norm_law(spec.kind, spec.M, spec.r, spec.K)
    return _quad_to_tail(lambda t: np.exp(log_density(t)) / t, 8.0 * spec.M + 8.0, tail, spec)


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
    log_density, tail = _norm_law("norm_order_stat", M, 1, K)  # the largest of K
    # the largest norm is at least the mean of the K, whose sum is
    # Gamma(KM, 1), so alpha <= K / (KM - 1).  A limit whose tail exceeds
    # that share (1% over, for rounding) fails the tail test whatever the
    # integral comes to: integrate once, from the first limit not ruled out
    upper, bound = 8.0 * M + 8.0, 1.01 * _TAIL_FRACTION * K / (K * M - 1)
    while tail(upper) > bound and upper <= 1e6:
        upper *= 2.0
    return _quad_to_tail(lambda t: np.exp(log_density(t)) / t, upper, tail, f"alpha({M}, {K})")


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


def _check_targets(gamma: float, sigma_sq: float, **counts: int) -> None:
    # gamma and sigma_sq real, positive and finite; each count, by its keyword,
    # an integer and not a bool. Exact types go first: checks on ABCs are slow
    for name, value in counts.items():
        if type(value) is not int and not isinstance(value, np.integer):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    for name, value in (("gamma", gamma), ("sigma_sq", sigma_sq)):
        if not isinstance(value, (float, numbers.Real)) or not 0.0 < value < math.inf:
            raise ConfigError(f"{name} must be positive and finite, got {value!r}")


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
    _check_targets(gamma, sigma_sq, M=M, K=K)
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
    _check_targets(gamma, sigma_sq, M=M, K=K, K_s=K_s)
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
    _check_targets(gamma, sigma_sq, M=M, K=K, K_s=K_s)
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
    _check_targets(gamma, sigma_sq, M=M, K_s=K_s)
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
