"""Minimum transmit power for a fixed encoding order.

Three solvers share one convention: row i of the channel matrix is the
user at encoding position i, and position 0 faces no interference.
`exact_min_power` runs the sequential dual-uplink recursion,
`approx_min_power` replaces the effective channel gain with the squared
residual against the predecessors' span, and `downlink_dual_solution`
converts the exact solution into downlink beamformers and powers whose
total provably matches.
"""

from dataclasses import dataclass

import numpy as np

from .channel import RANK_TOL, gram_schmidt
from .errors import ConfigError, DimensionError, DomainError, InfeasibleGeometryError


@dataclass(frozen=True)
class SinrTargets:
    """Per-user SINR targets (linear scale) and the noise variance.

    `gamma` is either a scalar applied to every user or a vector with one
    entry per encoding position. dB values must be converted before
    construction; nothing downstream touches dB.
    """

    gamma: float | np.ndarray
    sigma_sq: float

    def __post_init__(self) -> None:
        g = np.asarray(self.gamma, dtype=np.float64)
        if g.ndim > 1:
            raise DimensionError(f"gamma must be scalar or 1-D, got shape {g.shape}")
        if g.size == 0 or not np.all((g > 0) & (g < np.inf)):
            raise ConfigError("all SINR targets must be positive and finite")
        if not 0 < self.sigma_sq < np.inf:
            raise ConfigError(
                f"noise variance must be positive and finite, got {self.sigma_sq}"
            )

    def gamma_vector(self, n: int) -> np.ndarray:
        """Targets for `n` users, broadcasting a scalar target."""
        g = np.asarray(self.gamma, dtype=np.float64)
        if g.ndim == 0:
            return np.full(n, float(g))
        if g.size != n:
            raise DimensionError(f"{g.size} targets for {n} users")
        return g.copy()


@dataclass(frozen=True, eq=False)
class PowerSolution:
    """Per-user powers and achieved SINRs for one channel realization."""

    per_user_power: np.ndarray
    total_power: float
    achieved_sinr: np.ndarray
    method_tag: str
    beamformers: np.ndarray | None = None

    def __post_init__(self) -> None:
        s = float(np.sum(self.per_user_power))
        if abs(s - self.total_power) > 1e-12 * max(abs(s), 1.0):
            raise DomainError("total_power does not match per-user sum")
        if self.beamformers is not None:
            norms = np.linalg.norm(self.beamformers, axis=1)
            if not np.all(np.abs(norms - 1.0) <= 1e-10):
                raise DomainError("beamformers must have unit norm")


def _as_matrix(channels) -> np.ndarray:
    h = np.asarray(channels, dtype=np.complex128)
    if h.ndim == 1:
        h = h[None, :]
    if h.ndim != 2 or h.shape[1] < 1:
        raise DimensionError(f"expected (n, M) channel rows, got shape {h.shape}")
    if not np.isfinite(h).all():
        raise DomainError("channel entries must be finite")
    return h


def _row_norms_checked(h: np.ndarray) -> np.ndarray:
    norms = np.einsum("ij,ij->i", h.conj(), h).real
    if np.any(norms <= 0.0):
        bad = int(np.argmin(norms))
        raise DomainError(f"channel {bad} has zero norm")
    return norms


def _uplink_step(zinv: np.ndarray, h_i: np.ndarray, gamma_i):
    """One position of the dual uplink against the predecessors' Z^-1.

    Returns the direction Z^-1 h_i, the gain h_i^H Z^-1 h_i, the
    unit-noise power gamma_i / gain, and Z^-1 once the user is added,
    by a rank-one update.
    """
    zh = zinv @ h_i
    d = float(np.real(np.vdot(h_i, zh)))
    p = gamma_i / d
    return zh, d, p, zinv - (p / (1.0 + p * d)) * np.outer(zh, zh.conj())


def _dual_uplink(h: np.ndarray, gam: np.ndarray):
    """Unit-noise powers, gains h_i^H Z_i^-1 h_i and directions Z_i^-1 h_i.

    Z_i accumulates the already-encoded users.
    """
    n, m = h.shape
    zinv = np.eye(m, dtype=np.complex128)
    p_unit = np.empty(n)
    gains = np.empty(n)
    dirs = np.empty((n, m), dtype=np.complex128)
    for i in range(n):
        dirs[i], gains[i], p_unit[i], zinv = _uplink_step(zinv, h[i], gam[i])
    return p_unit, gains, dirs


def exact_min_power(channels, targets: SinrTargets) -> PowerSolution:
    """Sequential minimum power meeting every target exactly.

    Position i pays sigma^2 * gamma_i / (h_i^H Z_i^-1 h_i) where Z_i
    accumulates the already-encoded users. The recursion runs in the
    unit-noise frame and the noise factor is restored on the way out.
    """
    h = _as_matrix(channels)
    _row_norms_checked(h)
    p_unit, gains, _ = _dual_uplink(h, targets.gamma_vector(h.shape[0]))
    per_user = targets.sigma_sq * p_unit
    return PowerSolution(
        per_user_power=per_user,
        total_power=float(per_user.sum()),
        achieved_sinr=p_unit * gains,
        method_tag="exact_dual_ul",
    )


def approx_min_power(channels, targets: SinrTargets) -> PowerSolution:
    """Residual-norm upper bound on the minimum power.

    Position i pays sigma^2 * gamma_i / (||h_i||^2 sin^2 theta) against
    the span of its predecessors, which never undercuts the exact value
    when every target is >= 1. A user inside that span has no usable
    direction left, so that raises instead of returning infinity.
    """
    h = _as_matrix(channels)
    norms = _row_norms_checked(h)
    gam = targets.gamma_vector(h.shape[0])
    _, res2 = gram_schmidt(h)
    dead = np.flatnonzero(res2 <= RANK_TOL**2 * norms)
    if dead.size:
        raise InfeasibleGeometryError(
            f"channel {dead[0]} lies in the span of its predecessors"
        )

    per_user = targets.sigma_sq * gam / res2
    return PowerSolution(
        per_user_power=per_user,
        total_power=float(per_user.sum()),
        achieved_sinr=per_user * res2 / targets.sigma_sq,
        method_tag="approx_lemma1",
    )


def downlink_dual_solution(channels, targets: SinrTargets) -> PowerSolution:
    """Downlink beamformers and powers dual to `exact_min_power`.

    Beamformer i points along Z_i^-1 h_i from the exact recursion. In the
    downlink realization the encoding chain runs from the back: position
    n-1 is pre-cancelled for nobody and faces no interference, while
    position i hears only beams j > i. Powers therefore solve the target
    equations from the last position backward, and the resulting total
    matches the exact recursion to machine precision. `achieved_sinr` is
    recomputed from the returned beamformers and powers, not assumed.
    """
    h = _as_matrix(channels)
    _row_norms_checked(h)
    n = h.shape[0]
    gam = targets.gamma_vector(n)
    s2 = targets.sigma_sq

    _, _, dirs = _dual_uplink(h, gam)
    bf = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)

    # cross gains g2[k, j] = |h_k^H v_j|^2
    g2 = np.abs(h.conj() @ bf.T) ** 2
    q = np.zeros(n)
    for i in range(n - 1, -1, -1):
        interf = s2 + float(g2[i, i + 1 :] @ q[i + 1 :])
        q[i] = gam[i] * interf / g2[i, i]

    # reversing the sequence maps "hears j > k" onto the evaluator's
    # "hears j < k" convention
    achieved = evaluate_sinr(h[::-1], bf[::-1], q[::-1], targets)[::-1].copy()
    return PowerSolution(
        per_user_power=q,
        total_power=float(q.sum()),
        achieved_sinr=achieved,
        method_tag="downlink_dual",
        beamformers=bf,
    )


def evaluate_sinr(channels, beamformers, powers, targets: SinrTargets) -> np.ndarray:
    """SINR of each user when position k hears beams j < k.

    The first position faces no interference; later positions accumulate
    the earlier beams' leakage. Only the noise variance of `targets` is
    used here.
    """
    h = _as_matrix(channels)
    bf = _as_matrix(beamformers)
    q = np.atleast_1d(np.asarray(powers, dtype=np.float64))
    if not (h.shape[0] == bf.shape[0] == q.size) or h.shape[1] != bf.shape[1]:
        raise DimensionError(
            f"mismatched shapes: channels {h.shape}, beamformers {bf.shape}, "
            f"powers {q.shape}"
        )
    g2 = np.abs(h.conj() @ bf.T) ** 2
    weighted = g2 * q[None, :]
    interf = targets.sigma_sq + np.tril(weighted, k=-1).sum(axis=1)
    return np.diagonal(weighted) / interf
