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

from .channel import RANK_TOL, _as_complex, _complement_step, _squared_norms
from .errors import ConfigError, DimensionError, DomainError, InfeasibleGeometryError


def _real(value, what: str) -> np.ndarray:
    """`value` as float64 when it holds only real numbers (no bool, text or None)."""
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged sequence
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf":
        raise ConfigError(f"{what} must be real, got {value!r}")
    return arr.astype(np.float64)


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
        g = _real(self.gamma, "SINR targets")
        if g.ndim > 1:
            raise DimensionError(f"gamma must be scalar or 1-D, got shape {g.shape}")
        if g.size == 0 or not np.all((g > 0) & (g < np.inf)):
            raise ConfigError("all SINR targets must be positive and finite")
        s2 = _real(self.sigma_sq, "noise variance")
        if s2.ndim or not 0 < s2 < np.inf:
            raise ConfigError(
                f"noise variance must be one positive finite number, got {self.sigma_sq!r}"
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
    """Per-user powers and achieved SINRs for one channel realization.

    For a (T, n, M) block of realizations every field gains a leading
    trial axis and `total_power` is a (T,) array.
    """

    per_user_power: np.ndarray
    total_power: float | np.ndarray
    achieved_sinr: np.ndarray
    method_tag: str
    beamformers: np.ndarray | None = None

    def __post_init__(self) -> None:
        s = np.sum(self.per_user_power, axis=-1)
        if np.any(np.abs(s - self.total_power) > 1e-12 * np.maximum(np.abs(s), 1.0)):
            raise DomainError("total_power does not match per-user sum")
        if self.beamformers is not None:
            norms = np.linalg.norm(self.beamformers, axis=-1)
            if not np.all(np.abs(norms - 1.0) <= 1e-10):
                raise DomainError("beamformers must have unit norm")


def _check_sinr_targets(targets) -> None:
    if not isinstance(targets, SinrTargets):
        raise ConfigError(f"targets must be SinrTargets, got {targets!r}")


def _as_block(channels) -> tuple[np.ndarray, bool]:
    """(T, n, M) channel rows, and whether the input was one (n, M) set."""
    h = _as_complex(channels, "channels")
    single = h.ndim in (1, 2)
    if single:
        h = h.reshape((1,) * (3 - h.ndim) + h.shape)
    if h.ndim != 3 or h.shape[-1] < 1:
        raise DimensionError(
            f"expected (n, M) or (T, n, M) channel rows, got shape {np.shape(channels)}"
        )
    if not np.isfinite(_squared_norms(h)).all():  # finite entries too
        raise DomainError("channel squared norms must be finite")
    return h, single


def _as_matrix(channels) -> np.ndarray:
    h, single = _as_block(channels)
    if not single:
        raise DimensionError(f"expected (n, M) channel rows, got shape {h.shape}")
    return h[0]


def _row_norms_checked(h: np.ndarray) -> np.ndarray:
    norms = _squared_norms(h)
    bad = norms <= 0.0
    if bad.any():  # argwhere only to name the channel
        raise DomainError(f"channel {np.argwhere(bad)[0, -1]} has zero norm")
    return norms


def _solution(per_user, achieved, method_tag, single) -> PowerSolution:
    """A block's solution, or its only trial's when the input was one set."""
    total = per_user.sum(axis=-1)
    if single:
        return PowerSolution(per_user[0], float(total[0]), achieved[0], method_tag)
    return PowerSolution(per_user, total, achieved, method_tag)


def _uplink_gain(zinv: np.ndarray, h_i: np.ndarray, gamma_i):
    """One position of the dual uplink against the predecessors' Z^-1.

    Returns the direction Z^-1 h_i, the gain h_i^H Z^-1 h_i and the
    unit-noise power gamma_i / gain. Leading axes of `zinv` (..., M, M)
    and `h_i` (..., M) are trials, each stepped on its own.
    """
    zh = (zinv @ h_i[..., None])[..., 0]
    d = (h_i.conj() * zh).sum(axis=-1).real
    return zh, d, gamma_i / d


def _uplink_update(zinv: np.ndarray, zh: np.ndarray, d: np.ndarray, p: np.ndarray):
    """Z^-1 once the user of `_uplink_gain`'s (zh, d, p) is added, by a rank-one update."""
    w = p / (1.0 + p * d)
    return zinv - w[..., None, None] * (zh[..., :, None] * zh.conj()[..., None, :])


def _dual_uplink(h: np.ndarray, gam: np.ndarray):
    """Unit-noise powers, gains h_i^H Z_i^-1 h_i and directions Z_i^-1 h_i
    of (..., n, M) rows.

    Z_i accumulates the already-encoded users.
    """
    n, m = h.shape[-2:]
    zinv = np.broadcast_to(np.eye(m, dtype=np.complex128), h.shape[:-2] + (m, m))
    p_unit = np.empty(h.shape[:-1])
    gains = np.empty(h.shape[:-1])
    dirs = np.empty_like(h)
    for i in range(n):
        step = _uplink_gain(zinv, h[..., i, :], gam[i])
        dirs[..., i, :], gains[..., i], p_unit[..., i] = step
        if i + 1 < n:
            zinv = _uplink_update(zinv, *step)
    return p_unit, gains, dirs


def exact_min_power(channels, targets: SinrTargets) -> PowerSolution:
    """Sequential minimum power meeting every target exactly.

    Position i pays sigma^2 * gamma_i / (h_i^H Z_i^-1 h_i) where Z_i
    accumulates the already-encoded users. The recursion runs in the
    unit-noise frame and the noise factor is restored on the way out.
    A (T, n, M) block is T independent sets priced at once; each gets
    what it would alone.
    """
    _check_sinr_targets(targets)
    h, single = _as_block(channels)
    _row_norms_checked(h)
    p_unit, gains, _ = _dual_uplink(h, targets.gamma_vector(h.shape[1]))
    return _solution(targets.sigma_sq * p_unit, p_unit * gains, "exact_dual_ul", single)


def approx_min_power(channels, targets: SinrTargets) -> PowerSolution:
    """Residual-norm upper bound on the minimum power.

    Position i pays sigma^2 * gamma_i / (||h_i||^2 sin^2 theta) against
    the span of its predecessors, which never undercuts the exact value
    when every target is >= 1. A user inside that span has no usable
    direction left, so that raises instead of returning infinity. A
    (T, n, M) block is T independent sets priced at once; each gets what
    it would alone, and one infeasible set fails the block.
    """
    _check_sinr_targets(targets)
    h, single = _as_block(channels)
    norms = _row_norms_checked(h)
    gam = targets.gamma_vector(h.shape[1])
    # row i's coordinates against the predecessors' span lead `coords`;
    # past the M-th row no axis is left and the residual stays zero
    coords, res2 = h, np.zeros(h.shape[:-1])
    for i in range(min(h.shape[1:])):
        res2[:, i] = _squared_norms(coords[:, 0])
        if i + 1 < h.shape[1]:
            coords = _complement_step(coords[:, 1:], coords[:, 0], res2[:, i])
    dead = res2 <= RANK_TOL**2 * norms
    if dead.any():
        raise InfeasibleGeometryError(
            f"channel {np.argwhere(dead)[0, -1]} lies in the span of its predecessors"
        )
    per_user = targets.sigma_sq * gam / res2
    achieved = per_user * res2 / targets.sigma_sq
    return _solution(per_user, achieved, "approx_lemma1", single)


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
    _check_sinr_targets(targets)
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
    _check_sinr_targets(targets)
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
