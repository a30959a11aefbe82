"""Minimum transmit power for a fixed encoding order.

Three solvers share one convention: row i of the channel matrix is the
user at encoding position i, and position 0 faces no interference.
`exact_min_power` runs the sequential dual-uplink recursion on the
users' whitened coordinates, M values a user, stepped by `_uplink_step`;
`approx_min_power` replaces the effective channel gain with the squared
residual against the predecessors' span, and `downlink_dual_solution`
converts the exact solution into downlink beamformers and powers whose
total provably matches.
"""

from dataclasses import dataclass

import numpy as np

from .channel import RANK_TOL, _array, _as_complex, _complement_step, _squared_norms
from .errors import ConfigError, DimensionError, DomainError, InfeasibleGeometryError


def _real(value, what: str) -> np.ndarray:
    """`value` as float64 when it holds only real numbers (no bool, text or None)."""
    return _array(value, f"{what} must be real", "iuf", ConfigError).astype(np.float64, copy=False)


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
        s = np.sum(_real(self.per_user_power, "per-user powers"), axis=-1)
        total = _real(self.total_power, "total power")
        if np.any(np.abs(s - total) > 1e-12 * np.maximum(np.abs(s), 1.0)):
            raise DomainError("total_power does not match per-user sum")
        if self.beamformers is not None:
            # of the moduli, which leave no inf * 0 of an infinite part
            moduli = np.abs(np.atleast_1d(_as_complex(self.beamformers, "beamformers")))
            norms = np.linalg.norm(moduli, axis=-1)
            if not np.all(np.abs(norms - 1.0) <= 1e-10):
                raise DomainError("beamformers must have unit norm")


def _check_sinr_targets(targets) -> None:
    if not isinstance(targets, SinrTargets):
        raise ConfigError(f"targets must be SinrTargets, got {targets!r}")


def _as_block(channels) -> tuple[np.ndarray, np.ndarray, bool]:
    """(T, n, M) channel rows and squared norms, and whether the input was one (n, M) set."""
    h = _as_complex(channels, "channels")
    single = h.ndim in (1, 2)
    if single:
        h = h.reshape((1,) * (3 - h.ndim) + h.shape)
    if h.ndim != 3 or h.shape[-1] < 1:
        raise DimensionError(
            f"expected (n, M) or (T, n, M) channel rows, got shape {np.shape(channels)}"
        )
    norms = _squared_norms(h)
    if not np.isfinite(norms).all():  # finite entries too
        raise DomainError("channel squared norms must be finite")
    return h, norms, single


def _as_matrix(channels) -> tuple[np.ndarray, np.ndarray]:
    h, norms, single = _as_block(channels)
    if not single:
        raise DimensionError(f"expected (n, M) channel rows, got shape {h.shape}")
    return h[0], norms[0]


def _row_norms_checked(norms: np.ndarray) -> None:
    bad = norms <= 0.0
    if bad.any():  # argwhere only to name the channel
        raise DomainError(f"channel {np.argwhere(bad)[0, -1]} has zero norm")


def _solution(per_user, achieved, method_tag, single) -> PowerSolution:
    """A block's solution, or its only trial's when the input was one set."""
    total = per_user.sum(axis=-1)
    if single:
        return PowerSolution(per_user[0], float(total[0]), achieved[0], method_tag)
    return PowerSolution(per_user, total, achieved, method_tag)


def _uplink_step(c: np.ndarray, x: np.ndarray, d, p):
    """Users' whitened coordinates c = L^-1 h (..., K, M), where Z = L L^H and
    ||c||^2 = h^H Z^-1 h, once the user at `x`, of gain d = ||x||^2, joins Z
    at unit-noise power p.

    Each row takes c - g (c . conj x) x, g = p / (s (s + 1)), s = sqrt(1 + p d):
    `channel._complement_step`'s reflection by (1, sqrt(p) x) on the rows
    (0, c), in closed form. A row orthogonal to x keeps its bits.
    """
    s = np.sqrt(1.0 + p * d)
    g = (p / (s * (s + 1.0)))[..., None, None]
    return c - (g * (c @ x.conj()[..., :, None])) * x[..., None, :]


def _dual_uplink(h: np.ndarray, gam: np.ndarray):
    """Unit-noise powers and gains h_i^H Z_i^-1 h_i of (..., n, M) rows.

    Z_i accumulates the already-encoded users; the later rows are held in
    whitened coordinates, stepped by `_uplink_step` at each position.
    """
    p_unit, gains, c = np.empty(h.shape[:-1]), np.empty(h.shape[:-1]), h
    for i in range(h.shape[-2]):
        x = c[..., 0, :]
        gains[..., i] = d = _squared_norms(x)
        p_unit[..., i] = p = gam[i] / d
        if i + 1 < h.shape[-2]:
            c = _uplink_step(c[..., 1:, :], x, d, p)
    return p_unit, gains


def exact_min_power(channels, targets: SinrTargets) -> PowerSolution:
    """Sequential minimum power meeting every target exactly.

    Position i pays sigma^2 * gamma_i / (h_i^H Z_i^-1 h_i) where Z_i
    accumulates the already-encoded users. The recursion runs in the
    unit-noise frame and the noise factor is restored on the way out.
    A (T, n, M) block is T independent sets priced at once; each gets
    what it would alone.
    """
    _check_sinr_targets(targets)
    h, norms, single = _as_block(channels)
    _row_norms_checked(norms)
    p_unit, gains = _dual_uplink(h, targets.gamma_vector(h.shape[1]))
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
    h, norms, single = _as_block(channels)
    _row_norms_checked(norms)
    gam = targets.gamma_vector(h.shape[1])
    # row i's coordinates against the predecessors' span lead `coords`;
    # past the M-th row no axis is left and the residual stays zero
    coords, res2 = h, np.zeros(h.shape[:-1])
    for i in range(min(h.shape[1:])):
        res2[:, i] = _squared_norms(coords[:, 0]) if i else norms[:, 0]
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

    Beamformer i points along Z_i^-1 h_i, solved on the predecessors' Gram
    matrix with the exact recursion's powers. In the downlink realization
    the encoding chain runs from the back: position n-1 is pre-cancelled
    for nobody and faces no interference, while position i hears only
    beams j > i. Powers therefore solve the target equations from the last
    position backward, and the resulting total matches the exact recursion
    to machine precision. `achieved_sinr` is recomputed from the returned
    beamformers and powers, not assumed.
    """
    _check_sinr_targets(targets)
    h, norms = _as_matrix(channels)
    _row_norms_checked(norms)
    n = h.shape[0]
    gam = targets.gamma_vector(n)
    s2 = targets.sigma_sq

    # Z_i^-1 h_i = h_i - sum_{j<i} a_j h_j, where (I + P G) a = P G e_i for the
    # predecessors' powers P and Gram matrix G (Woodbury)
    p_unit, dirs = _dual_uplink(h, gam)[0], h.copy()
    for i in range(1, n):
        pg = p_unit[:i, None] * (h[:i].conj() @ h[: i + 1].T)
        dirs[i] -= np.linalg.solve(np.eye(i) + pg[:, :i], pg[:, i]) @ h[:i]
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
    h, bf = _as_matrix(channels)[0], _as_matrix(beamformers)[0]
    q = np.atleast_1d(_real(powers, "powers"))
    if not (h.shape[0] == bf.shape[0] == q.size) or h.shape[1] != bf.shape[1]:
        raise DimensionError(
            f"mismatched shapes: channels {h.shape}, beamformers {bf.shape}, "
            f"powers {q.shape}"
        )
    g2 = np.abs(h.conj() @ bf.T) ** 2
    weighted = g2 * q[None, :]
    interf = targets.sigma_sq + np.tril(weighted, k=-1).sum(axis=1)
    return np.diagonal(weighted) / interf
