r"""Channel vectors, seeded sampling, and subspace geometry helpers.

Each user has a flat-fading channel h in C^M whose entries are i.i.d.
CN(0, 1): real and imaginary parts are independent N(0, 1/2), so that
E|h_m|^2 = 1 and E||h||^2 = M.  Selection and power routines only ever
need squared norms, projections onto the orthogonal complement of a
growing span, and the squared sine of the angle between a vector and
that span, so those are the primitives exposed here.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DimensionError,
    DomainError,
    FullSpaceError,
    RankDeficiencyError,
)

# A residual shorter than RANK_TOL times the vector it came from is
# treated as numerically zero.
RANK_TOL = 1e-12


@dataclass(frozen=True)
class SeedSpec:
    """Identifies one reproducible random stream.

    ``master_seed`` selects the experiment and ``stream_index`` the
    substream; distinct indices give statistically independent
    generators, so per-trial streams never overlap no matter how the
    trials are scheduled.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        if not isinstance(self.master_seed, int) or not 0 <= self.master_seed < 2**64:
            raise ConfigError(
                f"master_seed must be an unsigned 64-bit integer, got {self.master_seed!r}"
            )
        if not isinstance(self.stream_index, int) or self.stream_index < 0:
            raise ConfigError(
                f"stream_index must be a non-negative integer, got {self.stream_index!r}"
            )

    def generator(self) -> np.random.Generator:
        """Fresh generator for this (master_seed, stream_index) pair."""
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_index,))
        return np.random.Generator(np.random.PCG64(seq))


@dataclass(frozen=True, eq=False)
class ChannelSet:
    """K user channels stacked as rows of a (K, M) complex array."""

    users: np.ndarray

    def __post_init__(self):
        users = np.asarray(self.users, dtype=np.complex128)
        if users.ndim != 2:
            raise DimensionError(f"users must be a (K, M) array, got shape {users.shape}")
        if users.shape[0] < 1 or users.shape[1] < 1:
            raise DimensionError(f"need K >= 1 and M >= 1, got shape {users.shape}")
        if not np.isfinite(users).all():
            raise DomainError("channel entries must be finite")
        object.__setattr__(self, "users", users)

    @property
    def K(self) -> int:
        return self.users.shape[0]

    @property
    def M(self) -> int:
        return self.users.shape[1]


def sample_channel_set(M: int, K: int, seed: SeedSpec) -> ChannelSet:
    r"""Draw K channels with i.i.d. CN(0, 1) entries.

    Each entry is (a + jb) / sqrt(2) with a, b ~ N(0, 1).  An exact zero
    vector (probability zero, but representable in floats) would break
    the norm-based selection rules, so such rows are redrawn from the
    same stream.

    Args:
        M: number of transmit antennas (entries per vector).
        K: number of users.
        seed: stream to draw from; equal seeds give bit-identical sets.
    """
    if M < 1 or K < 1:
        raise DimensionError(f"need M >= 1 and K >= 1, got M={M}, K={K}")
    rng = seed.generator()
    z = rng.standard_normal((K, M, 2))
    users = (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)
    while True:
        norms = (users.real**2 + users.imag**2).sum(axis=1)
        dead = np.flatnonzero(norms == 0.0)
        if dead.size == 0:
            break
        z = rng.standard_normal((dead.size, M, 2))
        users[dead] = (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)
    return ChannelSet(users)


def squared_norm(h: np.ndarray) -> float:
    """Squared Euclidean norm ||h||^2 as a plain float."""
    h = np.asarray(h)
    return float(np.real(np.vdot(h, h)))


class ProjectionBasis:
    """Orthonormal basis grown one vector at a time.

    Uses modified Gram-Schmidt with one re-orthogonalization pass, which
    keeps the basis orthonormal to working precision even when the input
    vectors are nearly dependent.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise DimensionError(f"dim must be positive, got {dim}")
        self.dim = int(dim)
        self._q = np.zeros((0, dim), dtype=np.complex128)

    @property
    def size(self) -> int:
        return self._q.shape[0]

    def residual(self, h: np.ndarray) -> np.ndarray:
        """Component of h orthogonal to the current span."""
        h = np.asarray(h, dtype=np.complex128)
        if h.shape != (self.dim,):
            raise DimensionError(f"expected shape ({self.dim},), got {h.shape}")
        if self.size == 0:
            return h.copy()
        q = self._q
        r = h - q.T @ (q.conj() @ h)
        r -= q.T @ (q.conj() @ r)
        return r

    def residual_norms_sq(self, rows: np.ndarray) -> np.ndarray:
        """Squared residual norm of every row of ``rows`` against the span."""
        rows = np.asarray(rows, dtype=np.complex128)
        if rows.ndim != 2 or rows.shape[1] != self.dim:
            raise DimensionError(f"expected shape (n, {self.dim}), got {rows.shape}")
        if self.size == 0:
            return (rows.real**2 + rows.imag**2).sum(axis=1)
        q = self._q
        res = rows - (rows @ q.conj().T) @ q
        res -= (res @ q.conj().T) @ q
        return (res.real**2 + res.imag**2).sum(axis=1)

    def add(self, h: np.ndarray) -> None:
        """Extend the span by h.

        Rejects a vector numerically inside the span and refuses to grow
        past the ambient dimension.
        """
        if self.size >= self.dim:
            raise FullSpaceError(f"basis already spans C^{self.dim}")
        h = np.asarray(h, dtype=np.complex128)
        r = self.residual(h)
        rnorm = float(np.linalg.norm(r))
        if rnorm <= RANK_TOL * float(np.linalg.norm(h)):
            raise RankDeficiencyError("vector is numerically inside the current span")
        self._q = np.vstack([self._q, r / rnorm])


def project_out(h: np.ndarray, basis) -> np.ndarray:
    """Project h onto the orthogonal complement of span(basis).

    ``basis`` is a sequence of vectors, possibly empty.  A basis with at
    least dim(h) vectors leaves no complement and raises FullSpaceError;
    numerically dependent basis vectors raise RankDeficiencyError.
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 1 or h.shape[0] < 1:
        raise DimensionError(f"h must be a non-empty vector, got shape {h.shape}")
    vecs = [np.asarray(b, dtype=np.complex128) for b in basis]
    if len(vecs) >= h.shape[0]:
        raise FullSpaceError(
            f"basis of {len(vecs)} vectors leaves no complement in C^{h.shape[0]}"
        )
    pb = ProjectionBasis(h.shape[0])
    for b in vecs:
        pb.add(b)
    return pb.residual(h)


def sin_sq_angle(h: np.ndarray, basis) -> float:
    """Squared sine of the angle between h and span(basis), in [0, 1].

    An empty basis gives exactly 1 (the angle is right by convention);
    a zero vector has no direction and raises DomainError.
    """
    h = np.asarray(h, dtype=np.complex128)
    norm_sq = squared_norm(h)
    if norm_sq == 0.0:
        raise DomainError("zero vector has no angle to a subspace")
    vecs = list(basis)
    if len(vecs) == 0:
        return 1.0
    res = project_out(h, vecs)
    val = squared_norm(res) / norm_sq
    return float(min(max(val, 0.0), 1.0))
