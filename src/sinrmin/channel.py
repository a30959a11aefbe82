r"""Channel vectors, seeded sampling, and subspace geometry.

Each user has a flat-fading channel h in C^M whose entries are i.i.d.
CN(0, 1): real and imaginary parts are independent N(0, 1/2), so that
E|h_m|^2 = 1 and E||h||^2 = M.  Selection and power routines only ever
need a channel's squared residual against the span of other channels.
One primitive provides it: `_complement_step` takes rows held in an
orthonormal basis of some subspace's orthogonal complement and removes
one more direction by a complex Householder reflection, dropping an
axis. A squared residual is then the plain sum of squares of a row's
remaining coordinates. The greedy selection rules, the exhaustive
search, `power.approx_min_power` and the public `sin_sq_angle` all
step through it, and `power._uplink_step` is its closed form on the
exact recursion's whitened coordinates, whose squared norm is h^H Z^-1 h.
A `ChannelSet` keeps the squared norms its finiteness check takes, by the
package's one formula, `_squared_norms`; selection and the search read them.

Random streams are defined by `SeedSpec.generator()`. Taking the master
seed's pool from NumPy's SeedSequence and restating the rest of its
SeedSequence -> PCG64 seeding over many such streams at once, `_streams`
positions one reused generator at the start of each. Every per-trial
draw goes through it: `_stream_normals` takes each stream's first
normals, and `_stream_words` its first 32-bit words.
"""

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    BudgetError,
    ConfigError,
    DimensionError,
    DomainError,
    FullSpaceError,
    RankDeficiencyError,
)

# A residual shorter than RANK_TOL times the vector it came from is
# treated as numerically zero.
RANK_TOL = 1e-12

_TINY = np.finfo(np.float64).tiny  # the smallest normal float

_SAMPLE_BYTES = 1 << 28  # the cap of a draw's normals and channels, 32 bytes an entry


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
        # a NumPy integer is stored as an int, so equal specs hash alike
        if type(self.master_seed) is not int and isinstance(self.master_seed, np.integer):
            object.__setattr__(self, "master_seed", int(self.master_seed))
        if type(self.stream_index) is not int and isinstance(self.stream_index, np.integer):
            object.__setattr__(self, "stream_index", int(self.stream_index))
        if type(self.master_seed) is not int or not 0 <= self.master_seed < 2**64:
            raise ConfigError(
                f"master_seed must be an unsigned 64-bit integer, got {self.master_seed!r}"
            )
        if type(self.stream_index) is not int or self.stream_index < 0:
            raise ConfigError(
                f"stream_index must be a non-negative integer, got {self.stream_index!r}"
            )

    def generator(self) -> np.random.Generator:
        """Fresh generator for this (master_seed, stream_index) pair."""
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_index,))
        return np.random.Generator(np.random.PCG64(seq))


# NumPy's SeedSequence (pool of four uint32 words) and PCG64 seeding
# (NEP 19; O'Neill, "PCG", 2014), restated as integer arithmetic on
# Python ints masked to 32 bits or on uint32 arrays, which wrap silently.
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_RESTATED_RNG = np.random.Generator(np.random.PCG64(0))  # `_restated_streams` sets its state


def _hashmix(value, const, mult: int = _MULT_A):
    """SeedSequence's word hash; returns the hashed word and the next
    constant. An array of constants hashes with each in turn, at once."""
    const_next = const * mult & _M32
    value = (value ^ const) * const_next & _M32
    return value ^ value >> 16, const_next


def _hash_run(const: int, mult: int, n: int):
    """The constants of n successive hashes from ``const`` as an (n, 1)
    uint32 array, and the constant after them."""
    run = []
    for _ in range(n):
        run.append(const)
        const = const * mult & _M32
    return np.array(run, dtype=np.uint32)[:, None], const


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _M32
    return r ^ r >> 16


# the hash constant after the master seed's words fill and mix the pool:
# sixteen hashes on from _INIT_A, whatever the master seed
_MASTER_CONST = _INIT_A * pow(_MULT_A, 16, 2**32) & _M32


@lru_cache(maxsize=16)
def _master_pool(master_seed: int) -> tuple[int, ...]:
    """NumPy's pool after mixing the master seed's words, zero-padded to the
    pool size as for any spawned sequence; the same for every stream index."""
    return tuple(np.random.SeedSequence(master_seed).pool.tolist())


def _stream_states(seeds) -> list[tuple[int, int]]:
    """PCG64 (state, inc) at the start of each spec's stream."""
    if not seeds:
        return []
    first = {}
    which = [first.setdefault(s.master_seed, len(first)) for s in seeds]
    pool = np.array([_master_pool(m) for m in first], dtype=np.uint32)[which].T
    const = _MASTER_CONST
    # the spawn key adds one word per 32 bits of the index, at least one,
    # each hashed once per pool word and mixed into it
    key = np.array([s.stream_index for s in seeds], dtype=object)
    live = np.ones(len(seeds), dtype=bool)
    while live.any():
        run, const = _hash_run(const, _MULT_A, 4)
        value, _ = _hashmix((key & _M32).astype(np.uint32), run)
        pool = np.where(live, _mix(pool, value), pool)
        key = key >> 32
        live = key != 0
    # generate_state(4, uint64): eight words cycling the pool, read as
    # little-endian uint64 pairs
    run, _ = _hash_run(_INIT_B, _MULT_B, 8)
    words, _ = _hashmix(np.concatenate([pool, pool]), run, _MULT_B)
    seeded = np.ascontiguousarray(words.T, dtype="<u4").view("<u8").tolist()
    states = []
    for s0, s1, s2, s3 in seeded:
        # pcg_setseq_128_srandom_r: two LCG steps from state 0
        inc = ((s2 << 64 | s3) << 1 | 1) & (2**128 - 1)
        states.append((((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & (2**128 - 1), inc))
    return states


def _stream_words(seeds, n: int):
    """The first n words `next_uint32` hands out on each spec's stream, as a
    (T, n) uint32 array: the low half of each raw PCG64 output first."""
    half = -(-n // 2)
    raw = [rng.bit_generator.random_raw(half) for rng in _streams(seeds)]
    return np.array(raw, dtype="<u8").reshape(len(raw), half).view("<u4")[:, :n]


def _restated_streams(seeds):
    for state, inc in _stream_states(list(seeds)):
        _RESTATED_RNG.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield _RESTATED_RNG


def _restated_seeding_matches() -> bool:
    """Whether the restated seeding reproduces this NumPy's, checked on a
    pair whose master seed and stream index both take two words."""
    spec = SeedSpec(2**64 - 1, 2**32 + 7)
    state = next(_restated_streams([spec])).bit_generator.state
    return state == spec.generator().bit_generator.state


_RESTATED_SEEDING = _restated_seeding_matches()


def _streams(seeds):
    """One generator per spec of the sequence ``seeds`` in order, each at
    the exact start of that spec's stream, so it draws what
    ``spec.generator()`` would.

    Where this NumPy seeds as restated, the generator is one object, built
    at import and shared by every call, repositioned for every spec: finish
    with it before taking the next spec from any call. Otherwise each spec
    gets ``spec.generator()``.
    """
    if _RESTATED_SEEDING:
        return _restated_streams(seeds)
    return (s.generator() for s in seeds)


def _seed_list(seed) -> list:
    """One spec, or a sequence of them, as a list of specs."""
    seeds = list(seed) if isinstance(seed, Sequence) else [seed]
    if not seeds or not all(isinstance(s, SeedSpec) for s in seeds):
        raise ConfigError(f"seed must be a SeedSpec or a non-empty sequence of them, got {seed!r}")
    return seeds


@dataclass(frozen=True, eq=False)
class ChannelSet:
    """K user channels stacked as rows of a (K, M) complex array, or a
    block of T such sets as a (T, K, M) array, one per trial. `users` is a
    read-only view; `_norms` keeps the squared norms the set checks, (T, K)
    or (1, K) for one set, which selection reads. A row of zeros is kept:
    the rules score it 0, and pricing raises DomainError."""

    users: np.ndarray

    def __post_init__(self):
        users = _as_complex(self.users, "users").view()
        if users.ndim not in (2, 3):
            raise DimensionError(
                f"users must be a (K, M) or (T, K, M) array, got shape {users.shape}"
            )
        if min(users.shape) < 1:
            raise DimensionError(f"need T, K, M >= 1, got shape {users.shape}")
        norms = _squared_norms(users).reshape(-1, users.shape[-2])
        if not np.isfinite(norms).all():  # finite entries too
            raise DomainError("channel squared norms must be finite")
        for name, value in (("users", users), ("_norms", norms)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __reduce__(self):  # pickle and deepcopy rebuild through the checks
        return ChannelSet, (self.users,)

    @property
    def K(self) -> int:
        return self.users.shape[-2]

    @property
    def M(self) -> int:
        return self.users.shape[-1]


def sample_channel_set(M: int, K: int, seed) -> ChannelSet:
    r"""Draw K channels with i.i.d. CN(0, 1) entries, kept as drawn.

    Each entry is (a + jb) / sqrt(2) with a, b ~ N(0, 1). A draw past
    `_SAMPLE_BYTES` raises BudgetError before anything is allocated.

    Args:
        M: number of transmit antennas (entries per vector).
        K: number of users.
        seed: stream to draw from; equal seeds give bit-identical sets.
            A sequence of T streams gives a (T, K, M) block whose set t
            is bit-identical to what stream t alone gives.
    """
    if not all(isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 1
               for n in (M, K)):
        raise DimensionError(f"need integers M >= 1 and K >= 1, got M={M!r}, K={K!r}")
    seeds = _seed_list(seed)
    if (size := 32 * len(seeds) * int(K) * int(M)) > _SAMPLE_BYTES:
        raise BudgetError(f"{len(seeds)} sets of {K} x {M} channels take {size} bytes to "
                          f"draw, over {_SAMPLE_BYTES}")
    users = _users(_stream_normals(seeds, (K, M, 2)), M, K)
    return ChannelSet(users[0] if isinstance(seed, SeedSpec) else users)


def _stream_normals(seeds, shape: tuple) -> np.ndarray:
    """The first standard normals of each spec's stream, as a (T, *shape)
    array. NumPy fills them in order, so a shorter draw is a prefix of a
    longer one."""
    z = np.empty((len(seeds), *shape))
    for z_t, rng in zip(z, _streams(seeds)):
        rng.standard_normal(out=z_t)
    return z


def _users(z: np.ndarray, M: int, K: int) -> np.ndarray:
    """(T, K, M) channels from the first 2 K M normals of each trial's in `z`."""
    z = z.reshape(len(z), -1)[:, : 2 * K * M].reshape(-1, K, M, 2)
    return (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)


def _array(value, what: str, kinds: str, error=DimensionError) -> np.ndarray:
    """`value` as an array whose dtype kind is one of `kinds`. Rows of unequal
    length and entries of another kind raise `error`, saying `what` it must be."""
    try:
        arr = np.asarray(value)
    except (ValueError, TypeError):  # how NumPy refuses ragged rows
        arr = np.asarray(None)
    if arr.dtype.kind not in kinds:
        raise error(f"{what}, got {value!r}")
    return arr


def _as_complex(value, what: str) -> np.ndarray:
    """`value` as a complex128 array; see `_array`."""
    return _array(value, f"{what} must be an array of numbers", "iufc").astype(
        np.complex128, copy=False)


def squared_norm(h: np.ndarray) -> float:
    """Squared Euclidean norm ||h||^2 as a plain float."""
    return float(_squared_norms(_as_complex(h, "h").ravel()))


def _squared_norms(rows: np.ndarray) -> np.ndarray:
    """Squared norm of every row along the last axis: the einsum of the
    rows' float64 view with itself, which rounds a row alike in any layout.
    Only a last axis that is not contiguous is copied."""
    if rows.strides[-1] != rows.itemsize:
        rows = np.ascontiguousarray(rows)
    flat = rows.view(np.float64)
    return np.einsum("...i,...i->...", flat, flat)


def _complement_step(coords: np.ndarray, x: np.ndarray, x_sq) -> np.ndarray:
    """(..., K, m) row coordinates with the direction of x removed, as
    (..., K, m - 1) coordinates in an orthonormal basis of what is left.

    ``x`` is one (..., m) row per leading index and ``x_sq`` its squared
    norm. One complex Householder reflection (Householder 1958) takes x
    onto the first axis, is applied to every row, and that axis is
    dropped. An x of exactly zero drops the first axis as it is. The
    rank-one update is subtracted a column at a time, each call along K.
    """
    # v = x + e^{i arg x_1} |x| e_1 reflects x to a multiple of e_1 and,
    # adding like phases, never cancels; v^H v = 2 |x| (|x| + |x_1|). A
    # subnormal |x_1| would overflow x_1 / |x_1|, and beside a |x| whose
    # square did not underflow it is negligible, so phase 1 serves.
    v = x.copy()
    norm, head = np.sqrt(x_sq), np.abs(v[..., 0])
    phase = np.divide(v[..., 0], head, out=np.ones_like(v[..., 0]), where=head >= _TINY)
    v[..., 0] += norm * phase
    half = (norm * (norm + head))[..., None, None]
    w = np.divide(coords @ v.conj()[..., :, None], half,
                  out=np.zeros(coords.shape[:-1] + (1,), complex), where=half > 0)
    out = np.empty(w.shape[:-1] + (x.shape[-1] - 1,), complex)
    for j in range(1, x.shape[-1]):
        np.subtract(coords[..., j], w[..., 0] * v[..., j, None], out=out[..., j - 1])
    return out


def sin_sq_angle(h: np.ndarray, basis) -> float:
    """Squared sine of the angle between h and span(basis), in [0, 1].

    An empty basis gives exactly 1 (the angle is right by convention);
    a zero vector has no direction and raises DomainError. A basis with
    at least dim(h) vectors leaves no complement and raises
    FullSpaceError; numerically dependent basis vectors raise
    RankDeficiencyError.
    """
    h = _as_complex(h, "h")
    if h.ndim != 1 or h.shape[0] < 1:
        raise DimensionError(f"h must be a non-empty vector, got shape {h.shape}")
    if not h.any():
        raise DomainError("zero vector has no angle to a subspace")
    if not isinstance(basis, Iterable):
        raise DimensionError(f"basis must be a sequence of vectors, got {basis!r}")
    vecs = [_as_complex(b, "basis vectors") for b in basis]
    if len(vecs) >= h.shape[0]:
        raise FullSpaceError(
            f"basis of {len(vecs)} vectors leaves no complement in C^{h.shape[0]}"
        )
    if any(b.shape != h.shape for b in vecs):
        raise DimensionError(f"basis vectors must have shape {h.shape}")
    # sin^2 does not depend on scale, so each row is scaled by the power of two
    # that puts its largest part in [0.5, 1): exact, and no square leaves range
    parts = np.vstack([*vecs, h]).view(np.float64)
    coords = np.ldexp(parts, -np.frexp(np.abs(parts).max(axis=1, keepdims=True))[1])
    coords = coords.view(np.complex128)
    norm_sq = _squared_norms(coords[-1])  # the sum each residual takes, so [] gives 1 exactly
    for b_sq in _squared_norms(coords[:-1]):
        x_sq = _squared_norms(coords[0])
        if x_sq <= RANK_TOL**2 * b_sq:
            raise RankDeficiencyError("basis vectors are numerically dependent")
        coords = _complement_step(coords[1:], coords[0], x_sq)
    return float(min(max(_squared_norms(coords[0]) / norm_sq, 0.0), 1.0))
