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
step through it.

Random streams are defined by `SeedSpec.generator()`. Taking the master
seed's pool from NumPy's SeedSequence and restating the rest of its
SeedSequence -> PCG64 seeding over many such streams at once, `_streams`
positions one reused generator at the start of each, and `_stream_words`
computes each stream's first 32-bit words without any generator.
"""

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import lru_cache

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

_TINY = np.finfo(np.float64).tiny  # the smallest normal float


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
    (T, n) uint32 array. Each PCG64 output, an LCG step and then XSL-RR,
    gives its low half first."""
    outputs = []
    for state, inc in _stream_states(seeds):
        for _ in range(-(-n // 2)):
            state = (state * _PCG_MULT + inc) & (2**128 - 1)
            x, rot = (state >> 64 ^ state) & (2**64 - 1), state >> 122
            outputs.append((x >> rot | x << 64 - rot) & (2**64 - 1))
    return np.array(outputs, dtype="<u8").reshape(len(seeds), -(-n // 2)).view("<u4")[:, :n]


def _restated_streams(seeds):
    seeds = list(seeds)
    rng = np.random.Generator(np.random.PCG64(0))  # every stream's state is set below
    for state, inc in _stream_states(seeds):
        rng.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


def _restated_seeding_matches() -> bool:
    """Whether the restated seeding and output words reproduce this NumPy's,
    checked on a pair whose master seed and stream index both take two words."""
    spec = SeedSpec(2**64 - 1, 2**32 + 7)
    state = next(_restated_streams([spec])).bit_generator.state
    raw = spec.generator().bit_generator.random_raw(3).astype("<u8").view("<u4")[:5]
    words = _stream_words([spec], 5)[0]
    return state == spec.generator().bit_generator.state and np.array_equal(words, raw)


_RESTATED_SEEDING = _restated_seeding_matches()


# Fewer specs than this are cheaper as one generator build each: on a
# 2-core VM (NumPy 2.4) the restated seeding took 72 us for 1 spec against
# 19-26 us built, 84-89 against 39-41 us for 2, about even at 4-5, and
# 137-153 against 169-215 us for 8.
_RESTATED_MIN = 5


def _restated(seeds) -> bool:
    """Whether a block of specs takes the restated seeding and words:
    `_RESTATED_MIN` or more, on a NumPy that seeds as restated."""
    return _RESTATED_SEEDING and len(seeds) >= _RESTATED_MIN


def _streams(seeds):
    """One generator per spec of the sequence ``seeds`` in order, each at
    the exact start of that spec's stream, so it draws what
    ``spec.generator()`` would.

    From `_RESTATED_MIN` specs on, the generator is one object
    repositioned for every spec: finish with it before taking the next.
    Fewer specs, or a NumPy that seeds differently from the restatement,
    get ``spec.generator()`` each.
    """
    if _restated(seeds):
        return _restated_streams(seeds)
    return (s.generator() for s in seeds)


def _seed_list(seed) -> list:
    """One spec, or a sequence of them, as a list of specs."""
    seeds = list(seed) if isinstance(seed, Sequence) else [seed]
    if not all(isinstance(s, SeedSpec) for s in seeds):
        raise ConfigError(f"seed must be a SeedSpec or a sequence of them, got {seed!r}")
    return seeds


@dataclass(frozen=True, eq=False)
class ChannelSet:
    """K user channels stacked as rows of a (K, M) complex array, or a
    block of T such sets as a (T, K, M) array, one per trial."""

    users: np.ndarray

    def __post_init__(self):
        users = _as_complex(self.users, "users")
        if users.ndim not in (2, 3):
            raise DimensionError(
                f"users must be a (K, M) or (T, K, M) array, got shape {users.shape}"
            )
        if min(users.shape) < 1:
            raise DimensionError(f"need T, K, M >= 1, got shape {users.shape}")
        if not np.isfinite(_squared_norms(users)).all():  # finite entries too
            raise DomainError("channel squared norms must be finite")
        object.__setattr__(self, "users", users)

    @property
    def K(self) -> int:
        return self.users.shape[-2]

    @property
    def M(self) -> int:
        return self.users.shape[-1]


def sample_channel_set(M: int, K: int, seed) -> ChannelSet:
    r"""Draw K channels with i.i.d. CN(0, 1) entries.

    Each entry is (a + jb) / sqrt(2) with a, b ~ N(0, 1).  An exact zero
    vector (probability zero, but representable in floats) would break
    the norm-based selection rules, so such rows are redrawn from the
    same stream.

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
    z = np.empty((len(seeds), K, M, 2))
    for z_t, rng in zip(z, _streams(seeds)):
        rng.standard_normal(out=z_t)
    users = (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)
    dead = (users.real**2 + users.imag**2).sum(axis=-1) == 0.0
    redraw = np.flatnonzero(dead.any(axis=-1))
    for t, rng in zip(redraw, _streams([seeds[t] for t in redraw])):
        rng.standard_normal((K, M, 2))  # the draw users[t] came from
        while (rows := np.flatnonzero(dead[t])).size:
            z = rng.standard_normal((rows.size, M, 2))
            users[t, rows] = (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)
            dead[t] = (users[t].real**2 + users[t].imag**2).sum(axis=-1) == 0.0
    return ChannelSet(users[0] if isinstance(seed, SeedSpec) else users)


def _as_complex(value, what: str) -> np.ndarray:
    """`value` as a complex128 array. Rows of unequal length and entries
    that are not numbers raise DimensionError naming `what`."""
    try:
        arr = np.asarray(value)
    except (ValueError, TypeError) as exc:  # how NumPy refuses ragged rows
        raise DimensionError(f"{what} must be an array of numbers: {exc}") from None
    if arr.dtype.kind not in "iufc":
        raise DimensionError(f"{what} must be an array of numbers, got dtype {arr.dtype}")
    return arr.astype(np.complex128, copy=False)


def squared_norm(h: np.ndarray) -> float:
    """Squared Euclidean norm ||h||^2 as a plain float."""
    h = _as_complex(h, "h")
    return float(np.real(np.vdot(h, h)))


def _squared_norms(rows: np.ndarray) -> np.ndarray:
    """Squared norm of every row along the last axis."""
    return np.einsum("...i,...i->...", rows.conj(), rows).real


def _complement_step(coords: np.ndarray, x: np.ndarray, x_sq) -> np.ndarray:
    """(..., K, m) row coordinates with the direction of x removed, as
    (..., K, m - 1) coordinates in an orthonormal basis of what is left.

    ``x`` is one (..., m) row per leading index and ``x_sq`` its squared
    norm. One complex Householder reflection (Householder 1958) takes x
    onto the first axis, is applied to every row, and that axis is
    dropped. An x of exactly zero drops the first axis as it is.
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
    return coords[..., 1:] - w * v[..., None, 1:]


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
