"""Geometry and sampling tests: frozen values first, then distributional checks."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import betainc, gammainc

from sinrmin import channel
from sinrmin.channel import (
    ChannelSet,
    RANK_TOL,
    SeedSpec,
    _complement_step,
    _squared_norms,
    sample_channel_set,
    sin_sq_angle,
    squared_norm,
)
from sinrmin.errors import (
    BudgetError,
    ConfigError,
    DimensionError,
    DomainError,
    FullSpaceError,
    RankDeficiencyError,
)
from sinrmin.power import SinrTargets, approx_min_power
from sinrmin.selection import select_rus

# ---------------------------------------------------------------------------
# seeding


def test_seed_spec_generator_deterministic():
    a = SeedSpec(12345, 7).generator().standard_normal(16)
    b = SeedSpec(12345, 7).generator().standard_normal(16)
    assert np.array_equal(a, b)


def test_seed_spec_streams_differ():
    a = SeedSpec(12345, 0).generator().standard_normal(16)
    b = SeedSpec(12345, 1).generator().standard_normal(16)
    assert not np.array_equal(a, b)


def test_seed_spec_validation():
    with pytest.raises(ConfigError):
        SeedSpec(-1, 0)
    with pytest.raises(ConfigError):
        SeedSpec(2**64, 0)
    with pytest.raises(ConfigError):
        SeedSpec(3, -1)


def test_seed_spec_takes_numpy_integers():
    spec = SeedSpec(np.uint64(2**64 - 1), np.int64(3))
    assert spec == SeedSpec(2**64 - 1, 3) and hash(spec) == hash(SeedSpec(2**64 - 1, 3))
    assert type(spec.master_seed) is int and type(spec.stream_index) is int
    assert np.array_equal(sample_channel_set(3, 4, spec).users,
                          sample_channel_set(3, 4, SeedSpec(2**64 - 1, 3)).users)
    for bad in (True, np.True_, np.int64(-1), np.float64(5.0)):
        with pytest.raises(ConfigError):
            SeedSpec(bad)
        with pytest.raises(ConfigError):
            SeedSpec(0, bad)


_INDEX_EDGES = [0, 1, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, 2**64]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**64 - 1) | st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]),
    st.lists(st.integers(0, 2**70) | st.sampled_from(_INDEX_EDGES), min_size=1, max_size=10),
    st.integers(1, 12),
)
def test_streams_match_seed_spec_generators(master, indices, k):
    specs = [SeedSpec(master, i) for i in indices]
    for spec, words in zip(specs, channel._stream_words(specs, 2 * k - 1), strict=True):
        raw = spec.generator().bit_generator.random_raw(k).astype("<u8").view("<u4")
        assert np.array_equal(words, raw[: 2 * k - 1])
    for streams in (channel._streams, channel._restated_streams):
        normals = [rng.standard_normal(7) for rng in streams(specs)]
        picks = [rng.choice(k, size=min(k, 3), replace=False) for rng in streams(specs)]
        for spec, z, pick in zip(specs, normals, picks, strict=True):
            assert np.array_equal(z, spec.generator().standard_normal(7))
            assert np.array_equal(pick, spec.generator().choice(k, size=min(k, 3), replace=False))


def test_streams_fall_back_to_seed_spec_generators(monkeypatch):
    specs = [SeedSpec(3, i) for i in (0, 5, 2**32 + 2, *range(6, 11))]
    block = sample_channel_set(4, 6, specs).users
    assert channel._restated_seeding_matches()
    # a NumPy that seeded PCG64 differently would fail the import-time check
    monkeypatch.setattr(channel, "_PCG_MULT", channel._PCG_MULT + 2)
    assert not channel._restated_seeding_matches()
    monkeypatch.setattr(channel, "_RESTATED_SEEDING", False)
    rngs = list(channel._streams(specs))
    assert len({id(rng) for rng in rngs}) == len(specs)
    for rng, spec in zip(rngs, specs):
        assert rng.bit_generator.state == spec.generator().bit_generator.state
    assert np.array_equal(sample_channel_set(4, 6, specs).users, block)


def test_streams_build_no_generator_after_import(monkeypatch):
    # _streams repositions one generator built at import, on every call
    assert channel._RESTATED_SEEDING
    built, pcg64 = [], np.random.PCG64

    def counting(*args, **kwargs):
        built.append(args)
        return pcg64(*args, **kwargs)

    monkeypatch.setattr(np.random, "PCG64", counting)
    specs = [SeedSpec(7, i) for i in range(5)]
    channel._stream_normals(specs, (3, 4, 2))
    channel._stream_words(specs, 7)
    # the third stream's Lemire draw rejects a word (see test_selection.py),
    # and past K = 10,000 every trial calls choice
    rejecting = [SeedSpec(20261018, i) for i in range(70385, 70390)]
    for k, seeds in ((12, specs), (8839, rejecting), (10_001, specs)):
        select_rus(ChannelSet(np.ones((len(seeds), k, 4), dtype=complex)), 4, seeds)
    assert built == []


# ---------------------------------------------------------------------------
# sampling


def test_sample_channel_set_shape_and_determinism():
    cs1 = sample_channel_set(4, 10, SeedSpec(99, 0))
    cs2 = sample_channel_set(4, 10, SeedSpec(99, 0))
    assert cs1.users.shape == (10, 4)
    assert cs1.K == 10 and cs1.M == 4
    assert np.array_equal(cs1.users, cs2.users)
    cs3 = sample_channel_set(4, 10, SeedSpec(99, 1))
    assert not np.array_equal(cs1.users, cs3.users)


def test_sample_channel_set_moments():
    # E||h||^2 = M; with K*trials = 2e5 vectors the sample mean is tight.
    cs = sample_channel_set(4, 200_000, SeedSpec(2024, 0))
    norms = (cs.users.real**2 + cs.users.imag**2).sum(axis=1)
    assert abs(norms.mean() - 4.0) < 0.05
    # real and imaginary parts each carry half the energy
    assert abs((cs.users.real**2).sum(axis=1).mean() - 2.0) < 0.05


def test_a_zero_row_is_kept_as_drawn_and_pricing_refuses_it(monkeypatch):
    specs = [SeedSpec(8, i) for i in range(10)]
    M, K, t, row = 3, 4, 5, 2
    reference = sample_channel_set(M, K, specs).users
    streams = channel._streams

    class ZeroRow:  # trial t's draw comes out with one all-zero row
        def __init__(self, rng):
            self.rng = rng

        def standard_normal(self, *args, out=None):
            drawn = self.rng.standard_normal(*args, out=out)
            if out is not None:  # the set's draw, not a later one
                out[row] = 0.0
            return drawn

    def patched(seeds):
        for spec, rng in zip(seeds, streams(seeds)):
            yield ZeroRow(rng) if spec == specs[t] else rng

    monkeypatch.setattr(channel, "_streams", patched)
    cs = sample_channel_set(M, K, specs)
    drawn = np.ones(cs._norms.shape, dtype=bool)
    drawn[t, row] = False
    assert np.array_equal(cs.users[drawn], reference[drawn])
    assert not cs.users[t, row].any() and cs._norms[t, row] == 0.0
    with pytest.raises(DomainError, match=f"channel {row} has zero norm"):
        approx_min_power(cs.users[t], SinrTargets(10.0, 0.1))


def test_sample_channel_set_checks_its_bytes_before_drawing(monkeypatch):
    # 32 TiB of normals and channels: refused before the allocator is asked
    with pytest.raises(BudgetError, match="bytes to draw, over 268435456$"):
        sample_channel_set(2**20, 2**20, SeedSpec(0))
    # 32 bytes an entry, its two normals and its complex value
    monkeypatch.setattr(channel, "_SAMPLE_BYTES", 32 * 2 * 3 * 4)
    assert sample_channel_set(4, 3, [SeedSpec(0, i) for i in range(2)]).users.shape == (2, 3, 4)
    with pytest.raises(BudgetError):
        sample_channel_set(4, 3, [SeedSpec(0, i) for i in range(3)])


def test_sample_channel_set_edge_dims():
    cs = sample_channel_set(1, 1, SeedSpec(5, 0))
    assert cs.users.shape == (1, 1)
    assert squared_norm(cs.users[0]) > 0.0
    with pytest.raises(DimensionError):
        sample_channel_set(0, 3, SeedSpec(5, 0))
    with pytest.raises(DimensionError):
        sample_channel_set(3, 0, SeedSpec(5, 0))


@pytest.mark.parametrize("call, args, error", [
    (SeedSpec, (True, 0), ConfigError),
    (SeedSpec, (0, True), ConfigError),
    (SeedSpec, (True, True), ConfigError),
    (SeedSpec, (0, "1"), ConfigError),
    (sample_channel_set, (True, 3, SeedSpec(0)), DimensionError),
    (sample_channel_set, (3, False, SeedSpec(0)), DimensionError),
    (sample_channel_set, (3, None, SeedSpec(0)), DimensionError),
    (sin_sq_angle, (np.array([1.0, 2.0j, 3.0]), 5), DimensionError),
    (sin_sq_angle, (np.array([1.0, 2.0j, 3.0]), None), DimensionError),
    (squared_norm, (None,), DimensionError),
    (squared_norm, ("ab",), DimensionError),
    (squared_norm, ([object()],), DimensionError),
    # text entries and ragged rows: a package error, not NumPy's ValueError
    (sin_sq_angle, (np.array([1.0, 2.0j, 3.0]), "ab"), DimensionError),
    (squared_norm, ([[1, 2], [3]],), DimensionError),
    (ChannelSet, ([[1, 2], [3]],), DimensionError),
])
def test_channel_entry_points_raise_package_errors(call, args, error):
    with pytest.raises(error):
        call(*args)


def test_channel_set_validation():
    with pytest.raises(DimensionError):
        ChannelSet(np.zeros(3))
    with pytest.raises(DimensionError):
        ChannelSet(np.zeros((0, 3)))


# 1e200 is finite, but its square, and so the row's squared norm, is not
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan), 1e200])
def test_channel_set_rejects_non_finite(bad):
    users = np.ones((5, 3), dtype=complex)
    users[2, 1] = bad
    with pytest.raises(DomainError):
        ChannelSet(users)


def test_channel_set_users_are_read_only_and_keep_their_norms():
    h = sample_channel_set(3, 5, [SeedSpec(1, i) for i in range(4)]).users.copy()
    for users in (h, h[1]):
        cs = ChannelSet(users)
        with pytest.raises(ValueError):
            cs.users[0, 0] = 1
        with pytest.raises(ValueError):
            cs._norms[0, 0] = 1.0
        assert users.flags.writeable and np.shares_memory(cs.users, users)
        # a block's norms are (T, K), one set's (1, K)
        norms = _squared_norms(cs.users).reshape(-1, 5)
        assert cs._norms.shape == norms.shape == (len(h) if users.ndim == 3 else 1, 5)
        assert cs._norms.tobytes() == norms.tobytes()


def test_channel_set_pickles_and_copies_through_its_checks():
    cs = sample_channel_set(3, 5, [SeedSpec(1, i) for i in range(4)])
    for back in (pickle.loads(pickle.dumps(cs)), copy.deepcopy(cs)):
        with pytest.raises(ValueError):
            back.users[0, 0, 0] = 1
        assert not back._norms.flags.writeable
        assert back.users.tobytes() == cs.users.tobytes()
        assert back._norms.tobytes() == cs._norms.tobytes()


@st.composite
def _layouts(draw):
    """A (T, n, M) complex block of entries over many scales, laid out as
    drawn, strided as selection and the stacked pricing rows are, or in
    Fortran order."""
    t, n, m = draw(st.integers(1, 5)), draw(st.integers(1, 7)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.standard_normal((t, n, m, 2)) * 2.0 ** rng.integers(-40, 40, (t, n, m, 2))
    h = z[..., 0] + 1j * z[..., 1]
    layout = draw(st.sampled_from(["C", "reversed", "taken", "F"]))
    if layout == "reversed":
        return h[:, ::-1]
    if layout == "taken":
        order = rng.permuted(np.tile(np.arange(n), (t, 1)), axis=1)[..., None]
        return np.take_along_axis(h[None], order[None], axis=2)[0, :, : max(1, n - 1)]
    return np.asfortranarray(h) if layout == "F" else h


@settings(max_examples=100, deadline=None)
@given(_layouts())
def test_row_norms_equal_each_rows_own_bit_for_bit(h):
    # a block's kept norms serve every slice of it: the DP's chunks, the
    # first residual of a pricing call and its picked rows
    norms = _squared_norms(h)
    flat = np.ascontiguousarray(h).view(np.float64)  # the one formula
    assert norms.tobytes() == np.einsum("...i,...i->...", flat, flat).tobytes()
    for i in range(h.shape[1]):
        assert norms[..., i].tobytes() == _squared_norms(h[..., i, :]).tobytes()
    assert norms[1:].tobytes() == _squared_norms(h[1:]).tobytes()
    assert squared_norm(h) == float(_squared_norms(h.ravel()))


def test_squared_norm_values():
    assert squared_norm(np.array([1.0, 0.0, 0.0])) == 1.0
    assert squared_norm(np.array([1.0, 1.0])) == 2.0
    assert squared_norm(np.array([3.0 + 4.0j])) == pytest.approx(25.0, rel=1e-15)


# ---------------------------------------------------------------------------
# projections onto the orthogonal complement of a span


def _randn(rng, shape):
    z = rng.standard_normal(shape + (2,))
    return z[..., 0] + 1j * z[..., 1]


def _step_through(coords, n):
    """Step (..., K, m) coordinates by their first n rows in turn; the
    squared residual of each of those rows, and the coordinates of the rest."""
    res2 = []
    for _ in range(n):
        res2.append(_squared_norms(coords[..., 0, :]))
        coords = _complement_step(coords[..., 1:, :], coords[..., 0, :], res2[-1])
    return res2, coords


def _residual_against(h, vecs):
    """Residual of h against span(vecs), through the complement step.

    Stepped along with h, the rows of the identity become the columns U of
    an orthonormal basis of the complement, so the residual is (h U) U^H.
    """
    m = h.shape[0]
    vecs = np.array(vecs, dtype=complex).reshape(-1, m)
    _, coords = _step_through(np.vstack([vecs, h, np.eye(m)]), len(vecs))
    return coords[0] @ coords[1:].conj().T


def _residuals(rows, basis):
    """Components of (..., n, M) rows, or of one (M,) row given back as
    (..., M), orthogonal to the span of (..., j, M) basis rows, per
    leading index after broadcasting, through the complement step."""
    if rows.ndim == 1:
        return _residuals(rows[None], basis)[..., 0, :]
    m, n = rows.shape[-1], rows.shape[-2]
    lead = np.broadcast_shapes(rows.shape[:-2], basis.shape[:-2])
    coords = np.concatenate([
        np.broadcast_to(basis, lead + basis.shape[-2:]),
        np.broadcast_to(rows, lead + rows.shape[-2:]),
        np.broadcast_to(np.eye(m, dtype=complex), lead + (m, m)),
    ], axis=-2)
    _, coords = _step_through(coords, basis.shape[-2])
    return coords[..., :n, :] @ coords[..., n:, :].conj().swapaxes(-1, -2)


def _lstsq_res2(h, vecs):
    """Squared residual of h against span(vecs) from an lstsq projection."""
    if not len(vecs):
        return squared_norm(h)
    b = np.array(vecs).T
    coef = np.linalg.lstsq(b, h, rcond=None)[0]
    return squared_norm(h - b @ coef)


def test_project_out_axis_example():
    h = np.array([1.0, 1.0, 0.0], dtype=complex)
    res = _residual_against(h, [np.array([1.0, 0.0, 0.0], dtype=complex)])
    assert np.allclose(res, [0.0, 1.0, 0.0], atol=1e-14)


def test_project_out_empty_basis_is_identity():
    h = np.array([1.0 + 2.0j, -3.0j])
    assert np.array_equal(_residual_against(h, []), h)


def test_project_out_in_span_is_zero():
    b = np.array([1.0, 2.0, -1.0], dtype=complex)
    res = _residual_against(3.5j * b, [b])
    assert np.linalg.norm(res) < 1e-12 * np.linalg.norm(b)


def test_project_out_full_space_error():
    h = np.array([1.0, 1.0], dtype=complex)
    basis = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    with pytest.raises(FullSpaceError):
        sin_sq_angle(h, basis)


def test_project_out_rank_deficiency_error():
    h = np.array([1.0, 1.0, 0.0], dtype=complex)
    b = np.array([1.0, 0.0, 0.0], dtype=complex)
    with pytest.raises(RankDeficiencyError):
        sin_sq_angle(h, [b, 2.0 * b])


def test_projection_basis_rejects_zero_vector():
    h = np.array([1.0, 1.0, 0.0], dtype=complex)
    with pytest.raises(RankDeficiencyError):
        sin_sq_angle(h, [np.zeros(3, dtype=complex)])
    # the step itself drops the first axis as it is for an exactly zero x,
    # per leading index: the span removed is that axis, nothing is rotated
    rows = _randn(SeedSpec(6, 0).generator(), (2, 4, 3))
    x = np.stack([np.zeros(3, dtype=complex), rows[1, 0]])
    out = _complement_step(rows, x, _squared_norms(x))
    assert np.array_equal(out[0], rows[0, :, 1:])
    assert not np.allclose(out[1], rows[1, :, 1:])


def test_residual_norms_sq_matches_residual():
    rows = _randn(SeedSpec(7, 0).generator(), (6, 4))
    _, batch = _step_through(rows, 2)
    for r, coords in zip(rows[2:], batch):
        _, single = _step_through(np.vstack([rows[:2], r[None]]), 2)
        assert _squared_norms(coords) == pytest.approx(_squared_norms(single[0]), rel=1e-12)
        assert _squared_norms(coords) == pytest.approx(_lstsq_res2(r, rows[:2]), rel=1e-12)


def test_complement_step_res2_matches_lstsq():
    # each row's squared residual against the rows before it, for as many
    # rows as axes; the identity's coordinates stay an orthonormal basis
    rng = SeedSpec(8, 0).generator()
    for m in (1, 2, 5):
        for _ in range(20):
            rows = _randn(rng, (m, m))
            res2, rest = _step_through(np.vstack([rows, np.eye(m)]), m)
            for i in range(m):
                assert res2[i] == pytest.approx(_lstsq_res2(rows[i], rows[:i]), rel=1e-12)
            assert rest.shape == (m, 0)
        _, basis = _step_through(np.vstack([rows[:2], np.eye(m)]), min(m, 2))
        assert np.allclose(basis.conj().T @ basis, np.eye(max(m - 2, 0)), atol=1e-14)
        assert np.allclose(rows[:2] @ basis, 0.0, atol=1e-14)


def test_complement_step_dependent_and_zero_rows_fall_below_floor():
    # the callers' rank floor: a squared residual at or below RANK_TOL^2 times
    # the row's squared norm counts as zero. Dependent and zero rows land
    # there, a row with a small independent part stays above it.
    rng = SeedSpec(10, 0).generator()
    a, b = _randn(rng, (2, 5))
    e = np.linalg.svd(np.vstack([a, b]))[2][-1].conj()  # orthogonal to a and b
    rows = np.vstack([a, b, (2 - 1j) * a + 3.5 * b, np.zeros(5), a + 1e-6 * e, b])
    norms = _squared_norms(rows)
    _, rest = _step_through(rows, 2)
    rest2 = _squared_norms(rest)
    floor = RANK_TOL**2 * norms[2:]
    assert rest2[0] <= floor[0] and rest2[1] == 0.0 and rest2[3] <= floor[3]
    assert rest2[2] > floor[2]
    assert rest2[2] == pytest.approx(1e-12 * squared_norm(e), rel=1e-6)
    # stepping by a dependent row, reflected or dropped as it is, still
    # projects: the zero row stays zero and the other row does not grow
    for x_sq in (rest2[0], 0.0):
        after = _squared_norms(_complement_step(rest[1:3], rest[0], x_sq))
        assert after[0] == 0.0 and after[1] <= rest2[2] * (1 + 1e-12)


def test_complement_step_subnormal_first_coordinate():
    # x_1 / |x_1| overflows for a subnormal x_1; the step must still project
    rows = _randn(SeedSpec(11, 0).generator(), (3, 3))
    for first in (1e-311, -2.2e-311j, 5e-324):
        x = np.array([first, 1.0, -0.5j])
        _, rest = _step_through(np.vstack([x, rows]), 1)
        assert np.isfinite(rest).all()
        for r, got in zip(rows, _squared_norms(rest)):
            assert got == pytest.approx(_lstsq_res2(r, [x]), rel=1e-12)
        want = _lstsq_res2(rows[0], [x]) / squared_norm(rows[0])
        assert sin_sq_angle(rows[0], [x]) == pytest.approx(want, rel=1e-12)


def test_complement_step_broadcasts_over_leading_axes():
    # one (m,) row x per leading index, any number of rows: each leading
    # index gets what it would alone
    rng = SeedSpec(9, 0).generator()
    for k in (0, 1, 4):
        coords = _randn(rng, (5, 3, k, 4))
        x = _randn(rng, (5, 3, 4))
        out = _complement_step(coords, x, _squared_norms(x))
        assert out.shape == (5, 3, k, 3)
        for t in range(5):
            for u in range(3):
                alone = _complement_step(coords[t, u], x[t, u], _squared_norms(x[t, u]))
                assert np.array_equal(out[t, u], alone)


def test_complement_step_rows_beyond_the_axes():
    # more rows than axes: after M steps every further row has no
    # coordinates left, so its squared residual is exactly zero
    rows = _randn(SeedSpec(9, 1).generator(), (3, 7, 4))
    res2, rest = _step_through(rows, 4)
    assert rest.shape == (3, 3, 0)
    assert np.array_equal(_squared_norms(rest), np.zeros((3, 3)))
    for t in range(3):
        for i in range(4):
            assert res2[i][t] == pytest.approx(_lstsq_res2(rows[t, i], rows[t, :i]), rel=1e-12)


def test_residuals_empty_basis_broadcasts_like_one_row():
    # no basis rows: the rows come back as they are, broadcast to the
    # shape one basis row would give
    stack = _randn(SeedSpec(9, 0).generator(), (5, 3, 4))
    cases = [
        (stack[:, :1], stack), (stack[0], stack), (stack[0, 0], stack[0]),
        (stack[0, 0], stack),
    ]
    for rows, q in cases:
        empty = _residuals(rows, q[..., :0, :])
        one_row = _residuals(rows, q[..., :1, :])
        assert empty.shape == one_row.shape
        assert np.array_equal(empty, np.broadcast_to(rows, one_row.shape))
    assert _residuals(stack[:, :1], stack[:, :0]).shape == (5, 1, 4)


def test_residuals_one_vector_against_stacked_basis():
    # one vector against a stack of bases: each trial gets what it would alone
    basis = _randn(SeedSpec(9, 1).generator(), (5, 3, 4))
    h = np.array([1.0, 2.0, -1.0, 0.5j])
    for j in range(4):
        res = _residuals(h, basis[:, :j])
        assert res.shape == (5, 4)
        for t in range(5):
            assert np.array_equal(res[t], _residuals(h, basis[t, :j]))
            assert squared_norm(res[t]) == pytest.approx(_lstsq_res2(h, basis[t, :j]), rel=1e-12)


# ---------------------------------------------------------------------------
# angles


def test_sin_sq_angle_45_degrees():
    h = np.array([1.0, 1.0], dtype=complex)
    e1 = np.array([1.0, 0.0], dtype=complex)
    assert sin_sq_angle(h, [e1]) == pytest.approx(0.5, rel=1e-12)


def test_sin_sq_angle_orthogonal_is_one():
    h = np.array([0.0, 0.0, 2.0], dtype=complex)
    basis = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])]
    assert sin_sq_angle(h, basis) == pytest.approx(1.0, rel=1e-12)


def test_sin_sq_angle_empty_basis_exactly_one():
    h = np.array([0.3 - 0.1j, 2.0], dtype=complex)
    assert sin_sq_angle(h, []) == 1.0


def test_sin_sq_angle_zero_vector_rejected():
    with pytest.raises(DomainError):
        sin_sq_angle(np.zeros(3, dtype=complex), [np.array([1.0, 0.0, 0.0])])


def test_sin_sq_angle_in_span_is_zero():
    b = np.array([1.0, 1.0j, 0.0])
    assert sin_sq_angle(1.5 * b, [b]) == pytest.approx(0.0, abs=1e-15)


def test_sin_sq_angle_does_not_depend_on_scale():
    # squared norms of these vectors underflow to zero or overflow
    for scale in (5e-324, 1e-300, 1e-170, 1e170, 1e300):
        assert sin_sq_angle([1, 1, 0], [[scale, 0, 0]]) == pytest.approx(0.5, rel=1e-12)
        assert sin_sq_angle([scale, scale, 0], [[1, 0, 0]]) == pytest.approx(0.5, rel=1e-12)
    rng = SeedSpec(12, 0).generator()
    h, b = _randn(rng, (2, 4))
    want = sin_sq_angle(h, [b])
    for s, t in ((2.0**-600, 2.0**500), (2.0**900, 2.0**-900)):
        assert sin_sq_angle(s * h, [t * b]) == want  # power-of-two scaling is exact
    # exact zeros and dependent bases still raise at any scale
    with pytest.raises(DomainError):
        sin_sq_angle(np.zeros(3), [[1e-170, 0, 0]])
    with pytest.raises(RankDeficiencyError):
        sin_sq_angle([1, 1, 0], [[1e-170, 0, 0], [3e-170, 0, 0]])
    with pytest.raises(RankDeficiencyError):
        sin_sq_angle([1, 1, 0], [[1e170, 0, 0], [0, 0, 0]])


# ---------------------------------------------------------------------------
# property-based geometry invariants

_complex_entry = st.tuples(
    st.floats(-10, 10, allow_nan=False, allow_infinity=False),
    st.floats(-10, 10, allow_nan=False, allow_infinity=False),
).map(lambda ab: complex(ab[0], ab[1]))


def _vectors(dim: int, count: int):
    return st.lists(
        st.lists(_complex_entry, min_size=dim, max_size=dim).map(
            lambda vs: np.array(vs, dtype=complex)
        ),
        min_size=count,
        max_size=count,
    )


def _independent(vecs, tol=1e-6):
    mat = np.array(vecs)
    if np.any(np.linalg.norm(mat, axis=1) < tol):
        return False
    s = np.linalg.svd(mat, compute_uv=False)
    return s[-1] > tol * s[0]


@settings(max_examples=60, deadline=None)
@given(_vectors(4, 4))
def test_sin_sq_angle_monotone_in_basis(vecs):
    h, b1, b2, b3 = vecs
    if not _independent([h, b1, b2, b3], tol=1e-4):
        return
    vals = [
        sin_sq_angle(h, []),
        sin_sq_angle(h, [b1]),
        sin_sq_angle(h, [b1, b2]),
        sin_sq_angle(h, [b1, b2, b3]),
    ]
    for v in vals:
        assert 0.0 <= v <= 1.0
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-9


@settings(max_examples=60, deadline=None)
@given(_vectors(3, 3))
def test_projection_idempotent_and_pythagoras(vecs):
    h, b1, b2 = vecs
    if not _independent([b1, b2], tol=1e-4) or np.linalg.norm(h) < 1e-4:
        return
    res = _residual_against(h, [b1, b2])
    res2 = _residual_against(res, [b1, b2])
    scale = max(np.linalg.norm(h), 1.0)
    assert np.linalg.norm(res - res2) <= 1e-10 * scale
    # ||h||^2 = ||residual||^2 + ||projection||^2
    proj = h - res
    lhs = squared_norm(h)
    rhs = squared_norm(res) + squared_norm(proj)
    assert abs(lhs - rhs) <= 1e-9 * max(lhs, 1.0)


# ---------------------------------------------------------------------------
# distributional checks (fixed seeds keep these deterministic)


def test_squared_norm_distribution_ks():
    # ||h||^2 for M = 4 has CDF G(4, x), the regularized lower incomplete gamma.
    cs = sample_channel_set(4, 100_000, SeedSpec(4242, 0))
    norms = (cs.users.real**2 + cs.users.imag**2).sum(axis=1)
    d = stats.kstest(norms, lambda x: gammainc(4, x)).statistic
    assert d < 0.01


def test_sin_sq_angle_distribution_ks():
    # angle between h and an independent single-vector span: CDF x^(M-1)
    M = 4
    rng = SeedSpec(4243, 0).generator()
    z = rng.standard_normal((100_000, 2, M, 2))
    pairs = (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)
    h, g = pairs[:, 0, :], pairs[:, 1, :]
    h_norm = (h.real**2 + h.imag**2).sum(axis=1)
    g_norm = (g.real**2 + g.imag**2).sum(axis=1)
    cross = np.abs(np.einsum("km,km->k", h.conj(), g)) ** 2
    sin_sq = 1.0 - cross / (h_norm * g_norm)
    d = stats.kstest(sin_sq, lambda x: np.clip(x, 0, 1) ** (M - 1)).statistic
    assert d < 0.01


def test_sin_sq_angle_two_dim_span_ks():
    # angle to an independent 2-dim span in M = 4: Beta(M-2, 2)
    M = 4
    rng = SeedSpec(4244, 0).generator()
    z = rng.standard_normal((50_000, M, 2))
    h = (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)
    # by unitary invariance the first two coordinates span an independent plane
    res = (h[:, 2:].real**2 + h[:, 2:].imag**2).sum(axis=1)
    tot = (h.real**2 + h.imag**2).sum(axis=1)
    d = stats.kstest(res / tot, lambda x: betainc(M - 2, 2, np.clip(x, 0, 1))).statistic
    assert d < 0.01


def test_sin_sq_angle_matches_coordinate_shortcut():
    # sin_sq_angle against an explicit random span agrees with the analytic
    # coordinate computation after a common unitary rotation
    rng = SeedSpec(4245, 0).generator()
    for _ in range(25):
        z = rng.standard_normal((3, 4, 2))
        h, b1, b2 = z[..., 0] + 1j * z[..., 1]
        val = sin_sq_angle(h, [b1, b2])
        q, _ = np.linalg.qr(np.column_stack([b1, b2]))
        proj = q.conj().T @ h
        expect = 1.0 - squared_norm(proj) / squared_norm(h)
        assert val == pytest.approx(expect, abs=1e-12)
