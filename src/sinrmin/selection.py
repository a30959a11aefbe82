"""User selection rules and the exhaustive benchmark.

Each rule picks K_s of the K users and fixes their encoding order.
Selection and encoding are reported separately because they differ for
the norm- and angle-based rules: those encode weakest-first, while the
greedy residual rule encodes in the order it picked.

Tie-breaks are everywhere "lowest user index wins" so results are
deterministic on crafted inputs; with continuous channels ties have
probability zero.
"""

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import (
    _M32, RANK_TOL, ChannelSet, _complement_step, _restated, _seed_list, _squared_norms,
    _stream_words,
)
from .errors import BudgetError, ConfigError, InfeasibleGeometryError
# approx_min_power and exact_min_power stay bound here: perfbench/tracing.py hooks them
from .power import (  # noqa: F401
    SinrTargets,
    _check_sinr_targets,
    _uplink_step,
    approx_min_power,
    exact_min_power,
)

ALGORITHM_TAGS = ("NUS", "SUS", "AUS", "RUS", "EXHAUSTIVE")
_CHUNK_BYTES = 1 << 20  # Z^-1 bytes of one exact search step: 16 K M^2 a prefix, of any trial


@dataclass(frozen=True)
class SelectionResult:
    """Selected users: who was picked, and who encodes first.

    For one channel set both orders are tuples of user indices; for a
    (T, K, M) block they are (T, K_s) integer arrays, one row per trial.
    """

    algorithm_tag: str
    selection_order: tuple[int, ...] | np.ndarray
    encoding_order: tuple[int, ...] | np.ndarray

    def __post_init__(self) -> None:
        if self.algorithm_tag not in ALGORITHM_TAGS:
            raise ConfigError(f"unknown algorithm tag {self.algorithm_tag!r}")
        picked = np.sort(self.selection_order, axis=-1)
        if np.any(picked[..., 1:] == picked[..., :-1]):
            raise ConfigError("selected indices must be distinct")
        if not np.array_equal(np.sort(self.encoding_order, axis=-1), picked):
            raise ConfigError("encoding order must permute the selection")

    def __eq__(self, other):  # block orders are arrays, which == compares per entry
        return isinstance(other, SelectionResult) and all(
            np.array_equal(getattr(self, f), getattr(other, f))
            for f in ("algorithm_tag", "selection_order", "encoding_order")
        )


def _check_k_s(channels: ChannelSet, k_s: int) -> None:
    limit = min(channels.M, channels.K)
    if isinstance(k_s, bool) or not isinstance(k_s, (int, np.integer)) or not 1 <= k_s <= limit:
        raise ConfigError(
            f"K_s={k_s} out of range [1, {limit}] for M={channels.M}, K={channels.K}"
        )


def _block(channels: ChannelSet) -> np.ndarray:
    """The channels as a (T, K, M) block; one set is the block of T=1."""
    return channels.users if channels.users.ndim == 3 else channels.users[None]


def _result(tag: str, channels: ChannelSet, picked, encoded) -> SelectionResult:
    """Block orders as they are, or tuples when `channels` is one set."""
    if channels.users.ndim == 2:
        picked, encoded = tuple(picked[0].tolist()), tuple(encoded[0].tolist())
    return SelectionResult(tag, picked, encoded)


def _weakest_first(h: np.ndarray, picked: np.ndarray) -> np.ndarray:
    """Each row of `picked` ascending by norm, ties to the lower index."""
    norms = np.take_along_axis(_squared_norms(h), picked, axis=-1)
    return np.take_along_axis(picked, np.lexsort((picked, norms), axis=-1), axis=-1)


def select_nus(channels: ChannelSet, k_s: int) -> SelectionResult:
    """Pick the K_s strongest norms; encode weakest of those first."""
    _check_k_s(channels, k_s)
    h = _block(channels)
    picked = np.argsort(-_squared_norms(h), axis=-1, kind="stable")[:, :k_s]
    return _result("NUS", channels, picked, _weakest_first(h, picked))


def _greedy_residual(h: np.ndarray, k_s: int, by_angle: bool) -> np.ndarray:
    """(T, K_s) pick orders of the greedy residual rules over a (T, K, M) block.

    Every step scores each user by its squared residual against the
    picked span, divided by its squared norm after the first step when
    `by_angle`. Residuals at or below the rank floor count as exactly
    zero, so dependent users tie and the lowest index wins. The users are
    held in coordinates of the picked span's complement, stepped by each
    trial's pick with `channel._complement_step`.
    """
    trials = np.arange(len(h))
    norms = _squared_norms(h)
    floor = RANK_TOL**2 * norms
    coords = h  # each user's coordinates against the picked span
    picked = np.empty((len(h), k_s), dtype=np.intp)
    for step in range(k_s):
        res2 = _squared_norms(coords)
        res2[res2 <= floor] = 0.0
        if by_angle and step:  # a zero-norm user scores 0, not 0/0
            scores = np.divide(res2, norms, out=np.zeros_like(res2), where=norms > 0.0)
        else:
            scores = res2
        scores[trials[:, None], picked[:, :step]] = -np.inf
        picked[:, step] = choice = np.argmax(scores, axis=-1)
        if step + 1 < k_s:
            # a dependent pick drops an axis as it is; that changes no later
            # pick: its score was the largest and zero, so every other user
            # was already at or below the floor, and projection only shrinks
            coords = _complement_step(coords, coords[trials, choice], res2[trials, choice])
    return picked


def select_sus(channels: ChannelSet, k_s: int) -> SelectionResult:
    """Greedy residual-norm selection; encoding order is the pick order.

    The first pick is the largest norm. Every later step projects the
    channels onto the orthogonal complement of the picked span and takes
    the largest residual. No semi-orthogonality threshold is applied;
    the rule is pure greedy.
    """
    _check_k_s(channels, k_s)
    order = _greedy_residual(_block(channels), k_s, by_angle=False)
    return _result("SUS", channels, order, order)


def select_aus(channels: ChannelSet, k_s: int) -> SelectionResult:
    """Strongest user first, then most-orthogonal regardless of strength.

    Later steps score each remaining user by sin^2 of its angle against
    the picked span. A user already inside the span scores zero and can
    still be picked (lowest index wins); the downstream power call is
    what rejects such geometry.
    """
    _check_k_s(channels, k_s)
    h = _block(channels)
    picked = _greedy_residual(h, k_s, by_angle=True)
    return _result("AUS", channels, picked, _weakest_first(h, picked))


def select_rus(channels: ChannelSet, k_s: int, seed) -> SelectionResult:
    """Uniform random subset from the seed stream, encoded in draw order.

    Nothing here looks at the channels, including the encoding order:
    each position's norm stays a plain chi-square, which is what the
    random-selection average-power formula prices. Sorting the picks by
    norm would turn the position norms into order statistics and lower
    the average. A (T, K, M) block takes a sequence of T streams, one
    per trial.

    Each trial picks what ``spec.generator().choice(K, k_s, replace=False)``
    does. Up to K = 10,000 a block of `channel._restated` specs runs its
    steps over the `channel._stream_words` of all trials at once; a trial
    whose Lemire draw rejects a word, and any other block, calls ``choice``.
    """
    _check_k_s(channels, k_s)
    seeds, k = _seed_list(seed), channels.K
    if len(seeds) != len(_block(channels)):
        raise ConfigError(f"{len(seeds)} streams for {len(_block(channels))} trials")
    redo, picked = range(len(seeds)), np.empty((len(seeds), k_s), dtype=np.intp)
    if _restated(seeds) and k <= 10_000:  # beyond, choice may shuffle a tail instead
        # Floyd's sampling (Bentley & Floyd 1987), then a Fisher-Yates shuffle;
        # a draw in [0, j] is one word's 32-bit Lemire draw (Lemire 2019),
        # which choice rejects when the product's low half is below 2^32 mod (j + 1)
        spans = np.array([*range(k - k_s, k), *range(k_s - 1, 0, -1)], dtype=np.uint64) + 1
        skip = int(k == k_s)  # Floyd's draw in [0, 0] takes no word; 0 gives 0
        words = _stream_words(seeds, spans.size - skip)
        scaled = np.hstack([np.zeros((len(seeds), skip), np.uint32), words]) * spans
        draws = (scaled >> 32).astype(np.intp)
        redo = np.flatnonzero((scaled & _M32 < np.uint64(2**32) % spans).any(axis=1))
        picked = draws[:, :k_s]  # a Floyd draw already picked takes j instead
        for c in range(1, k_s):
            picked[(picked[:, :c] == picked[:, c:c + 1]).any(axis=1), c] = k - k_s + c
        rows = np.arange(len(seeds))
        for i, j in zip(range(k_s - 1, 0, -1), draws[:, k_s:].T):
            picked[rows, i], picked[rows, j] = picked[rows, j], picked[rows, i]
    for t in redo:
        picked[t] = seeds[t].generator().choice(k, size=k_s, replace=False)
    return _result("RUS", channels, picked, picked)


def _firsts(trial: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Per trial, the row of its first smallest key; NaN is smallest, as in np.argmin."""
    i = np.lexsort((key, ~np.isnan(key), trial))
    return i[np.diff(trial[i], prepend=-1) != 0]


def _best_exact_orders(h: np.ndarray, k_s: int, targets: SinrTargets):
    """Branch and bound over the encoding prefixes of a (T, K, M) block, a
    level at a time; (T, K_s) orders, or None when a trial has none feasible.

    A step prices a chunk of prefix rows, of any trials, against every user.
    A child's bound adds the later targets over its parent's largest free
    gain, as Z only grows. A dive down each trial's first lowest bounds gives
    its incumbent; then chunks go depth first in (trial, prefix) order, and
    leaf totals take the steps of `exact_min_power`. Only a strictly cheaper
    chunk replaces a trial's best, so ties keep the lexicographically first.
    """
    n, k, m = h.shape
    # a zero-norm user makes exact_min_power raise for every ordering it is in
    live = _squared_norms(h) > 0.0
    if (live.sum(axis=1) < k_s).any():
        return None
    s2, gam = targets.sigma_sq, targets.gamma_vector(k_s)
    rows = max(1, _CHUNK_BYTES // (16 * k * m * m))  # prefixes one step takes

    def expand(trial, order, zinv, p, limit):
        """Children of (N, j) prefixes within their trial's `limit`, in (row, user) order."""
        j = order.shape[1]
        with np.errstate(all="ignore"):  # taken users are stepped too; their rows drop out
            _, d, p_u, zinv_u = _uplink_step(zinv[:, None], h[trial], gam[j])
            free = live[trial] & (order[:, :, None] != np.arange(k)).all(axis=1)
            reach = np.where(free, d, 0.0).max(axis=1, keepdims=True)
            bound = s2 * (p.sum(axis=1, keepdims=True) + p_u + gam[j + 1 :].sum() / reach)
            # a free gain rounded to zero or below bounds none of its parent's children
            bound[~(~free | ((d > 0.0) & (d < math.inf))).all(axis=1)] = -math.inf
            parent, user = np.nonzero(free & ~(bound > limit[trial, None]))
        return (trial[parent], np.column_stack([order[parent], user]), zinv_u[parent, user],
                np.column_stack([p[parent], p_u[parent, user]]), bound[parent, user])

    best, best_order = np.full(n, math.inf), np.empty((n, k_s), np.intp)
    root = (np.arange(n), np.zeros((n, 0), np.intp),
            np.broadcast_to(np.eye(m, dtype=np.complex128), (n, m, m)), np.zeros((n, 0)))
    dive, stack = np.empty(n), [root]
    for lo in range(0, n, rows):  # the dive, each trial's first lowest bound a level; best is inf
        kids = expand(*(a[lo : lo + rows] for a in root), best)
        for _ in range(k_s - 1):
            kids = expand(*(a[_firsts(kids[0], kids[4])] for a in kids[:4]), best)
        dive[lo : lo + rows] = (s2 * kids[3][_firsts(kids[0], kids[4])]).sum(axis=1)
    while stack:
        chunk = stack.pop()
        if len(chunk[0]) > rows:  # the rest waits until this chunk's subtree is done
            stack.append(tuple(a[rows:] for a in chunk))
        limit = np.fmin(dive, best) * (1.0 + 1e-9)  # a margin for rounding; fmin skips NaN
        trial, order, zinv, p, _ = expand(*(a[:rows] for a in chunk), limit)
        if len(order) and order.shape[1] < k_s:
            stack.append((trial, order, zinv, p))
        elif len(order):
            total = (s2 * p).sum(axis=1)
            i = _firsts(trial, np.where(np.isnan(total), math.inf, total))  # first of ties
            i = i[total[i] < best[trial[i]]]
            best[trial[i]], best_order[trial[i]] = total[i], order[i]
    return best_order if (best < math.inf).all() else None


@lru_cache(maxsize=16)
def _set_tables(k: int, k_s: int):
    """The DP's set structure, which depends only on (K, K_s).

    Per size j < K_s, the j-sets of users in lexicographic order as a
    (C(K, j), K) membership mask; per j < K_s - 1, the rank of S+u among
    the (j+1)-sets (0 where u is in S) and, per (j+1)-set, its parent S
    (the set minus its largest member) and that largest member. The
    arrays are read-only: every call shares them.
    """
    sets = [list(itertools.combinations(range(k), j)) for j in range(k_s)]
    rank = [{s: i for i, s in enumerate(level)} for level in sets]
    members, nexts, parents, tops = [], [], [], []
    for j, level in enumerate(sets):
        member = np.zeros((len(level), k), dtype=bool)
        member[np.repeat(np.arange(len(level)), j), np.ravel(level).astype(np.intp)] = True
        members.append(member)
        if j + 1 == k_s:
            break
        nxt = np.zeros((len(level), k), dtype=np.intp)
        for t, s in enumerate(sets[j + 1]):
            for i, u in enumerate(s):
                nxt[rank[j][s[:i] + s[i + 1:]], u] = t
        nexts.append(nxt)
        parents.append(np.array([rank[j][s[:-1]] for s in sets[j + 1]], dtype=np.intp))
        tops.append(np.array([s[-1] for s in sets[j + 1]], dtype=np.intp))
    for a in members + nexts + parents + tops:
        a.setflags(write=False)
    return members, nexts, parents, tops


def _best_approx_order(h: np.ndarray, k_s: int, targets: SinrTargets):
    """Backward DP over predecessor sets; None when every ordering fails.

    g(S) = min over u outside S of sigma^2 gamma_|S| / res^2(u|S) + g(S+u),
    with g = 0 on K_s-sets. For every j-set S, in lexicographic order, each
    user is held as its M - j coordinates in an orthonormal basis of the
    orthogonal complement of span(S), so res^2(u|S) is a plain sum of
    squares. A set's coordinates are its parent's (the set minus its
    largest member t) after `channel._complement_step` by t. Coordinates
    of t that are exactly zero put t in span(S), so S+t spans only j
    dimensions and the step drops an axis as it is.
    """
    k, m = h.shape
    scale = targets.sigma_sq * targets.gamma_vector(k_s)
    floor = RANK_TOL**2 * _squared_norms(h)
    members, nexts, parents, tops = _set_tables(k, k_s)
    coords = np.ascontiguousarray(h, dtype=np.complex128)[None]
    costs = []
    for j in range(k_s):
        flat = coords.view(np.float64)
        res2 = np.einsum("nki,nki->nk", flat, flat)
        ok = ~members[j] & (res2 > floor)
        costs.append(np.divide(scale[j], res2, out=np.full(res2.shape, np.inf), where=ok))
        if j + 1 == k_s:
            break
        parent, top = parents[j], tops[j]
        coords = _complement_step(coords[parent], coords[parent, top], res2[parent, top])
    for j in reversed(range(k_s - 1)):
        costs[j] += costs[j + 1].min(axis=1)[nexts[j]]
    if not np.isfinite(costs[0].min()):
        return None
    # argmin takes the first minimum, so ties go to the smallest user
    order, s = [int(np.argmin(costs[0][0]))], 0
    for j in range(1, k_s):
        s = nexts[j - 1][s, order[-1]]
        order.append(int(np.argmin(costs[j][s])))
    return tuple(order)


def select_exhaustive(
    channels: ChannelSet,
    k_s: int,
    targets: SinrTargets,
    power_fn: str = "approx",
    budget: int = 1_000_000,
) -> SelectionResult:
    """True per-instance minimum over every subset and encoding order.

    Ordering is searched, not assumed: weakest-first is only an
    on-average rule. Ties resolve to the lexicographically smallest index
    sequence. An approx cost depends only on the set encoded before it,
    so that route is a DP over sum_{j<K_s} C(K, j) predecessor sets
    (1,351 at K=20, K_s=4), one channel set at a time. Exact powers depend
    on the predecessors' order, so the exact route is one branch and bound
    over the encoding prefixes of a whole block: each prefix row carries
    its set's index and pruning limit, and one step prices a chunk of rows
    (at most `_CHUNK_BYTES` of Z^-1) against every user. The worst case is
    still every ordering, so `budget` bounds the ordering count
    C(K, K_s) * K_s! before any work happens.
    """
    _check_k_s(channels, k_s)
    if power_fn not in ("exact", "approx"):
        raise ConfigError(f"power_fn must be 'exact' or 'approx', got {power_fn!r}")
    _check_sinr_targets(targets)
    if isinstance(budget, bool) or not isinstance(budget, (int, np.integer)) or budget < 1:
        raise ConfigError(f"budget must be an int >= 1, got {budget!r}")
    if (count := math.perm(channels.K, k_s)) > budget:
        raise BudgetError(f"{count} orderings exceed the budget of {budget}; reduce K or K_s")
    h = _block(channels)
    if power_fn == "exact":
        orders = _best_exact_orders(h, k_s, targets)
    else:  # each set is its own DP
        orders = [_best_approx_order(h_t, k_s, targets) for h_t in h]
        orders = None if None in orders else np.array(orders, dtype=np.intp)
    if orders is None:
        raise InfeasibleGeometryError("every ordering is infeasible")
    return _result("EXHAUSTIVE", channels, orders, orders)
