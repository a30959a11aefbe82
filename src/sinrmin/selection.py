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
from functools import lru_cache, reduce

import numpy as np

from .channel import (
    _M32, RANK_TOL, ChannelSet, _array, _complement_step, _seed_list, _squared_norms,
    _stream_words, _streams,
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
# The bytes of any piece work is cut into: a block of trials, a block's
# piece of sweep points, a chunk of approx DP trials and its sub-chunks of
# last-level rows, an exact search step. A unit larger than this is a piece alone
_CHUNK_BYTES = 1 << 20


def _per_chunk(unit_bytes: int, cap: int | None = None) -> int:
    """The units of `unit_bytes` a piece of `cap` bytes holds, at least one;
    `cap` is `_CHUNK_BYTES` unless given."""
    return max(1, (_CHUNK_BYTES if cap is None else cap) // unit_bytes)


def _complex_bytes(rows: int, width: int) -> int:
    """Bytes of `rows` complex rows of `width`: a trial's K x M channels, or
    their whitened coordinates in an exact search prefix, the K users of an
    approx DP set."""
    return 16 * rows * width


def _dp_trial_bytes(k: int, m: int, k_s: int) -> int:
    """Bytes a trial of an approx DP chunk holds: the largest of its levels
    stepped in full, j < K_s - 1 (the root at K_s = 1), C(K, j) sets of K
    users' M - j + 1 parent coordinates, and 8 values a last-level set."""
    full = max(_complex_bytes(math.comb(k, j) * k, m - j + 1) for j in range(max(k_s - 1, 1)))
    return max(full, 64 * math.comb(k, k_s - 1))


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
        if not isinstance(self.algorithm_tag, str) or self.algorithm_tag not in ALGORITHM_TAGS:
            raise ConfigError(f"unknown algorithm tag {self.algorithm_tag!r}")
        picked, encoded = (_array(o, "orders must be user indices", "iu", ConfigError)
                           for o in (self.selection_order, self.encoding_order))
        if not picked.ndim or not encoded.ndim:
            raise ConfigError("orders must be sequences of user indices")
        picked = np.sort(picked, axis=-1)
        if np.any(picked[..., 1:] == picked[..., :-1]):
            raise ConfigError("selected indices must be distinct")
        if not np.array_equal(np.sort(encoded, axis=-1), picked):
            raise ConfigError("encoding order must permute the selection")

    def __eq__(self, other):  # block orders are arrays, which == compares per entry
        return isinstance(other, SelectionResult) and all(
            np.array_equal(getattr(self, f), getattr(other, f))
            for f in ("algorithm_tag", "selection_order", "encoding_order")
        )


def _check_k_s(channels: ChannelSet, k_s: int) -> None:
    if not isinstance(channels, ChannelSet):
        raise ConfigError(f"need a ChannelSet, got {channels!r}")
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


def _weakest_first(norms: np.ndarray, picked: np.ndarray) -> np.ndarray:
    """Each row of `picked` ascending by its users' `norms`, ties to the lower index."""
    norms = np.take_along_axis(norms, picked, axis=-1)
    return np.take_along_axis(picked, np.lexsort((picked, norms), axis=-1), axis=-1)


def _rule_orders(rules, h: np.ndarray, norms: np.ndarray, k_s: int, live: np.ndarray,
                 seeds=(), words=None) -> dict:
    """Each of `rules` (NUS, SUS, AUS, RUS) on a (N, K, M) block with squared
    norms `norms`, as (picked, encoded) (N, K_s) arrays keyed by rule.

    `live` (N,) is the user count K' of each row: its users past K' are
    never scored or drawn, so a row gets what its first K' users alone give
    (NUS sorts them last, the greedy rules score them -inf, RUS draws over
    K'). When SUS and AUS both run, one greedy call gives both their picks.
    RUS takes one spec per row in `seeds`, and their words in `words` when
    given.
    """
    past = np.arange(h.shape[1]) >= live[:, None]
    found = {}
    if "NUS" in rules:
        picked = np.argsort(np.where(past, np.inf, -norms), axis=-1, kind="stable")[:, :k_s]
        found["NUS"] = picked, _weakest_first(norms, picked)
    if angles := [rule == "AUS" for rule in ("SUS", "AUS") if rule in rules]:
        for by_angle, picked in zip(angles, _greedy_residual(h, norms, k_s, angles, past)):
            found["AUS" if by_angle else "SUS"] = \
                picked, _weakest_first(norms, picked) if by_angle else picked
    if "RUS" in rules:
        picked = _rus_picks(seeds, k_s, live, words)
        found["RUS"] = picked, picked
    return found


def _select(rule: str, channels: ChannelSet, k_s: int, **rus) -> SelectionResult:
    """One rule of `_rule_orders` on every row of `channels`, at its K."""
    _check_k_s(channels, k_s)
    h = _block(channels)
    found = _rule_orders((rule,), h, channels._norms, k_s, np.full(len(h), channels.K), **rus)
    return _result(rule, channels, *found[rule])


def select_nus(channels: ChannelSet, k_s: int) -> SelectionResult:
    """Pick the K_s strongest norms; encode weakest of those first."""
    return _select("NUS", channels, k_s)


def _greedy_residual(h: np.ndarray, norms: np.ndarray, k_s: int, angles, past) -> list:
    """(T, K_s) pick orders of the greedy residual rules over a (T, K, M)
    block, one per flag of `angles`: True for AUS, False for SUS.

    Every step scores each user by its squared residual against the picked
    span, `norms` (T, K) at the first step, divided by its squared norm after
    the first step for AUS. Residuals at or below the rank floor count as
    exactly zero, so dependent users tie and the lowest index wins; users
    `past` (T, K) marks score -inf. The users are held in coordinates of
    the picked span's complement, stepped by each trial's pick with
    `channel._complement_step`. The first pick, the largest norm, and the
    residuals against it are the same for every rule and taken once, so at
    K_s = 2 a second rule takes no step of its own.
    """
    trials, floor = np.arange(len(h)), RANK_TOL**2 * norms

    def pick(res2, picked, step, by_angle):
        if by_angle and step:  # a zero-norm user scores 0, not 0/0
            scores = np.divide(res2, norms, out=np.zeros_like(res2), where=norms > 0.0)
        else:
            scores = res2.copy()
        scores[past] = -np.inf
        scores[trials[:, None], picked[:, :step]] = -np.inf
        picked[:, step] = choice = np.argmax(scores, axis=-1)
        return choice

    def stepped(coords, res2, choice):
        # a dependent pick drops an axis as it is; that changes no later
        # pick: its score was the largest and zero, so every other user
        # was already at or below the floor, and projection only shrinks
        coords = _complement_step(coords, coords[trials, choice], res2[trials, choice])
        res2 = _squared_norms(coords)
        res2[res2 <= floor] = 0.0
        return coords, res2

    res2 = norms.copy()
    res2[res2 <= floor] = 0.0
    first = np.empty((len(h), k_s), dtype=np.intp)
    choice = pick(res2, first, 0, False)
    shared = stepped(h, res2, choice) if k_s > 1 else (h, res2)
    orders = []
    for by_angle in angles:
        picked, (coords, res2) = first.copy(), shared
        for step in range(1, k_s):
            choice = pick(res2, picked, step, by_angle)
            if step + 1 < k_s:
                coords, res2 = stepped(coords, res2, choice)
        orders.append(picked)
    return orders


def select_sus(channels: ChannelSet, k_s: int) -> SelectionResult:
    """Greedy residual-norm selection; encoding order is the pick order.

    The first pick is the largest norm. Every later step projects the
    channels onto the orthogonal complement of the picked span and takes
    the largest residual. No semi-orthogonality threshold is applied;
    the rule is pure greedy.
    """
    return _select("SUS", channels, k_s)


def select_aus(channels: ChannelSet, k_s: int) -> SelectionResult:
    """Strongest user first, then most-orthogonal regardless of strength.

    Later steps score each remaining user by sin^2 of its angle against
    the picked span. A user already inside the span scores zero and can
    still be picked (lowest index wins); the downstream power call is
    what rejects such geometry.
    """
    return _select("AUS", channels, k_s)


def _rus_picks(seeds, k_s: int, ks: np.ndarray, words=None) -> np.ndarray:
    """(T, K_s) picks of `select_rus` over T streams, trial t choosing among
    ks[t] users, with one `_streams` call for each K of `ks`."""
    k = ks[:, None]
    # Floyd's sampling (Bentley & Floyd 1987), then a Fisher-Yates shuffle;
    # a draw in [0, j] is one word's 32-bit Lemire draw (Lemire 2019),
    # which choice rejects when the product's low half is below 2^32 mod (j + 1)
    spans = np.hstack([k - k_s + 1 + np.arange(k_s),
                       np.broadcast_to(np.arange(k_s, 1, -1), (len(k), k_s - 1))])
    spans = spans.astype(np.uint64)
    words = _stream_words(seeds, 2 * k_s - 1) if words is None else words
    # Floyd's draw in [0, 0], at K = K_s, takes no word; 0 gives 0
    shifted = np.hstack([np.zeros((len(k), 1), np.uint32), words[:, :-1]])
    scaled = np.where(k == k_s, shifted, words) * spans
    draws = (scaled >> 32).astype(np.intp)
    rejected = (scaled & _M32 < np.uint64(2**32) % spans).any(axis=1)
    picked = draws[:, :k_s]  # a Floyd draw already picked takes j instead
    for c in range(1, k_s):
        taken = (picked[:, :c] == picked[:, c:c + 1]).any(axis=1)
        picked[taken, c] = ks[taken] - k_s + c
    rows = np.arange(len(k))
    for i, j in zip(range(k_s - 1, 0, -1), draws[:, k_s:].T):
        picked[rows, i], picked[rows, j] = picked[rows, j], picked[rows, i]
    redo = rejected | (ks > 10_000)  # beyond, choice may shuffle a tail instead
    for kk in sorted(set(ks.tolist())):  # np.unique would import numpy.ma
        again = np.flatnonzero(redo & (ks == kk))
        for t, rng in zip(again, _streams([seeds[t] for t in again])):
            picked[t] = rng.choice(kk, size=k_s, replace=False)
    return picked


def select_rus(channels: ChannelSet, k_s: int, seed) -> SelectionResult:
    """Uniform random subset from the seed stream, encoded in draw order.

    Nothing here looks at the channels, including the encoding order:
    each position's norm stays a plain chi-square, which is what the
    random-selection average-power formula prices. Sorting the picks by
    norm would turn the position norms into order statistics and lower
    the average. A (T, K, M) block takes a sequence of T streams, one
    per trial.

    Each trial picks what ``spec.generator().choice(K, k_s, replace=False)``
    does. Up to K = 10,000 a block runs its steps over the first
    2 K_s - 1 `channel._stream_words` of all trials at once; a trial whose
    Lemire draw rejects a word, and any trial past that K, calls ``choice``
    on its `channel._streams` generator.
    """
    _check_k_s(channels, k_s)
    seeds = _seed_list(seed)
    if len(seeds) != len(_block(channels)):
        raise ConfigError(f"{len(seeds)} streams for {len(_block(channels))} trials")
    return _select("RUS", channels, k_s, seeds=seeds)


def _firsts(trial: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Per trial, the row of its first smallest key; NaN is smallest, as in np.argmin."""
    i = np.lexsort((key, ~np.isnan(key), trial))
    return i[np.diff(trial[i], prepend=-1) != 0]


def _best_exact_orders(h: np.ndarray, norms: np.ndarray, k_s: int, targets: SinrTargets):
    """Branch and bound over the encoding prefixes of a (T, K, M) block, a
    level at a time; (T, K_s) orders, -1 in the row of a trial with none
    feasible: fewer than K_s nonzero users, or no finite total.

    A step prices a chunk of prefix rows, of any trials, against every user:
    each prefix holds its trial's users in whitened coordinates of its Z,
    stepped from its parent's by `_uplink_step` only when its chunk is popped.
    A child's bound adds the later targets over its parent's largest free
    gain, as Z only grows. A dive down each trial's first lowest bounds gives
    its incumbent; then chunks go depth first in (trial, prefix) order, and
    leaf totals take the steps of `exact_min_power`. Only a strictly cheaper
    chunk replaces a trial's best, so ties keep the lexicographically first.
    """
    n, k, m = h.shape
    live = norms > 0.0  # a zero-norm user makes exact_min_power raise in every ordering
    s2, gam = targets.sigma_sq, targets.gamma_vector(k_s)
    rows = _per_chunk(_complex_bytes(k, m))  # prefixes one step takes

    def expand(src, trial, order, p, parent, gain, limit, first=False):
        """(N, j) prefixes' coordinates, their parents' rows of `src` stepped by
        the last user (at the root, the rows), and their children within their
        trial's `limit` in (row, user) order, or only each trial's `first`
        lowest bound, as (trial, order, powers, parent row, last gain)."""
        j = order.shape[1]
        c = _uplink_step(src[parent], src[parent, order[:, -1]], gain, p[:, -1]) \
            if j else src[parent]
        with np.errstate(all="ignore"):  # taken users are priced too; their rows drop out
            d = _squared_norms(c)
            p_u = gam[j] / d
            free = live[trial] & (order[:, :, None] != np.arange(k)).all(axis=1)
            reach = np.where(free, d, 0.0).max(axis=1, keepdims=True)
            bound = s2 * (p.sum(axis=1, keepdims=True) + p_u + gam[j + 1 :].sum() / reach)
            # a free gain rounded to zero or below bounds none of its parent's children
            bound[~(~free | ((d > 0.0) & (d < math.inf))).all(axis=1)] = -math.inf
            kept = parent, user = np.nonzero(free & ~(bound > limit[trial, None]))
            if first:
                i = _firsts(trial[parent], bound[kept])
                kept = parent, user = parent[i], user[i]
        return c, (trial[parent], np.column_stack([order[parent], user]),
                   np.column_stack([p[parent], p_u[kept]]), parent, d[kept])

    best, best_order = np.full(n, math.inf), np.full((n, k_s), -1, np.intp)
    root = (np.arange(n), np.zeros((n, 0), np.intp), np.zeros((n, 0)), np.arange(n), np.ones(n))
    dive = np.full(n, math.inf)
    for lo in range(0, n, rows):  # the dive, each trial's first lowest bound a level; best is inf
        src, kids = h, tuple(a[lo : lo + rows] for a in root)
        for _ in range(k_s):
            src, kids = expand(src, *kids, best, first=True)
        dive[kids[0]] = (s2 * kids[2]).sum(axis=1)  # a trial short of K_s live users ends early
    stack = [(h, root)]
    while stack:
        src, kids = stack.pop()
        if len(kids[0]) > rows:  # the rest waits until this chunk's subtree is done
            stack.append((src, tuple(a[rows:] for a in kids)))
        limit = np.fmin(dive, best) * (1.0 + 1e-9)  # a margin for rounding; fmin skips NaN
        c, kids = expand(src, *(a[:rows] for a in kids), limit)
        trial, order, p = kids[:3]
        if len(order) and order.shape[1] < k_s:
            stack.append((c, kids))
        elif len(order):
            total = (s2 * p).sum(axis=1)
            i = _firsts(trial, np.where(np.isnan(total), math.inf, total))  # first of ties
            i = i[total[i] < best[trial[i]]]
            best[trial[i]], best_order[trial[i]] = total[i], order[i]
    return best_order


@lru_cache(maxsize=16)
def _set_tables(k: int, k_s: int):
    """The DP's set structure, which depends only on (K, K_s).

    Per size j < K_s, the j-sets of users in colex order (by reversed
    tuple) as a (C(K, j), K) membership mask; per j < K_s - 1, the rank
    of S+u among the (j+1)-sets (0 where u is in S) and, per (j+1)-set T,
    its members in ascending order with the rank of T less each of them.
    T's parent is the set less its largest, last member. For K' <= K the
    prefixes [:C(K', j), :K'] are the tables at K'. The arrays are
    read-only: every call shares them.
    """
    sets = [sorted(itertools.combinations(range(k), j), key=lambda s: s[::-1])
            for j in range(k_s)]
    rank = [{s: i for i, s in enumerate(level)} for level in sets]
    members, nexts, drops, elems = [], [], [], []
    for j, level in enumerate(sets):
        member = np.zeros((len(level), k), dtype=bool)
        member[np.repeat(np.arange(len(level)), j), np.ravel(level).astype(np.intp)] = True
        members.append(member)
        if j + 1 == k_s:
            break
        elem = np.array(sets[j + 1], dtype=np.intp).reshape(-1, j + 1)
        drop = np.array([[rank[j][s[:i] + s[i + 1:]] for i in range(j + 1)]
                         for s in sets[j + 1]], dtype=np.intp).reshape(elem.shape)
        nxt = np.zeros((len(level), k), dtype=np.intp)
        nxt[drop, elem] = np.arange(len(elem))[:, None]
        nexts.append(nxt)
        drops.append(drop)
        elems.append(elem)
    for a in members + nexts + drops + elems:
        a.setflags(write=False)
    return members, nexts, drops, elems


def _best_approx_orders(h: np.ndarray, norms: np.ndarray, k_s: int, targets: SinrTargets, ks):
    """Backward DP over the predecessor sets of a (T, K, M) block of trials;
    per K' of `ks`, the (T, K_s) orders over the first K' users, -1 in the
    row of a trial with no feasible ordering among them. A block of more
    trials than `_per_chunk` fits by `_dp_trial_bytes` runs as chunks.

    g(S) = min over u outside S of sigma^2 gamma_|S| / res^2(u|S) + g(S+u),
    with g = 0 on K_s-sets. For every j-set S, in colex order, each
    user is held as its M - j coordinates in an orthonormal basis of the
    orthogonal complement of span(S), so res^2(u|S) is a plain sum of
    squares. A set's coordinates are its parent's (the set minus its
    largest member t) after `channel._complement_step` by t. Coordinates
    of t that are exactly zero put t in span(S), so S+t spans only j
    dimensions and the step drops an axis as it is. The levels below the
    last and their cheapest encodings are priced and stepped once, at K:
    a user's coordinates and cost against a set do not depend on the
    other users, so K' reads them as the prefix [:, :C(K', j), :K'].
    F(T) is a running minimum over u in T of F(T - u) plus u's cost, each call along the sets.

    A last-level set T is stepped only if F(T) + sigma^2 gamma_last / r is
    within its trial's incumbent, F(T) being the cheapest encoding of T and
    r the largest residual its parent leaves a user outside T; residuals
    only shrink as the span grows. The incumbent is a greedy dive through
    the levels. Every other last-level set costs +inf, which no optimal
    ordering, tied ones included, goes through.
    """
    n, wide, m = h.shape
    if n > (rows := _per_chunk(_dp_trial_bytes(wide, m, k_s))):
        return [np.concatenate(ps) for ps in zip(*(
            _best_approx_orders(h[lo : lo + rows], norms[lo : lo + rows], k_s, targets, ks)
            for lo in range(0, n, rows)))]
    scale = targets.sigma_sq * targets.gamma_vector(k_s)
    floor = RANK_TOL**2 * norms[:, None]  # of the chunk's (T, K) squared norms
    members, nexts, drops, elems = _set_tables(wide, k_s)
    trials, last = np.arange(n), k_s - 1

    def price(coords, j, member, floor):
        res2 = _squared_norms(coords)
        ok = ~member & (res2 > floor)
        return res2, np.divide(scale[j], res2, out=np.full(res2.shape, np.inf), where=ok)

    def step(coords, res2, parent, top):  # the rows of `parent`'s sets, stepped by `top`
        return _complement_step(coords[parent], coords[parent + (top,)], res2[parent + (top,)])

    coords = np.ascontiguousarray(h, dtype=np.complex128)[:, None]
    costs, enc = [], np.zeros((n, 1))  # enc: each set's cheapest encoding, F
    for j in range(last):
        res2, cost = price(coords, j, members[j], floor)
        costs.append(cost)
        enc = reduce(np.minimum, (enc[:, d] + cost[:, d, e] for d, e in zip(drops[j].T, elems[j].T)))
        if j + 1 < last:
            coords = step(coords, res2, (slice(None), drops[j][:, -1]), elems[j][:, -1])
    found = []
    for k in ks:
        size = [math.comb(k, j) for j in range(k_s)]
        cost, nxt = ([a[..., : size[j], :k] for j, a in enumerate(x)] for x in (costs, nexts))
        member, fl = members[last][: size[last], :k], floor[..., :k]
        dive, spent = np.zeros(n, np.intp), np.zeros(n)  # the greedy dive's set and its cost
        for j in range(last):
            user = np.argmin(cost[j][trials, dive], axis=1)
            spent += cost[j][trials, dive, user]
            dive = nxt[j][dive, user]
        # the last level as flat (trial, set) rows, every trial's root when K_s = 1,
        # stepped and priced a sub-chunk at a time
        t, s, c = trials, np.zeros(n, np.intp), coords[:, :, :k]
        if last:
            r2 = res2[:, : size[last - 1], :k]
            parent, top = drops[last - 1][: size[last], -1], elems[last - 1][: size[last], -1]
            _, tail = price(step(c, r2, (trials, parent[dive]), top[dive]), last,
                            member[dive], fl[:, 0])
            incumbent = spent + tail.min(axis=1)
            # the largest residual the parent leaves outside the set: its top two
            # bound it, the parent's own members' (zero up to rounding) included
            two = np.sort(r2, axis=2)[:, parent, -2:]
            reach = np.where(r2[:, parent, top] < two[..., 1], two[..., 1], two[..., 0])
            with np.errstate(divide="ignore"):  # no residual left bounds by +inf
                bound = enc[:, : size[last]] + scale[last] / reach
            t, s = np.nonzero(bound <= incumbent[:, None] * (1.0 + 1e-9))
        # per last-level set, kept by (trial, rank): its cheapest encoding, the top
        # two residuals and their bound above, and its least cost and best last user
        least, best = np.full((n, size[last]), np.inf), np.zeros((n, size[last]), np.intp)
        rows = _per_chunk(_complex_bytes(k, m - last + 1))
        for lo in range(0, len(t), rows):
            ts, ss = t[lo : lo + rows], s[lo : lo + rows]
            sub = step(c, r2, (ts, parent[ss]), top[ss]) if last else c[ts, 0]
            _, tail = price(sub, last, member[ss], fl[ts, 0])
            least[ts, ss], best[ts, ss] = tail.min(axis=1), tail.argmin(axis=1)
        for j in reversed(range(last)):
            cost[j] = cost[j] + least[:, nxt[j]]
            least = cost[j].min(axis=2)
        # argmin takes the first minimum, so ties go to the smallest user
        order, s = np.empty((n, k_s), np.intp), np.zeros(n, np.intp)
        for j in range(last):
            order[:, j] = np.argmin(cost[j][trials, s], axis=1)
            s = nxt[j][s, order[:, j]]
        order[:, last] = best[trials, s]
        order[~np.isfinite(least[:, 0])] = -1
        found.append(order)
    return found


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
    (1,351 at K=20, K_s=4) in colex order, run over chunks of trials, as
    many as `_per_chunk` fits by `_dp_trial_bytes`. Of the last level's sets it
    steps only those whose cheapest encoding plus a bound on the last
    user's cost is within a greedy dive's total (about 90 of 1,140 a trial
    at K=20, K_s=4), in sub-chunks of rows that `_per_chunk` fits. Exact
    powers depend on the predecessors' order, so the exact route is one
    branch and bound over the encoding prefixes of a whole block: each
    prefix row carries its trial's index and its users' whitened
    coordinates, and one step prices a chunk of rows (`_per_chunk` of a
    trial's channel bytes) against every user; a kept child is stepped
    only when its chunk is popped. A trial with no feasible ordering, a
    search's row of -1, makes the block raise InfeasibleGeometryError. The
    worst case is still every ordering, so `budget` bounds the ordering
    count C(K, K_s) * K_s! before any work happens.
    """
    _check_k_s(channels, k_s)
    if not isinstance(power_fn, str) or power_fn not in ("exact", "approx"):
        raise ConfigError(f"power_fn must be 'exact' or 'approx', got {power_fn!r}")
    _check_sinr_targets(targets)
    if isinstance(budget, bool) or not isinstance(budget, (int, np.integer)) or budget < 1:
        raise ConfigError(f"budget must be an int >= 1, got {budget!r}")
    if (count := math.perm(channels.K, k_s)) > budget:
        raise BudgetError(f"{count} orderings exceed the budget of {budget}; reduce K or K_s")
    h, norms = _block(channels), channels._norms
    if power_fn == "exact":
        orders = _best_exact_orders(h, norms, k_s, targets)
    else:
        (orders,) = _best_approx_orders(h, norms, k_s, targets, (channels.K,))
    if (orders < 0).any():
        raise InfeasibleGeometryError("every ordering of a trial is infeasible")
    return _result("EXHAUSTIVE", channels, orders, orders)
