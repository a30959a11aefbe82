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

import numpy as np

from .channel import RANK_TOL, ChannelSet, SeedSpec, residuals
from .errors import BudgetError, ConfigError, DomainError, InfeasibleGeometryError
# approx_min_power stays bound here: the benchmark's tracer hooks it
from .power import SinrTargets, approx_min_power, exact_min_power  # noqa: F401

ALGORITHM_TAGS = ("NUS", "SUS", "AUS", "RUS", "EXHAUSTIVE")


@dataclass(frozen=True)
class SelectionResult:
    """Selected users: who was picked, and who encodes first."""

    algorithm_tag: str
    selection_order: tuple[int, ...]
    encoding_order: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.algorithm_tag not in ALGORITHM_TAGS:
            raise ConfigError(f"unknown algorithm tag {self.algorithm_tag!r}")
        if len(set(self.selection_order)) != len(self.selection_order):
            raise ConfigError("selected indices must be distinct")
        if sorted(self.encoding_order) != sorted(self.selection_order):
            raise ConfigError("encoding order must permute the selection")


def _check_k_s(channels: ChannelSet, k_s: int) -> None:
    limit = min(channels.M, channels.K)
    if not 1 <= k_s <= limit:
        raise ConfigError(
            f"K_s={k_s} out of range [1, {limit}] for M={channels.M}, K={channels.K}"
        )


def _squared_norms(channels: ChannelSet) -> np.ndarray:
    h = channels.users
    return np.einsum("ij,ij->i", h.conj(), h).real


def _ascending_by_norm(indices, norms: np.ndarray) -> tuple[int, ...]:
    idx = np.asarray(indices, dtype=np.intp)
    order = np.lexsort((idx, norms[idx]))
    return tuple(int(i) for i in idx[order])


def select_nus(channels: ChannelSet, k_s: int) -> SelectionResult:
    """Pick the K_s strongest norms; encode weakest of those first."""
    _check_k_s(channels, k_s)
    norms = _squared_norms(channels)
    by_norm_desc = np.lexsort((np.arange(channels.K), -norms))
    selected = tuple(int(i) for i in by_norm_desc[:k_s])
    return SelectionResult("NUS", selected, _ascending_by_norm(selected, norms))


def _greedy_residual(channels: ChannelSet, k_s: int, by_angle: bool) -> tuple[int, ...]:
    """Pick order of the greedy residual rules.

    Every step scores each user by its squared residual against the
    picked span, divided by its squared norm after the first step when
    `by_angle`. Residuals at or below the rank floor count as exactly
    zero, so dependent users tie and the lowest index wins.
    """
    h = channels.users
    norms = _squared_norms(channels)
    basis = np.zeros((k_s, channels.M), dtype=np.complex128)
    picked: list[int] = []
    for step in range(k_s):
        res = residuals(h, basis[:step])
        res2 = np.einsum("ki,ki->k", res.conj(), res).real
        res2[res2 <= RANK_TOL**2 * norms] = 0.0
        if by_angle and step:  # a zero-norm user scores 0, not 0/0
            scores = np.divide(res2, norms, out=np.zeros_like(res2), where=norms > 0.0)
        else:
            scores = res2
        scores[picked] = -np.inf
        choice = int(np.argmax(scores))
        picked.append(choice)
        if res2[choice] > 0.0:  # a dependent pick leaves a zero row: span unchanged
            basis[step] = res[choice] / np.sqrt(res2[choice])
    return tuple(picked)


def select_sus(channels: ChannelSet, k_s: int) -> SelectionResult:
    """Greedy residual-norm selection; encoding order is the pick order.

    The first pick is the largest norm. Every later step projects the
    channels onto the orthogonal complement of the picked span and takes
    the largest residual. No semi-orthogonality threshold is applied;
    the rule is pure greedy.
    """
    _check_k_s(channels, k_s)
    order = _greedy_residual(channels, k_s, by_angle=False)
    return SelectionResult("SUS", order, order)


def select_aus(channels: ChannelSet, k_s: int) -> SelectionResult:
    """Strongest user first, then most-orthogonal regardless of strength.

    Later steps score each remaining user by sin^2 of its angle against
    the picked span. A user already inside the span scores zero and can
    still be picked (lowest index wins); the downstream power call is
    what rejects such geometry.
    """
    _check_k_s(channels, k_s)
    picked = _greedy_residual(channels, k_s, by_angle=True)
    norms = _squared_norms(channels)
    return SelectionResult("AUS", picked, _ascending_by_norm(picked, norms))


def select_rus(channels: ChannelSet, k_s: int, seed: SeedSpec) -> SelectionResult:
    """Uniform random subset from the seed stream, encoded in draw order.

    Nothing here looks at the channels, including the encoding order:
    each position's norm stays a plain chi-square, which is what the
    random-selection average-power formula prices. Sorting the picks by
    norm would turn the position norms into order statistics and lower
    the average.
    """
    _check_k_s(channels, k_s)
    rng = seed.generator()
    picked = tuple(int(i) for i in rng.choice(channels.K, size=k_s, replace=False))
    return SelectionResult("RUS", picked, picked)


def _best_exact_order(h: np.ndarray, k_s: int, targets: SinrTargets):
    best, order = math.inf, None
    for cand in itertools.permutations(range(h.shape[0]), k_s):
        try:
            total = exact_min_power(h[list(cand)], targets).total_power
        except DomainError:
            continue
        if total < best:  # strict: the lexicographically first minimum wins
            best, order = total, cand
    return order


def _best_approx_order(h: np.ndarray, k_s: int, targets: SinrTargets):
    """Backward DP over predecessor sets; None when every ordering fails.

    g(S) = min over u outside S of sigma^2 gamma_|S| / res^2(u|S) + g(S+u),
    with g = 0 on K_s-sets. The j-sets are held in colex order, each with an
    orthonormal basis extending that of the set minus its largest member.
    """
    k, m = h.shape
    scale = targets.sigma_sq * targets.gamma_vector(k_s)
    floor = RANK_TOL**2 * np.einsum("ij,ij->i", h.conj(), h).real
    users = np.arange(k)
    binom = np.array([[math.comb(n, r) for r in range(k_s + 2)] for n in range(k)])
    elems = np.zeros((1, 0), dtype=np.intp)  # members of each j-set, ascending
    member = np.zeros((1, k), dtype=bool)
    basis = np.zeros((1, 0, m), dtype=np.complex128)
    costs, nexts = [], []
    for j in range(k_s):
        res = residuals(h, basis)
        flat = res.view(np.float64)
        res2 = np.einsum("nki,nki->nk", flat, flat)
        ok = ~member & (res2 > floor)
        costs.append(np.divide(scale[j], res2, out=np.full(res2.shape, np.inf), where=ok))
        if j + 1 == k_s:
            break
        # colex rank of S+u: members below u keep their slot, those above move up one
        below, slot = elems[:, None, :] < users[:, None], np.arange(j)
        rank = np.where(below, binom[elems, slot + 1][:, None], binom[elems, slot + 2][:, None])
        rank = rank.sum(axis=2) + binom[users, below.sum(axis=2) + 1]
        nexts.append(np.where(ok, rank, 0))
        # (j+1)-sets in colex order: per new largest member u, the C(u, j) j-sets below u
        parent = np.concatenate([np.arange(c) for c in binom[j:, j]])
        top = np.repeat(np.arange(j, k), binom[j:, j])
        r, rn = res[parent, top], np.sqrt(res2[parent, top])[:, None]
        q = np.divide(r, rn, out=np.zeros_like(r), where=rn > 0)
        elems = np.column_stack([elems[parent], top])
        member = member[parent]
        member[np.arange(top.size), top] = True
        basis = np.concatenate([basis[parent], q[:, None, :]], axis=1)
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


def check_exhaustive_budget(k: int, k_s: int, budget: int) -> None:
    """Raise BudgetError when the C(K, K_s) * K_s! orderings exceed `budget`."""
    count = math.perm(k, k_s)
    if count > budget:
        raise BudgetError(
            f"{count} orderings exceed the budget of {budget}; reduce K or K_s"
        )


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
    so that route is a DP pricing sum_{j<K_s} C(K, j) predecessor sets
    (1,351 at K=20, K_s=4); the exact route prices every ordering, as
    exact powers depend on the predecessors' order. For both routes
    `budget` bounds the ordering count C(K, K_s) * K_s!, checked before
    any work happens.
    """
    _check_k_s(channels, k_s)
    if power_fn not in ("exact", "approx"):
        raise ConfigError(f"power_fn must be 'exact' or 'approx', got {power_fn!r}")
    check_exhaustive_budget(channels.K, k_s, budget)
    search = _best_approx_order if power_fn == "approx" else _best_exact_order
    order = search(channels.users, k_s, targets)
    if order is None:
        raise InfeasibleGeometryError("every ordering is infeasible")
    return SelectionResult("EXHAUSTIVE", order, order)
