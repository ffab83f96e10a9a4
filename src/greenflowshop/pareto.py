"""Dominance arithmetic: Pareto dominance, fast non-dominated sorting into
ranked fronts, crowding distance, and the crowded comparison order.

Crowding is the plain unnormalized neighbour-gap sum (boundary members get
infinity); a normalization switch exists but defaults off.  Energy values
are compared with exact float equality: they derive deterministically from
integer power-minute sums scaled once, so no epsilon is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .objectives import Objectives

__all__ = [
    "FrontSet",
    "Individual",
    "crowded_compare",
    "crowding_distance",
    "dominates",
    "fast_nondominated_sort",
    "rank_population",
    "unique_sorted",
]


@dataclass(eq=False)
class Individual:
    """A candidate schedule with its objectives and sorting bookkeeping.

    Identity equality on purpose: populations may hold field-identical
    members that must stay distinguishable.
    """

    perm: tuple[int, ...]
    obj: Objectives
    rank: int | None = None
    crowding: float | None = None

    def copy(self) -> "Individual":
        return Individual(self.perm, self.obj)


FrontSet = list[list[Individual]]


def dominates(a: Objectives, b: Objectives) -> bool:
    """True iff `a` is no worse in both objectives and better in at least one
    (both minimized)."""
    if a.flowtime > b.flowtime or a.energy > b.energy:
        return False
    return a.flowtime < b.flowtime or a.energy < b.energy


def fast_nondominated_sort(pop: list[Individual]) -> FrontSet:
    """Peel `pop` into ranked fronts (rank 1 = non-dominated).

    Classic two-phase scheme: count how many members dominate each one
    (n_p), remember whom each member dominates (S_p), then peel fronts by
    repeatedly releasing members whose count reaches zero.  The pairwise
    phase runs as one boolean matrix comparison.  Members keep their input
    order within a front; ranks are written onto the individuals.
    """
    if not pop:
        return []
    ft = np.fromiter((ind.obj.flowtime for ind in pop), dtype=np.float64, count=len(pop))
    en = np.fromiter((ind.obj.energy for ind in pop), dtype=np.float64, count=len(pop))
    no_worse = (ft[:, None] <= ft[None, :]) & (en[:, None] <= en[None, :])
    strictly_better = (ft[:, None] < ft[None, :]) | (en[:, None] < en[None, :])
    dom = no_worse & strictly_better  # dom[p, q]: p dominates q
    n_p = dom.sum(axis=0)
    s_p = [np.flatnonzero(dom[p]) for p in range(len(pop))]

    fronts: FrontSet = []
    current = np.flatnonzero(n_p == 0)
    rank = 1
    while current.size:
        front = []
        for p in current:
            pop[p].rank = rank
            front.append(pop[p])
        fronts.append(front)
        n_p[current] = -1  # retire peeled members
        for p in current:
            n_p[s_p[p]] -= 1
        current = np.flatnonzero(n_p == 0)
        rank += 1
    return fronts


def crowding_distance(
    front: list[Individual], normalize: bool = False
) -> list[Individual]:
    """Assign crowding distances within one front.

    Boundary members of either objective get infinity; interior members
    accumulate the gap between their two neighbours per objective,
    unnormalized unless `normalize` divides each gap by that objective's
    front range.  Fronts of one or two members are all boundary.
    """
    k = len(front)
    if k == 0:
        return front
    if k <= 2:
        for ind in front:
            ind.crowding = math.inf
        return front
    dist = [0.0] * k
    for value in (lambda i: front[i].obj.flowtime, lambda i: front[i].obj.energy):
        order = sorted(range(k), key=value)
        dist[order[0]] = math.inf
        dist[order[-1]] = math.inf
        span = value(order[-1]) - value(order[0])
        scale = span if normalize and span > 0 else 1.0
        for pos in range(1, k - 1):
            dist[order[pos]] += abs(value(order[pos + 1]) - value(order[pos - 1])) / scale
    for ind, d in zip(front, dist):
        ind.crowding = d
    return front


def crowded_compare(a: Individual, b: Individual) -> int:
    """-1 if `a` precedes `b` (lower rank, then larger crowding), 1 for the
    reverse, 0 on a tie; callers keep the first argument on ties."""
    if a.rank != b.rank:
        return -1 if a.rank < b.rank else 1
    if a.crowding != b.crowding:
        return -1 if a.crowding > b.crowding else 1
    return 0


def rank_population(pop: list[Individual]) -> FrontSet:
    """Sort into fronts and assign crowding throughout; returns the fronts."""
    fronts = fast_nondominated_sort(pop)
    for front in fronts:
        crowding_distance(front)
    return fronts


def unique_sorted(members) -> list[Individual]:
    """Copies of `members` ordered by (flowtime, energy), one per objective
    pair (the first in input order wins), with rank and crowding kept."""
    first: dict[Objectives, Individual] = {}
    for ind in sorted(members, key=lambda ind: (ind.obj.flowtime, ind.obj.energy)):
        first.setdefault(ind.obj, ind)
    return [Individual(ind.perm, ind.obj, ind.rank, ind.crowding) for ind in first.values()]
