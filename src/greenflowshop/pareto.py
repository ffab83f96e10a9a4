"""Dominance arithmetic: Pareto dominance, non-dominated sorting into
ranked fronts and crowding distance.

Crowding is the plain unnormalized neighbour-gap sum (boundary members get
infinity).  Energy values are compared with exact float equality: they
derive deterministically from integer power-minute sums scaled once, so no
epsilon is involved.

With two objectives, ranking takes one sort and one binary search per
point (Jensen 2003).  The points are visited by (flowtime, energy), so a
front's latest member has the lowest energy in its front and no higher
flowtime than the newcomer: it dominates the newcomer exactly when its
energy is no higher and the two points differ, and no other member of its
front can.  The fronts' latest energies never decrease from rank to rank,
since a newcomer replaces the first of them above its own energy, so
`bisect_right` of the newcomer's energy in that list is the first front
that accepts it.  A point equal to the one before it joins that point's
front instead: equal points do not dominate each other, but `bisect_right`
would pass over their shared energy.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

from .objectives import Objectives

__all__ = [
    "Individual",
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


def dominates(a: Objectives, b: Objectives) -> bool:
    """True iff `a` is no worse in both objectives and better in at least one
    (both minimized)."""
    if a.flowtime > b.flowtime or a.energy > b.energy:
        return False
    return a.flowtime < b.flowtime or a.energy < b.energy


def fast_nondominated_sort(pop: list[Individual]) -> list[list[Individual]]:
    """Peel `pop` into ranked fronts (rank 1 = non-dominated).

    One sort by (flowtime, energy), then one binary search per member (see
    the module docstring).  Members keep their input order within a front;
    ranks are written onto the individuals.
    """
    objs = [ind.obj for ind in pop]
    fronts: list[list[int]] = []
    last: list[float] = []  # each front's latest energy, non-decreasing
    prev = f = None
    for k in sorted(range(len(pop)), key=objs.__getitem__):
        obj = objs[k]
        if obj != prev:  # a repeat joins the front of the point it repeats
            prev = obj
            f = bisect_right(last, obj.energy)
            if f == len(last):
                fronts.append([])
                last.append(obj.energy)
            else:
                last[f] = obj.energy
        fronts[f].append(k)
    for rank, front in enumerate(fronts, 1):
        front.sort()
        for k in front:
            pop[k].rank = rank
    return [[pop[k] for k in front] for front in fronts]


def crowding_distance(front: list[Individual]) -> list[Individual]:
    """Assign crowding distances within one front.

    Boundary members of either objective get infinity; interior members
    accumulate the unnormalized gap between their two neighbours per
    objective.  Fronts of one or two members are all boundary.
    """
    k = len(front)
    if k <= 2:
        for ind in front:
            ind.crowding = math.inf
        return front
    dist = [0.0] * k
    for values in ([ind.obj.flowtime for ind in front], [ind.obj.energy for ind in front]):
        order = sorted(range(k), key=values.__getitem__)
        dist[order[0]] = math.inf
        dist[order[-1]] = math.inf
        for before, here, after in zip(order, order[1:], order[2:]):
            dist[here] += abs(values[after] - values[before])
    for ind, d in zip(front, dist):
        ind.crowding = d
    return front


def rank_population(pop: list[Individual]) -> list[list[Individual]]:
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
