"""Dominance arithmetic: Pareto dominance, non-dominated sorting into
ranked fronts and crowding distance.

Crowding is the plain unnormalized neighbour-gap sum (boundary members get
infinity).  Energy values are compared with exact float equality: they
derive deterministically from integer power-minute sums scaled once, so no
epsilon is involved.

Elitism fills a merged pool with copies (a 400-member pool of a 20x5 run
holds about 90 distinct points), so sorting and crowding work per distinct
objective point.  One dict pass groups the members by point, in input
order within each group, and the distinct points are sorted once by
(flowtime, energy).  Each front's member list is then built in one pass
over the input, so members keep their input order within a front.

With two objectives, ranking takes that one sort and one binary search per
point (Jensen 2003).  The points are visited by (flowtime, energy), so a
front's latest point has the lowest energy in its front and no higher
flowtime than the newcomer: it dominates the newcomer exactly when its
energy is no higher, and no other point of its front can.  The fronts'
latest energies never decrease from rank to rank, since a newcomer
replaces the first of them above its own energy, so `bisect_right` of the
newcomer's energy in that list is the first front that accepts it.

Crowding is written per point group in closed form, equal bit for bit to
sorting a front's members once per objective (stably, in input order) and
adding each interior member's neighbour gaps to 0.0, flowtime first.
Within one front equal flowtime implies equal energy, so in both sorts a
point's copies sit together in input order, and the energy order is the
flowtime order with the point groups reversed.  With `prev` and `next`
the neighbouring points of a front in (flowtime, energy) order:
- a lone point gets `0.0 + |ft_next - ft_prev| + |en_prev - en_next|`;
- of c >= 2 copies, the first gets `0.0 + |ft - ft_prev| + |en - en_next|`,
  the last `0.0 + |ft_next - ft| + |en_prev - en|` and those between 0.0;
- the front's first and last point have a neighbour at infinity beyond
  them, so their group's first and last copy get infinity and those
  between 0.0, and a front of at most two members is all infinity.
Values are written in member order, so a member listed twice keeps the
value of its last place.
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


def _group(pop: list[Individual]) -> tuple[dict[Objectives, list[Individual]], list[Objectives]]:
    """`pop`'s members grouped by objective point, in input order within a
    group, and the distinct points in (flowtime, energy) order."""
    groups: dict[Objectives, list[Individual]] = {}
    for ind in pop:
        groups.setdefault(ind.obj, []).append(ind)
    return groups, sorted(groups)


def _peel(pop, groups, points) -> list[list[Individual]]:
    """Peel the sorted distinct `points` into fronts, writing each member's
    rank as its point is placed; returns the member fronts, each in input
    order."""
    last: list[float] = []  # each front's latest energy, non-decreasing
    for point in points:
        energy = point.energy
        f = bisect_right(last, energy)
        if f == len(last):
            last.append(energy)
        else:
            last[f] = energy
        for ind in groups[point]:
            ind.rank = f + 1
    fronts: list[list[Individual]] = [[] for _ in last]
    for ind in pop:
        fronts[ind.rank - 1].append(ind)
    return fronts


def _crowd(groups, points) -> None:
    """Write the crowding of one front's members from its distinct `points`
    in (flowtime, energy) order (see the module docstring)."""
    inf = math.inf
    padded = [(-inf, inf), *points, (inf, -inf)]
    for (pft, pen), point, (nft, nen) in zip(padded, points, padded[2:]):
        group = groups[point]
        if len(group) == 1:
            group[0].crowding = 0.0 + abs(nft - pft) + abs(pen - nen)
            continue
        ft, en = point
        group[0].crowding = 0.0 + abs(ft - pft) + abs(en - nen)
        for ind in group[1:-1]:
            ind.crowding = 0.0
        group[-1].crowding = 0.0 + abs(nft - ft) + abs(pen - en)


def fast_nondominated_sort(pop: list[Individual]) -> list[list[Individual]]:
    """Peel `pop` into ranked fronts (rank 1 = non-dominated).

    One sort of the distinct objective points, then one binary search per
    point (see the module docstring).  Members keep their input order
    within a front; ranks are written onto the individuals.
    """
    groups, points = _group(pop)
    return _peel(pop, groups, points)


def crowding_distance(front: list[Individual]) -> list[Individual]:
    """Assign crowding distances within one front.

    Boundary members of either objective get infinity; interior members
    accumulate the unnormalized gap between their two neighbours per
    objective.  Fronts of one or two members are all boundary.  `front`
    must be one front: if any member dominates another, `ValueError` is
    raised.
    """
    if len(front) <= 2:
        for ind in front:
            ind.crowding = math.inf
        return front
    groups, points = _group(front)
    # distinct points in (flowtime, energy) order form one front exactly
    # when their energies strictly fall
    for a, b in zip(points, points[1:]):
        if b.energy >= a.energy:
            raise ValueError(f"crowding_distance needs one front, but {a} dominates {b}")
    _crowd(groups, points)
    return front


def rank_population(pop: list[Individual]) -> list[list[Individual]]:
    """Sort into fronts and assign crowding throughout; returns the fronts."""
    groups, points = _group(pop)
    fronts = _peel(pop, groups, points)
    by_front: list[list[Objectives]] = [[] for _ in fronts]
    for point in points:
        by_front[groups[point][0].rank - 1].append(point)
    for front_points in by_front:
        _crowd(groups, front_points)
    return fronts


def unique_sorted(members) -> list[Individual]:
    """Copies of `members` ordered by (flowtime, energy), one per objective
    pair (the first in input order wins), with rank and crowding kept."""
    first: dict[Objectives, Individual] = {}
    for ind in sorted(members, key=lambda ind: (ind.obj.flowtime, ind.obj.energy)):
        first.setdefault(ind.obj, ind)
    return [Individual(ind.perm, ind.obj, ind.rank, ind.crowding) for ind in first.values()]
