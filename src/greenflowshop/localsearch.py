"""Neighbourhood operators and the variable neighbourhood descent applied to
rank-1 solutions.

Three operators cycle in order: position swap and segment reversal propose
two neighbours per call, job reinsertion proposes ten.  The descent keeps a
single incumbent, recenters on it whenever some neighbour strictly
dominates it, and stops once all three operators fail in a row or the
iteration budget runs out.  Every neighbour agrees with the incumbent up
to its first changed position, so it is evaluated from the incumbent's
per-position recurrence state instead of from scratch.
"""

from __future__ import annotations

import numpy as np

from .instance import Instance
from .objectives import DEFAULT_KAPPA, Objectives, evaluate, schedule_prefix
from .pareto import Individual, crowding_distance, dominates, fast_nondominated_sort

__all__ = [
    "NEIGHBORHOOD_OPS",
    "insert_job",
    "op_neighborhood",
    "op_reversion",
    "op_swap",
    "reverse_window",
    "swap_positions",
    "vnd_explore",
    "vnd_local_search",
]


def swap_positions(perm, i: int, j: int) -> tuple[int, ...]:
    out = list(perm)
    out[i], out[j] = out[j], out[i]
    return tuple(out)


def reverse_window(perm, start: int, stop: int) -> tuple[int, ...]:
    """Reverse the half-open window [start, stop)."""
    out = list(perm)
    out[start:stop] = out[start:stop][::-1]
    return tuple(out)


def insert_job(perm, src: int, dst: int) -> tuple[int, ...]:
    """Remove the job at `src` and reinsert it so it lands at index `dst`."""
    out = list(perm)
    job = out.pop(src)
    out.insert(dst, job)
    return tuple(out)


def _distinct_pair(rng: np.random.Generator, n: int) -> tuple[int, int]:
    i = int(rng.integers(n))
    j = int(rng.integers(n - 1))
    if j >= i:
        j += 1
    return i, j


def op_swap(perm, rng: np.random.Generator) -> tuple[tuple[int, ...], ...]:
    """Two independent random position swaps of `perm`."""
    n = len(perm)
    if n < 2:
        return (tuple(perm), tuple(perm))
    return tuple(
        swap_positions(perm, *_distinct_pair(rng, n)) for _ in range(2)
    )


def op_reversion(perm, rng: np.random.Generator) -> tuple[tuple[int, ...], ...]:
    """Two independent random segment reversals (segments of length >= 2)."""
    n = len(perm)
    if n < 2:
        return (tuple(perm), tuple(perm))
    out = []
    for _ in range(2):
        start = int(rng.integers(n - 1))
        stop = int(rng.integers(start + 2, n + 1))
        out.append(reverse_window(perm, start, stop))
    return tuple(out)


def op_neighborhood(perm, rng: np.random.Generator) -> tuple[tuple[int, ...], ...]:
    """Ten reinsertion neighbours; (source, destination) pairs are distinct
    whenever the permutation admits ten distinct moves."""
    n = len(perm)
    if n < 2:
        return tuple(tuple(perm) for _ in range(10))
    total_moves = n * (n - 1)
    if total_moves >= 10:
        picks = rng.choice(total_moves, size=10, replace=False)
    else:
        picks = rng.integers(total_moves, size=10)
    out = []
    for code in picks:
        src, offset = divmod(int(code), n - 1)
        dst = offset + 1 if offset >= src else offset
        out.append(insert_job(perm, src, dst))
    return tuple(out)


NEIGHBORHOOD_OPS = (op_swap, op_reversion, op_neighborhood)


def vnd_explore(
    start: Individual,
    instance: Instance,
    max_iters: int,
    rng: np.random.Generator,
    kappa: float = DEFAULT_KAPPA,
    priced: dict[tuple[int, ...], Objectives] | None = None,
) -> tuple[Individual, list[Individual]]:
    """Descend from `start` and harvest the walk's trade-off discoveries.

    Each pass proposes the active operator's neighbours of the incumbent.
    If one of them dominates the incumbent, the pool's rank-1 set is taken
    and its sole member or the one with the largest crowding distance is
    picked; a pick that dominates the incumbent becomes the new centre
    (operator unchanged).  Otherwise the next operator takes over.  Three
    consecutive operator failures mean none of them can improve the
    incumbent, which ends the search early.

    Ranking only when a neighbour dominates gives the same walk as ranking
    the pool plus the incumbent every pass: without such a neighbour the
    incumbent is rank 1, and no rank-1 pick can dominate it; with one, the
    incumbent is not rank 1 and changes no other member's rank-1 status,
    so it is left out of the pool.  Ranking draws no random numbers, and
    its marks land only on discarded pool members.  Neighbours are priced
    from the incumbent's `Prefix`, rebuilt from the states the new
    incumbent shares with the old one whenever the incumbent changes.

    `priced`, when given, maps permutations to their objectives: a
    neighbour found there is not evaluated, and every other neighbour's
    objectives are added to it.  Descents from one start can share it, so a
    neighbour is priced once however many of them propose it.  The walk is
    the same with or without it: `evaluate` is a pure function of the
    permutation, and the lookup sits after the neighbours are drawn.

    Returns the final incumbent (the start itself or a solution dominating
    it) plus the mutually non-dominated set of every candidate evaluated
    along the way; neighbours that trade one objective against the other
    matter to the caller's front even though the descent cannot accept
    them.
    """
    best = start.copy()
    archive = [best.copy()]

    def harvest(ind: Individual) -> None:
        for kept in archive:
            if kept.obj == ind.obj or dominates(kept.obj, ind.obj):
                return
        archive[:] = [kept for kept in archive if not dominates(ind.obj, kept.obj)]
        archive.append(ind.copy())

    a = 0
    flag = 0
    failures = 0
    g = 1
    prefix = schedule_prefix(instance, best.perm)
    while g < max_iters:
        neighbours = NEIGHBORHOOD_OPS[a](best.perm, rng)
        if priced is None:
            pool = [Individual(p, evaluate(instance, p, kappa, prefix)) for p in neighbours]
        else:
            pool = []
            for p in neighbours:
                obj = priced.get(p)
                if obj is None:
                    obj = priced[p] = evaluate(instance, p, kappa, prefix)
                pool.append(Individual(p, obj))
        for ind in pool:
            harvest(ind)
        pick = None
        if any(dominates(ind.obj, best.obj) for ind in pool):
            top = fast_nondominated_sort(pool)[0]
            if len(top) == 1:
                pick = top[0]
            else:
                crowding_distance(top)
                pick = max(top, key=lambda ind: ind.crowding)
        if pick is not None and dominates(pick.obj, best.obj):
            best = pick.copy()
            prefix = schedule_prefix(instance, best.perm, prefix)
            failures = 0
        else:
            flag += 1
            a = flag % 3
            failures += 1
            if failures == 3:
                break
        g += 1
    return best, archive


def vnd_local_search(
    start: Individual,
    instance: Instance,
    max_iters: int,
    rng: np.random.Generator,
    kappa: float = DEFAULT_KAPPA,
) -> Individual:
    """Descend from `start`; the result is `start` itself or a solution that
    dominates it."""
    best, _ = vnd_explore(start, instance, max_iters, rng, kappa)
    return best
