"""Elitist bi-objective genetic search over job permutations.

One generation runs binary tournament selection, order crossover, swap
mutation, offspring evaluation, a merge of parents and offspring, a
budgeted round of descents over the merged pool (best fronts first, with
their trade-off discoveries folded back in), and elitist truncation back
to the population size.  All randomness flows from one root seed through
per-generation child streams, so switching the descent pass on or off
never perturbs the selection stream.

Elitist selection fills the population with copies of a few front
members, so a generation proposes the same permutations many times.  Each
is priced once: offspring equal to a population member or an earlier
sibling take its objectives, and descents from a start that has begun
more than one descent in each of two consecutive generations share one
store of priced neighbours, kept for as long as that start keeps
repeating.  No front changes: `evaluate` is a pure function of the
permutation for a fixed instance and `kappa`, `Objectives` is immutable,
and every lookup comes after the random draws it could have affected.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .instance import Instance
from .localsearch import _distinct_pair, swap_positions, vnd_explore
from .objectives import DEFAULT_KAPPA, evaluate
from .pareto import (
    FrontSet,
    Individual,
    crowded_compare,
    dominates,
    rank_population,
    unique_sorted,
)
from .seeding import STREAM_INIT, STREAM_LOCAL, STREAM_VARIATION, stream

__all__ = [
    "RunConfig",
    "elite_retention",
    "evolve",
    "init_population",
    "order_crossover",
    "swap_mutation",
    "tournament_select",
]

# Iteration budget of each descent.
LS_MAX_ITERS = 15


@dataclass(frozen=True)
class RunConfig:
    pop_size: int = 200
    generations: int = 50
    p_crossover: float = 0.6
    p_mutation: float = 0.05
    seed: int = 0
    ls_enabled: bool = True
    ls_front_cap: int = 200  # descent calls per generation, best fronts first

    def __post_init__(self):
        if self.pop_size < 2:
            raise ValueError("pop_size must be at least 2")
        if self.generations < 0:
            raise ValueError("generations must be non-negative")
        for name in ("p_crossover", "p_mutation"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability")
        if self.ls_front_cap < 1:
            raise ValueError("ls_front_cap must be at least 1")


def init_population(
    instance: Instance, config: RunConfig, kappa: float = DEFAULT_KAPPA
) -> list[Individual]:
    """Uniformly random evaluated permutations, one shuffle per member."""
    rng = stream(config.seed, STREAM_INIT)
    pop = []
    for _ in range(config.pop_size):
        perm = tuple(int(x) for x in rng.permutation(instance.n_jobs))
        pop.append(Individual(perm, evaluate(instance, perm, kappa)))
    return pop


def tournament_select(pop: list[Individual], rng: np.random.Generator) -> Individual:
    """Binary tournament: two distinct members, crowded-comparison winner
    (first draw kept on a full tie)."""
    i, j = rng.choice(len(pop), size=2, replace=False)
    a, b = pop[int(i)], pop[int(j)]
    return a if crowded_compare(a, b) <= 0 else b


def order_crossover(
    parent_a, parent_b, rng: np.random.Generator
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Order crossover: each child keeps a cut segment of one parent and is
    refilled with the other parent's jobs in their order, scanning
    cyclically from the second cut."""
    n = len(parent_a)
    if len(parent_b) != n:
        raise ValueError("parents must have equal length")
    lo, hi = sorted(int(x) for x in rng.choice(n + 1, size=2, replace=False))
    return (
        _ox_child(parent_a, parent_b, lo, hi),
        _ox_child(parent_b, parent_a, lo, hi),
    )


def _ox_child(keeper, donor, lo: int, hi: int) -> tuple[int, ...]:
    n = len(keeper)
    child = [None] * n
    child[lo:hi] = keeper[lo:hi]
    held = set(keeper[lo:hi])
    pos = hi % n
    for k in range(n):
        job = donor[(hi + k) % n]
        if job in held:
            continue
        child[pos] = job
        pos = (pos + 1) % n
    return tuple(child)


def swap_mutation(perm, rng: np.random.Generator) -> tuple[int, ...]:
    """Exchange two distinct random positions; identity below length 2."""
    if len(perm) < 2:
        return tuple(perm)
    return swap_positions(perm, *_distinct_pair(rng, len(perm)))


def _select_next(fronts: FrontSet, size: int) -> list[Individual]:
    """Fill front by front; the partially fitting front is truncated by
    descending crowding distance (stable on ties)."""
    out: list[Individual] = []
    for front in fronts:
        if len(out) + len(front) <= size:
            out.extend(front)
        else:
            ordered = sorted(front, key=lambda ind: -ind.crowding)
            out.extend(ordered[: size - len(out)])
        if len(out) == size:
            break
    return out


def elite_retention(
    parents: list[Individual], offspring: list[Individual]
) -> list[Individual]:
    """Merge both generations, re-sort the doubled pool, and keep the best
    members front by front until the parent population size is reached."""
    pool = parents + offspring
    fronts = rank_population(pool)
    return _select_next(fronts, len(parents))


def _make_offspring(
    instance: Instance,
    pop: list[Individual],
    config: RunConfig,
    rng: np.random.Generator,
    kappa: float,
) -> list[Individual]:
    """Tournament pairs, order crossover with probability `p_crossover`,
    then swap mutation per child with probability `p_mutation`.

    A child equal to a population member or to an earlier sibling takes
    that permutation's objectives instead of being evaluated again; the
    lookup lives for this call only and comes after every random draw.
    """
    perms: list[tuple[int, ...]] = []
    for _ in range((config.pop_size + 1) // 2):
        pa = tournament_select(pop, rng)
        pb = tournament_select(pop, rng)
        if rng.random() < config.p_crossover:
            ca, cb = order_crossover(pa.perm, pb.perm, rng)
        else:
            ca, cb = pa.perm, pb.perm
        perms.append(ca)
        perms.append(cb)
    del perms[config.pop_size :]  # odd sizes drop the spare child
    priced = {ind.perm: ind.obj for ind in pop}
    offspring = []
    for perm in perms:
        if rng.random() < config.p_mutation:
            perm = swap_mutation(perm, rng)
        obj = priced.get(perm)
        if obj is None:
            obj = priced[perm] = evaluate(instance, perm, kappa)
        offspring.append(Individual(perm, obj))
    return offspring


def _apply_local_search(
    pool: list[Individual],
    fronts: FrontSet,
    instance: Instance,
    config: RunConfig,
    rng: np.random.Generator,
    kappa: float,
    stores: dict[tuple[int, ...], dict | None],
) -> dict[tuple[int, ...], dict | None]:
    """Run up to `ls_front_cap` descents, rank-1 members first (largest
    crowding first within each front), spilling into deeper fronts while
    budget remains.  Each strict improvement replaces its start in the
    pool; every walk's non-dominated discoveries join the pool as extra
    members, so trade-off points met during descent survive into the
    elitist selection.  Lower-rank starts act as perturbed restarts around
    the front, which keeps the search moving once the front's own
    neighbourhoods are exhausted.

    `stores` maps each start that began more than one descent in the
    previous round to the neighbour objectives its descents priced there
    (`vnd_explore(priced=)`), or to None if that was its first such round.
    A start that repeats again keeps its store, or gets a new one, so its
    descents share what they price and skip what its earlier descents
    priced; the mapping for the next round is returned.  A start's first
    repeated round is not stored: on `table3` almost every hit comes from
    a start that keeps returning, while at 50 jobs starts rarely return
    and a new start's neighbours are almost never proposed twice, so a
    store there would only cost.
    """
    candidates: list[Individual] = []
    for front in fronts:
        room = config.ls_front_cap - len(candidates)
        if room <= 0:
            break
        candidates.extend(sorted(front, key=lambda ind: -ind.crowding)[:room])
    kept: dict[tuple[int, ...], dict | None] = {}
    for perm, count in Counter(ind.perm for ind in candidates).items():
        if count > 1:
            kept[perm] = None if perm not in stores else stores[perm] or {}
    slot = {id(ind): k for k, ind in enumerate(pool)}
    harvested: list[Individual] = []
    for ind in candidates:
        improved, discoveries = vnd_explore(
            ind, instance, LS_MAX_ITERS, rng, kappa, priced=kept.get(ind.perm)
        )
        if dominates(improved.obj, ind.obj):
            pool[slot[id(ind)]] = improved
        harvested.extend(
            found for found in discoveries
            if found.obj != improved.obj and found.obj != ind.obj
        )
    pool.extend(harvested)
    return kept


def evolve(
    instance: Instance,
    config: RunConfig,
    kappa: float = DEFAULT_KAPPA,
    on_generation: Callable[[int, list[Individual], list[Individual]], None] | None = None,
) -> list[Individual]:
    """Run the full generational loop and return the final best front,
    deduplicated by objective pair and sorted by (flowtime, energy).

    `on_generation(gen, merged_pool, population)` is invoked after each
    generation's survivor selection, for tracing and tests.  A `kappa` that
    is not positive and finite raises ValueError before any work starts.
    """
    if not 0.0 < kappa < math.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa!r}")
    pop = init_population(instance, config, kappa)
    rank_population(pop)
    stores: dict[tuple[int, ...], dict | None] = {}  # see _apply_local_search
    for gen in range(1, config.generations + 1):
        var_rng = stream(config.seed, STREAM_VARIATION, gen)
        offspring = _make_offspring(instance, pop, config, var_rng, kappa)
        merged = pop + offspring
        fronts = rank_population(merged)
        if config.ls_enabled:
            ls_rng = stream(config.seed, STREAM_LOCAL, gen)
            stores = _apply_local_search(merged, fronts, instance, config, ls_rng, kappa, stores)
            fronts = rank_population(merged)
        pop = _select_next(fronts, config.pop_size)
        rank_population(pop)
        if on_generation is not None:
            on_generation(gen, merged, pop)
    return unique_sorted(ind for ind in pop if ind.rank == 1)
