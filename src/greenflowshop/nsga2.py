"""Elitist bi-objective genetic search over job permutations.

One generation runs binary tournament selection, order crossover, swap
mutation, offspring evaluation, a merge of parents and offspring, a
budgeted round of descents over the merged pool (best fronts first, with
their trade-off discoveries folded back in), and elitist truncation back
to the population size.  All randomness flows from one root seed through
per-generation child streams, so switching the descent pass on or off
never perturbs the selection stream.  The initial population and each
generation's variation and descent draw through one `seeding.Draws` per
stream, which replays numpy's `Generator` draws from its raw words.

`generations` runs the loop as a stream of one record per generation,
which a caller reads before asking for the next (see its docstring), and
`evolve` reads the stream to its end.

The merged pool is ranked once per generation (twice with the descent),
and the survivors are not ranked again.  They are the best whole fronts
plus part of the next one, so dropping the worse fronts moves no
survivor's rank, and each whole front keeps its members in the same
order, hence the same crowding.  Only the truncated front is crowded
anew, over the members it keeps.

Elitist selection fills the population with copies of a few front
members, so a generation proposes the same permutations many times (about
four in five evaluations of a default `table3` solve would repeat one).
Each is priced once: offspring equal to a population member or an earlier
sibling take its objectives.  Each descent keeps a memo of what each
incumbent's moves gave: the neighbour, its objectives and its first
changed position, or "dropped" when the incumbent weakly dominates it
(see `localsearch.vnd_explore`).  Descents from a start that has begun
more than one descent in each of two consecutive generations share one
memo, kept for as long as that start keeps repeating.  A repeated (incumbent, move) pair then costs one int
lookup.
No front changes: `evaluate` is a pure function of the permutation for a
fixed instance and `kappa`, `Objectives` is immutable, and every lookup
comes after the random draws it could have affected.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass

from .instance import Instance
from .localsearch import _distinct_pair, swap_positions, vnd_explore
from .objectives import DEFAULT_KAPPA, evaluate
from .pareto import (
    Individual,
    crowding_distance,
    dominates,
    rank_population,
    unique_sorted,
)
from .seeding import STREAM_INIT, STREAM_LOCAL, STREAM_VARIATION, Draws

__all__ = [
    "RunConfig",
    "evolve",
    "generations",
    "init_population",
    "order_crossover",
    "swap_mutation",
    "tournament_select",
]

# Iteration budget of each descent.
LS_MAX_ITERS = 15
# Descent calls per generation, best fronts first.
LS_FRONT_CAP = 200


@dataclass(frozen=True)
class RunConfig:
    pop_size: int = 200
    generations: int = 50
    p_crossover: float = 0.6
    p_mutation: float = 0.05
    seed: int = 0
    ls_enabled: bool = True
    kappa: float = DEFAULT_KAPPA

    def __post_init__(self):
        for name in ("pop_size", "generations", "seed"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an int")
        if type(self.ls_enabled) is not bool:
            raise ValueError("ls_enabled must be a bool")
        for name in ("p_crossover", "p_mutation", "kappa"):
            if type(getattr(self, name)) not in (int, float):
                raise ValueError(f"{name} must be an int or a float")
        if self.pop_size < 2:
            raise ValueError("pop_size must be at least 2")
        if self.generations < 0:
            raise ValueError("generations must be non-negative")
        for name in ("p_crossover", "p_mutation"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability")
        if not 0.0 < self.kappa < math.inf:
            raise ValueError(f"kappa must be positive and finite, got {self.kappa!r}")


def init_population(instance: Instance, config: RunConfig) -> list[Individual]:
    """Uniformly random evaluated permutations, one shuffle per member."""
    draws = Draws(config.seed, STREAM_INIT)
    pop = []
    for _ in range(config.pop_size):
        perm = tuple(draws.permutation(instance.n_jobs))
        pop.append(Individual(perm, evaluate(instance, perm, config.kappa)))
    return pop


def tournament_select(pop: list[Individual], draws: Draws) -> Individual:
    """Binary tournament: two distinct members, the lower rank winning,
    then the larger crowding (first draw kept on a full tie)."""
    i, j = draws.choice(len(pop), 2)
    a, b = pop[i], pop[j]
    return a if (a.rank, -a.crowding) <= (b.rank, -b.crowding) else b


def order_crossover(
    parent_a, parent_b, draws: Draws
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Order crossover: each child keeps a cut segment of one parent and is
    refilled with the other parent's jobs in their order, scanning
    cyclically from the second cut."""
    n = len(parent_a)
    if len(parent_b) != n:
        raise ValueError("parents must have equal length")
    lo, hi = sorted(draws.choice(n + 1, 2))
    return (
        _ox_child(parent_a, parent_b, lo, hi),
        _ox_child(parent_b, parent_a, lo, hi),
    )


def _ox_child(keeper, donor, lo: int, hi: int) -> tuple[int, ...]:
    # The donor's other jobs, read cyclically from `hi`, fill positions
    # hi..n-1 and then 0..lo-1.
    held = set(keeper[lo:hi])
    rest = [j for j in donor[hi:] + donor[:hi] if j not in held]
    tail = len(keeper) - hi
    return (*rest[tail:], *keeper[lo:hi], *rest[:tail])


def swap_mutation(perm, draws: Draws) -> tuple[int, ...]:
    """Exchange two distinct random positions; identity below length 2."""
    if len(perm) < 2:
        return tuple(perm)
    return swap_positions(perm, *_distinct_pair(draws, len(perm)))


def _select_next(fronts: list[list[Individual]], size: int) -> list[Individual]:
    """Fill front by front; the partially fitting front is truncated by
    descending crowding distance (stable on ties).

    Survivors keep the rank and crowding of `fronts`, which are what
    ranking the survivors anew would give (see the module docstring); only
    the truncated front's crowding is recomputed, over the kept members in
    the order they are placed.
    """
    out: list[Individual] = []
    for front in fronts:
        room = size - len(out)
        if len(front) <= room:
            out.extend(front)
        else:
            ordered = sorted(front, key=lambda ind: -ind.crowding)
            out.extend(crowding_distance(ordered[:room]))
        if len(out) == size:
            break
    return out


def _make_offspring(
    instance: Instance,
    pop: list[Individual],
    config: RunConfig,
    draws: Draws,
) -> list[Individual]:
    """Tournament pairs, order crossover with probability `p_crossover`,
    then swap mutation per child with probability `p_mutation`.

    A child equal to a population member or to an earlier sibling takes
    that permutation's objectives instead of being evaluated again; the
    lookup lives for this call only and comes after every random draw.
    """
    perms: list[tuple[int, ...]] = []
    for _ in range((config.pop_size + 1) // 2):
        pa = tournament_select(pop, draws)
        pb = tournament_select(pop, draws)
        if draws.random() < config.p_crossover:
            ca, cb = order_crossover(pa.perm, pb.perm, draws)
        else:
            ca, cb = pa.perm, pb.perm
        perms.append(ca)
        perms.append(cb)
    del perms[config.pop_size :]  # odd sizes drop the spare child
    priced = {ind.perm: ind.obj for ind in pop}
    offspring = []
    for perm in perms:
        if draws.random() < config.p_mutation:
            perm = swap_mutation(perm, draws)
        obj = priced.get(perm)
        if obj is None:
            obj = priced[perm] = evaluate(instance, perm, config.kappa)
        offspring.append(Individual(perm, obj))
    return offspring


def _apply_local_search(
    pool: list[Individual],
    fronts: list[list[Individual]],
    instance: Instance,
    draws: Draws,
    kappa: float,
    stores: dict[tuple[int, ...], dict | None],
) -> dict[tuple[int, ...], dict | None]:
    """Run up to `LS_FRONT_CAP` descents, rank-1 members first (largest
    crowding first within each front), spilling into deeper fronts while
    budget remains.  Each strict improvement replaces its start in the
    pool; every walk's non-dominated discoveries join the pool as extra
    members, so trade-off points met during descent survive into the
    elitist selection.  Lower-rank starts act as perturbed restarts around
    the front, which keeps the search moving once the front's own
    neighbourhoods are exhausted.

    `stores` maps each start that began more than one descent in the
    previous round to the memo its descents filled there (what each
    incumbent's moves gave, dropped or kept: `vnd_explore(memo=)`), or to
    None if that was its first such round.  A start that repeats again
    keeps its memo, or gets a new one, so a move an earlier descent
    resolved from the same incumbent is neither built nor priced again;
    every other descent fills a memo of its own.  The mapping for the next
    round is returned.  A start's first repeated round is not stored: on
    `table3` almost every hit comes from a start that keeps returning,
    while at 50 jobs starts rarely return and a new start's neighbours are
    almost never proposed twice, so a store there would only cost.
    """
    candidates: list[Individual] = []
    for front in fronts:
        room = LS_FRONT_CAP - len(candidates)
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
            ind, instance, LS_MAX_ITERS, draws, kappa, memo=kept.get(ind.perm)
        )
        if dominates(improved.obj, ind.obj):
            pool[slot[id(ind)]] = improved
        harvested.extend(
            found for found in discoveries
            if found.obj != improved.obj and found.obj != ind.obj
        )
    pool.extend(harvested)
    return kept


def generations(
    instance: Instance, config: RunConfig
) -> Iterator[tuple[int, list[Individual], list[Individual]]]:
    """Run the generational loop, yielding `(gen, pool, population)` once
    per generation: generation 0 is the ranked initial population, which
    is also its own pool, and each later one yields the merged pool after
    the descent and the survivors selected from it.

    The records are the run's own lists and members, not copies: the next
    generation merges the survivors and rewrites their rank and crowding.
    Read a record before asking for the next one, and change none.
    """
    pop = init_population(instance, config)
    rank_population(pop)
    yield 0, pop, pop
    stores: dict[tuple[int, ...], dict | None] = {}  # see _apply_local_search
    for gen in range(1, config.generations + 1):
        var_draws = Draws(config.seed, STREAM_VARIATION, gen)
        offspring = _make_offspring(instance, pop, config, var_draws)
        merged = pop + offspring
        fronts = rank_population(merged)
        if config.ls_enabled:
            ls_draws = Draws(config.seed, STREAM_LOCAL, gen)
            stores = _apply_local_search(merged, fronts, instance, ls_draws, config.kappa, stores)
            fronts = rank_population(merged)
        pop = _select_next(fronts, config.pop_size)
        yield gen, merged, pop


def evolve(instance: Instance, config: RunConfig) -> list[Individual]:
    """Run `generations` to its end and return the last population's best
    front, deduplicated by objective pair and sorted by (flowtime, energy)."""
    for _, _, pop in generations(instance, config):
        pass
    return unique_sorted(ind for ind in pop if ind.rank == 1)
