"""Neighbourhood operators and the variable neighbourhood descent applied to
rank-1 solutions.

Three operators cycle in order: position swap and segment reversal propose
two neighbours per call, job reinsertion proposes ten.  An operator only
draws: it returns each neighbour as `(k, move)`, with `k` its first changed
position and `move` an int that names it among the incumbent's moves (a
swap of i and j is one move whichever comes first), and `neighbour(perm,
move)` builds it.  The descent keeps a single incumbent, recenters on it
whenever some neighbour strictly dominates it, and stops once all three
operators fail in a row or the iteration budget runs out.  A neighbour is
priced, unchecked, from the incumbent's recurrence state at `k`; the
descent keeps those states in a private list, built at the first neighbour
missing from the store.  A neighbour that the incumbent weakly dominates is
dropped once priced, and a memo of each incumbent's moves lets descents
from one start skip the moves an earlier one resolved (see `vnd_explore`).
The walk carries its incumbent and its archive as plain (objectives,
permutation) pairs; `Individual`s are built only for the passes that rank
their pool and for the result.
"""

from __future__ import annotations

from .instance import Instance, check_permutation
from .objectives import DEFAULT_KAPPA, Objectives, _kernel
from .pareto import Individual, crowding_distance, dominates, fast_nondominated_sort
from .seeding import Draws

__all__ = [
    "NEIGHBORHOOD_OPS",
    "insert_job",
    "neighbour",
    "op_neighborhood",
    "op_reversion",
    "op_swap",
    "reverse_window",
    "swap_positions",
    "vnd_explore",
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


def _distinct_pair(draws: Draws, n: int) -> tuple[int, int]:
    i = draws.integers(n)
    j = draws.integers(n - 1)
    if j >= i:
        j += 1
    return i, j


def op_swap(perm, draws: Draws) -> tuple[tuple[int, int], ...]:
    """Two independent random position swaps of `perm`."""
    n = len(perm)
    if n < 2:
        return ((n, 0),) * 2
    i1, j1 = _distinct_pair(draws, n)
    i2, j2 = _distinct_pair(draws, n)
    if i1 > j1:
        i1, j1 = j1, i1
    if i2 > j2:
        i2, j2 = j2, i2
    return (i1, 3 * (i1 * n + j1)), (i2, 3 * (i2 * n + j2))


def op_reversion(perm, draws: Draws) -> tuple[tuple[int, int], ...]:
    """Two independent random segment reversals (segments of length >= 2)."""
    n = len(perm)
    if n < 2:
        return ((n, 0),) * 2
    i1 = draws.integers(n - 1)
    first = (i1, 3 * (i1 * (n + 1) + draws.integers(i1 + 2, n + 1)) + 1)
    i2 = draws.integers(n - 1)
    return first, (i2, 3 * (i2 * (n + 1) + draws.integers(i2 + 2, n + 1)) + 1)


def op_neighborhood(perm, draws: Draws) -> tuple[tuple[int, int], ...]:
    """Ten reinsertion neighbours; (source, destination) pairs are distinct
    whenever the permutation admits ten distinct moves."""
    n = len(perm)
    if n < 2:
        return ((n, 0),) * 10
    total_moves = n * (n - 1)
    if total_moves >= 10:
        picks = draws.choice(total_moves, 10)
    else:
        # the ten draws of numpy's `integers(total_moves, size=10)`
        picks = [draws.integers(total_moves) for _ in range(10)]
    d = n - 1  # a code is src * d + offset; the move changes nothing before min(src, offset)
    return tuple([(src if (src := code // d) <= (offset := code - src * d) else offset,
                   3 * code + 2) for code in picks])


def neighbour(perm, move: int) -> tuple[int, ...]:
    """The neighbour of `perm` that an operator's `move` names: `3 * code +
    op`, where a swap's code is `i * n + j` (i < j), a reversal's
    `start * (n + 1) + stop` and a reinsertion's its draw `src * (n - 1) +
    offset`.  Move 0 of a one-job `perm` is `perm` itself."""
    code, op, n = move // 3, move % 3, len(perm)
    if op == 2:
        src, offset = code // (n - 1), code % (n - 1)
        return insert_job(perm, src, offset + (offset >= src))
    if op == 1:
        return reverse_window(perm, code // (n + 1), code % (n + 1))
    return swap_positions(perm, code // n, code % n)


NEIGHBORHOOD_OPS = (op_swap, op_reversion, op_neighborhood)


def _schedule(instance: Instance, perm, start: int, states: list) -> None:
    """Make `states` the recurrence state of `perm` after each of its
    positions: `states[i]` is (each machine's free time, flowtime) once the
    first `i` jobs are scheduled.  `states[:start + 1]` must already hold
    `perm`'s; the rest is dropped and rebuilt by the kernel."""
    del states[start + 1:]
    _kernel(instance.n_machines)(instance.kernel_times, perm, start, states[-1],
                                 instance.fixed_power, instance.machine_load, states)


def evaluate(instance: Instance, perm, kappa: float, k: int, states: list) -> Objectives:
    """The kernel's price of `perm` from `states[k]`, unchecked: `states`
    are the incumbent's, whose permutation `vnd_explore` checked, and an
    operator's `(k, perm)` is a permutation agreeing with it before `k`."""
    flowtime, power_minutes = _kernel(instance.n_machines)(
        instance.kernel_times, perm, k, states[k], instance.fixed_power, instance.machine_load)
    return Objectives(flowtime, power_minutes * kappa)


def vnd_explore(
    start: Individual,
    instance: Instance,
    max_iters: int,
    draws: Draws,
    kappa: float = DEFAULT_KAPPA,
    priced: dict[tuple[int, ...], Objectives] | None = None,
    memo: dict[tuple[int, ...], dict] | None = None,
) -> tuple[Individual, list[Individual]]:
    """Descend from `start` and harvest the walk's trade-off discoveries.

    Each pass prices the active operator's neighbours of the incumbent.
    If one of them dominates the incumbent, the pool's rank-1 member with
    the largest crowding distance is picked; a pick that dominates the
    incumbent becomes the new centre (operator unchanged).  Otherwise the
    next operator takes over.  Three consecutive operator failures mean
    none of them can improve the incumbent, which ends the search early.

    Ranking only when a neighbour dominates gives the same walk as ranking
    the pool plus the incumbent every pass: without such a neighbour the
    incumbent is rank 1, and no rank-1 pick can dominate it; with one, the
    incumbent is not rank 1 and changes no other member's rank-1 status,
    so it is left out of the pool.  Ranking draws no random numbers.
    `start.perm` is checked once, before any draw; neighbours are priced by
    the unchecked `evaluate` above from the incumbent's states, built at
    the first store miss and rebuilt at each recentre from the pick's `k`.

    A neighbour that the incumbent weakly dominates is dropped as soon as
    its price is known: it joins no pool and no archive scan.  No walk
    changes.  Such a neighbour cannot improve the incumbent.  The archive
    always holds a member that weakly dominates the incumbent (the start,
    then each pick or the member that kept it out), so it would refuse
    the neighbour.  And in an improving pass the improving neighbour
    dominates it, so it is not rank 1: the rank-1 members, their order,
    their crowding and the pick stay the same.

    `priced`, when given, maps permutations to their objectives: a
    neighbour found there is not evaluated, and every other neighbour's
    objectives are added to it.  Descents from one start can share it, so a
    neighbour is priced once however many of them propose it.  `memo`,
    when given, maps each incumbent to what its moves gave: `move ->
    (objectives, neighbour)`, or `()` for a dropped neighbour.  A move
    found there is neither built nor looked up in `priced`; every other
    move is added to it.  The walk is the same with or without either: a
    price is a pure function of the permutation, a move's neighbour is a
    function of the incumbent, and each lookup sits after the draws.

    Returns the final incumbent (a new `Individual` equal to `start` or
    dominating it) plus, in discovery order, the mutually non-dominated set
    of every candidate evaluated along the way; neighbours that trade one
    objective against the other matter to the caller's front even though
    the descent cannot accept them.  `start` itself is never returned or
    marked.
    """
    check_permutation(start.perm, instance.n_jobs)
    best_perm, best_obj = start.perm, start.obj
    archive = [(best_obj, best_perm)]  # (objectives, permutation) pairs
    states = None  # the incumbent's, built at its first store miss
    moves = None if memo is None else memo.setdefault(best_perm, {})
    a = failures = 0
    for _ in range(max_iters - 1):
        bft, ben = best_obj
        improves = False
        pool = []
        for k, move in NEIGHBORHOOD_OPS[a](best_perm, draws):
            known = None if moves is None else moves.get(move)
            if known is None:
                perm = neighbour(best_perm, move)
                obj = None if priced is None else priced.get(perm)
                if obj is None:
                    if states is None:
                        states = [((0,) * instance.n_machines, 0)]
                        _schedule(instance, best_perm, 0, states)
                    obj = evaluate(instance, perm, kappa, k, states)
                    if priced is not None:
                        priced[perm] = obj
                ft, en = obj
                if ft >= bft and en >= ben:  # the incumbent weakly dominates it
                    if moves is not None:
                        moves[move] = ()
                    continue
                if moves is not None:
                    moves[move] = (obj, perm)
            elif known:
                obj, perm = known
                ft, en = obj
            else:  # dropped
                continue
            pool.append((obj, perm, k))
            if ft <= bft and en <= ben:  # not dropped, so it dominates the incumbent
                improves = True
            # keep the neighbour unless a member weakly dominates it
            for (kft, ken), _ in archive:
                if kft <= ft and ken <= en:
                    break
            else:
                archive = [(o, p) for o, p in archive if o[0] < ft or o[1] < en]
                archive.append((obj, perm))
        if improves:
            ranked = [Individual(perm, obj) for obj, perm, _ in pool]
            top = crowding_distance(fast_nondominated_sort(ranked)[0])
            pick = max(top, key=lambda ind: ind.crowding)
            if dominates(pick.obj, best_obj):
                best_perm, best_obj = pick.perm, pick.obj
                if states is not None:
                    _schedule(instance, best_perm, pool[ranked.index(pick)][2], states)
                if memo is not None:
                    moves = memo.setdefault(best_perm, {})
                failures = 0
                continue
        a = (a + 1) % 3
        failures += 1
        if failures == 3:
            break
    return Individual(best_perm, best_obj), [Individual(p, o) for o, p in archive]
