"""Shared test helpers: independent oracles and tiny builders.

The oracles here deliberately avoid the library's own algorithms: front
peeling scans pairs and removes non-dominated layers one by one, and the
dominance check is written out long-hand.
"""

from __future__ import annotations

import csv
import itertools
import math
import random

from greenflowshop.instance import Instance
from greenflowshop.localsearch import insert_job, reverse_window, swap_positions
from greenflowshop.objectives import DEFAULT_KAPPA, evaluate
from greenflowshop.pareto import (
    Individual,
    crowding_distance,
    dominates,
    fast_nondominated_sort,
)


def naive_dominates(a, b) -> bool:
    better_somewhere = False
    for x, y in zip(a, b):
        if x > y:
            return False
        if x < y:
            better_somewhere = True
    return better_somewhere


def naive_front_peel(points) -> list[list[int]]:
    """Independent oracle: repeatedly peel the non-dominated layer."""
    remaining = list(range(len(points)))
    fronts = []
    while remaining:
        layer = [
            i for i in remaining
            if not any(naive_dominates(points[j], points[i]) for j in remaining if j != i)
        ]
        fronts.append(layer)
        remaining = [i for i in remaining if i not in layer]
    return fronts


def reference_nondominated_sort(pop):
    """The non-dominated sort as written before the bisect rewrite: one sort
    by (flowtime, energy), then each member joins the first front whose
    latest member does not dominate it, scanning the fronts in order."""
    fronts = []
    for k in sorted(range(len(pop)), key=lambda k: pop[k].obj):
        for front in fronts:
            if not dominates(pop[front[-1]].obj, pop[k].obj):
                front.append(k)
                break
        else:
            fronts.append([k])
    for rank, front in enumerate(fronts, 1):
        front.sort()
        for k in front:
            pop[k].rank = rank
    return [[pop[k] for k in front] for front in fronts]


def reference_crowding_distance(front):
    """Crowding as written before the plain-list rewrite: per objective,
    sort by a lambda and add each interior member's neighbour gap."""
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
        for pos in range(1, k - 1):
            dist[order[pos]] += abs(value(order[pos + 1]) - value(order[pos - 1]))
    for ind, d in zip(front, dist):
        ind.crowding = d
    return front


def reference_ox_child(keeper, donor, lo, hi):
    """Order-crossover child as first written: fill the positions after the
    kept segment cyclically with the donor's other jobs, scanning the donor
    cyclically from the second cut."""
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


def reference_states(instance: Instance, perm) -> list[tuple[tuple[int, ...], int]]:
    """The descent's states of `perm` (`localsearch._schedule`'s, from
    scratch) by the plain loop over machines that the compiled kernel
    replaced: a list of free times read and written once per machine per
    job."""
    free, flowtime = [0] * instance.n_machines, 0
    states = [(tuple(free), flowtime)]
    for job in perm:
        row = instance.proc_time[job]
        c = free[0] + row[0]
        free[0] = c
        for j in range(1, instance.n_machines):
            f = free[j]
            if c < f:
                c = f
            c += row[j]
            free[j] = c
        flowtime += c
        states.append((tuple(free), flowtime))
    return states


def random_instance(rng: random.Random, n_jobs: int, n_machines: int) -> Instance:
    times = [[rng.randint(1, 99) for _ in range(n_machines)] for _ in range(n_jobs)]
    powers = [rng.randint(700, 1500) for _ in range(n_machines)]
    return Instance.from_matrix(times, powers)


def enumerate_front(instance: Instance, kappa: float = 1.0 / 60.0):
    """Exact Pareto front of a small instance by full enumeration: every
    permutation's objectives, and those of the permutations that nothing
    dominates, in permutation order.  One sort filters the distinct points:
    in (flowtime, energy) order each earlier one is no later in flowtime,
    so a point is dominated exactly when an earlier one has no more energy."""
    objs = {perm: evaluate(instance, perm, kappa)
            for perm in itertools.permutations(range(instance.n_jobs))}
    kept, least = set(), math.inf
    for obj in sorted(set(objs.values())):
        if obj.energy < least:
            kept.add(obj)
            least = obj.energy
    return objs, {perm: obj for perm, obj in objs.items() if obj in kept}


def _numpy_pair(rng, n):
    i = int(rng.integers(n))
    j = int(rng.integers(n - 1))
    return i, j + (j >= i)


def numpy_op_swap(perm, rng):
    n = len(perm)
    if n < 2:
        return (tuple(perm), tuple(perm))
    return tuple(swap_positions(perm, *_numpy_pair(rng, n)) for _ in range(2))


def numpy_op_reversion(perm, rng):
    n = len(perm)
    if n < 2:
        return (tuple(perm), tuple(perm))
    out = []
    for _ in range(2):
        start = int(rng.integers(n - 1))
        stop = int(rng.integers(start + 2, n + 1))
        out.append(reverse_window(perm, start, stop))
    return tuple(out)


def numpy_op_neighborhood(perm, rng):
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


# The three neighbourhoods drawing through numpy's own `Generator` methods.
NUMPY_NEIGHBORHOOD_OPS = (numpy_op_swap, numpy_op_reversion, numpy_op_neighborhood)


def assert_same_position(draws, rng):
    """`draws` stands on the half-word where numpy's own calls left `rng`:
    a tail of whole half-words (`integers(2**32)` never rejects), a whole
    word that keeps any cached half cached, and a shuffle agrees on both."""
    assert draws.integers(2**32) == rng.integers(2**32)
    assert draws.random() == rng.random()
    assert draws.integers(2**32) == rng.integers(2**32)
    assert draws.permutation(20) == rng.permutation(20).tolist()


def reference_choice(draws, n, k):
    """`Generator.choice(n, k, replace=False)` as numpy writes it, one draw
    at a time through `draws._below`, the generic Lemire loop: Floyd's
    pick on [0, top] for each top from n - k up (0 itself undrawn), top
    for a pick already taken, then a shuffle from position k - 1 down."""
    picks = []
    for top in range(n - k, n):
        pick = draws._below((top + 1,))[0] if top else 0
        picks.append(top if pick in picks else pick)
    for i in range(k - 1, 0, -1):
        j = draws._below((i + 1,))[0]
        picks[i], picks[j] = picks[j], picks[i]
    return picks


def reference_vnd_explore(start, instance, max_iters, rng, kappa=DEFAULT_KAPPA):
    """The descent as first written: every neighbour gets a full `evaluate`,
    every pass ranks its pool and picks the most crowded rank-1 member,
    whether or not any neighbour dominates the incumbent, and the
    neighbours are drawn by numpy's `Generator` methods on `rng`."""
    best = start.copy()
    archive = [best.copy()]

    def harvest(ind):
        for kept in archive:
            if kept.obj == ind.obj or dominates(kept.obj, ind.obj):
                return
        archive[:] = [kept for kept in archive if not dominates(ind.obj, kept.obj)]
        archive.append(ind.copy())

    a = 0
    flag = 0
    failures = 0
    g = 1
    while g < max_iters:
        neighbours = NUMPY_NEIGHBORHOOD_OPS[a](best.perm, rng)
        pool = [Individual(p, evaluate(instance, p, kappa)) for p in neighbours]
        for ind in pool:
            harvest(ind)
        pool.append(best.copy())
        top = fast_nondominated_sort(pool)[0]
        if len(top) == 1:
            pick = top[0]
        else:
            crowding_distance(top)
            pick = max(top, key=lambda ind: ind.crowding)
        if dominates(pick.obj, best.obj):
            best = pick.copy()
            failures = 0
        else:
            flag += 1
            a = flag % 3
            failures += 1
            if failures == 3:
                break
        g += 1
    return best, archive


def is_orthogonal(rows) -> bool:
    """Every ordered factor pair shows each level combination exactly once."""
    width = len(rows[0])
    for fa in range(width):
        for fb in range(fa + 1, width):
            combos = {(row[fa], row[fb]) for row in rows}
            if len(combos) != len(rows):
                return False
    return True


def _parse_sequence(text: str) -> tuple[int, ...]:
    return tuple(int(tok) - 1 for tok in text.split("-"))


def read_front_csv(path) -> list[tuple[tuple[int, ...], int, float]]:
    """(0-based permutation, flowtime, energy) per row of a front file."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return [
            (_parse_sequence(row["sequence"]), int(row["flowtime"]), float(row["energy_whr"]))
            for row in csv.DictReader(fh)
        ]


def verify_front_csv(path, instance: Instance, kappa: float = DEFAULT_KAPPA) -> bool:
    """Re-evaluate each printed sequence; exact flowtime match and energy
    within 1e-6 relative."""
    for perm, flowtime, energy in read_front_csv(path):
        obj = evaluate(instance, perm, kappa)
        if obj.flowtime != flowtime:
            return False
        scale = max(abs(energy), 1.0)
        if abs(obj.energy - energy) > 1e-6 * scale:
            return False
    return True


# ---------------------------------------------------------------------------
# Golden data frozen from the reference study's printed tables.
# ---------------------------------------------------------------------------

# Orthogonal-array responses: one flowtime and one energy value per row.
FT_RESPONSES = [912, 913, 909, 921, 920, 915, 917, 917,
                916, 916, 916, 924, 912, 923, 909, 923]
EC_RESPONSES = [1290.8, 1207.8, 1145.8, 1207.8, 1207.8, 1207.5, 1242.2, 1290.4,
                1207.8, 1209.8, 1207.5, 1348.7, 1253.4, 1334.2, 1290.4, 1145.8]

# Response-table-of-means values published for the two studies.
FT_TABLE = {
    "gen": (913.8, 917.3, 918.0, 916.8),
    "pop": (915.0, 916.8, 912.8, 921.3),
    "crossover": (916.5, 916.5, 916.3, 916.5),
    "mutation": (919.0, 914.5, 917.0, 915.3),
}
FT_RANKS = {"gen": 3, "pop": 1, "crossover": 4, "mutation": 2}
EC_TABLE = {
    "gen": (1213, 1237, 1243, 1256),
    "pop": (1240, 1240, 1221, 1248),
    "crossover": (1213, 1264, 1245, 1228),
    "mutation": (1304, 1240, 1177, 1228),
}
EC_RANKS = {"gen": 3, "pop": 4, "crossover": 2, "mutation": 1}

# Published trade-off front of the 15x5 reference study.
REFERENCE_FRONT = [
    (909, 1348.7), (910, 1309.8), (913, 1290.4),
    (915, 1290.4), (916, 1207.8), (932, 1145.8),
]

# Benchmark summary rows: problem, ft1, ec1, ft2, ec2, pct_ft, pct_ec.
SUMMARY_ROWS = [
    ("Ta20x5", 14502, 13890, 14650, 12433, 1.02, 10.49),
    ("Ta20x10", 23757, 86507, 24212, 72129, 1.92, 16.62),
    ("Ta20x20", 34988, 293664, 35839, 278130, 2.43, 5.29),
    ("Ta50x5", 76690, 26364, 78417, 20153, 2.25, 23.56),
    ("Ta50x10", 100650, 96926, 104030, 71084, 3.36, 26.66),
    ("Ta50x20", 138280, 346350, 141150, 313390, 2.08, 9.52),
    ("Ta100x5", 297390, 24759, 299880, 23514, 0.84, 5.03),
    ("Ta100x10", 355213, 141423, 361950, 111160, 1.90, 21.40),
    ("Ta100x20", 448923, 573762, 458221, 504452, 2.07, 12.08),
]

# Per-dataset percentage pairs of the three benchmark tables, with the
# per-size averages they aggregate to.
GROUP_PCTS = {
    "Ta20x5": ([(10.47, 20.99), (9.55, 18.59), (1.63, 2.87), (3.39, 11.13),
                (0.62, 19.93), (3.01, 8.63), (7.13, 13.19), (9.56, 29.01),
                (4.98, 14.20), (1.02, 10.49)], (5.14, 14.90)),
    "Ta20x10": ([(1.86, 5.08), (4.98, 13.47), (3.98, 14.73), (2.08, 17.90),
                 (0.16, 6.71), (2.45, 6.82), (1.51, 7.49), (5.56, 12.50),
                 (2.83, 9.10), (1.92, 16.62)], (2.73, 11.04)),
    "Ta20x20": ([(6.15, 13.48), (1.91, 7.35), (3.60, 5.47), (4.60, 8.25),
                 (2.74, 10.04), (3.34, 9.91), (3.06, 9.60), (3.39, 4.35),
                 (2.66, 9.06), (2.43, 5.29)], (3.39, 8.28)),
    "Ta50x5": ([(6.83, 12.85), (3.17, 16.40), (6.40, 25.28), (4.94, 15.29),
                (3.84, 40.28), (5.15, 20.74), (7.88, 16.72), (3.72, 7.96),
                (3.54, 6.27), (2.25, 23.56)], (4.77, 18.54)),
    "Ta50x10": ([(3.78, 15.12), (4.95, 15.00), (2.86, 17.80), (3.37, 24.95),
                 (1.58, 22.35), (4.91, 14.61), (4.03, 9.16), (3.93, 18.18),
                 (1.76, 9.01), (3.36, 26.66)], (3.45, 17.28)),
    "Ta50x20": ([(5.32, 17.86), (2.59, 4.38), (0.43, 2.07), (2.55, 8.10),
                 (1.37, 3.22), (1.66, 10.22), (3.41, 10.49), (3.25, 10.76),
                 (0.07, 6.61), (2.08, 9.52)], (2.27, 8.32)),
    "Ta100x5": ([(9.16, 24.62), (1.43, 14.57), (11.66, 37.29), (6.26, 31.67),
                 (0.77, 43.73), (6.59, 29.76), (7.16, 27.78), (3.00, 37.39),
                 (1.84, 19.61), (0.84, 5.03)], (4.87, 27.14)),
    "Ta100x10": ([(1.93, 15.88), (5.51, 26.21), (0.40, 13.38), (3.51, 14.90),
                  (1.08, 7.07), (3.68, 13.27), (0.44, 7.48), (0.62, 6.76),
                  (4.70, 6.67), (1.90, 21.40)], (2.38, 13.30)),
    "Ta100x20": ([(3.27, 7.19), (2.51, 5.59), (1.44, 7.14), (3.06, 12.26),
                  (0.49, 2.92), (0.35, 2.84), (1.14, 15.17), (3.56, 19.77),
                  (2.23, 17.40), (2.07, 12.08)], (2.01, 10.24)),
}
OVERALL_AVERAGES = {
    ("Ta20x5", "Ta20x10", "Ta20x20"): (3.75, 11.41),
    ("Ta50x5", "Ta50x10", "Ta50x20"): (3.50, 14.71),
    ("Ta100x5", "Ta100x10", "Ta100x20"): (3.09, 16.89),
}
