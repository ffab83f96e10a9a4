"""Four-factor tuning harness on a 16-row orthogonal array.

`L16` crosses generation count, population size, crossover probability
and mutation probability at their four `LEVELS`; every factor-level pair
of any two factors appears exactly once over the 16 rows.  One campaign,
`run_design(instance, config)`, solves each row once on the base
`RunConfig` (its seed, descent switch and `kappa`) through
`harness.solve_runs` and yields both responses, the best flowtime and the
best energy of the row's front.
Analytics are the response table of level means with per-factor delta and
rank; `responses_csv` and `response_table_csv` write the two file formats.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

from .harness import extreme_points, solve_runs
from .instance import Instance
from .nsga2 import RunConfig
from .seeding import STREAM_TUNING

__all__ = [
    "FACTORS",
    "L16",
    "LEVELS",
    "DesignRow",
    "ResponseTable",
    "pick_best_params",
    "response_table",
    "response_table_csv",
    "responses_csv",
    "run_design",
]


class DesignRow(NamedTuple):
    gen: int
    pop: int
    crossover: float
    mutation: float


FACTORS = DesignRow._fields

# The four levels of each factor, in FACTORS order.
LEVELS = dict(zip(FACTORS, (
    (10, 25, 50, 100),
    (25, 50, 100, 200),
    (0.5, 0.6, 0.7, 0.8),
    (0.05, 0.06, 0.07, 0.08),
)))

L16 = (
    DesignRow(10, 25, 0.5, 0.05),
    DesignRow(10, 50, 0.6, 0.06),
    DesignRow(10, 100, 0.7, 0.07),
    DesignRow(10, 200, 0.8, 0.08),
    DesignRow(25, 25, 0.6, 0.07),
    DesignRow(25, 50, 0.5, 0.08),
    DesignRow(25, 100, 0.8, 0.05),
    DesignRow(25, 200, 0.7, 0.06),
    DesignRow(50, 25, 0.7, 0.08),
    DesignRow(50, 50, 0.8, 0.07),
    DesignRow(50, 100, 0.5, 0.06),
    DesignRow(50, 200, 0.6, 0.05),
    DesignRow(100, 25, 0.8, 0.06),
    DesignRow(100, 50, 0.7, 0.05),
    DesignRow(100, 100, 0.6, 0.08),
    DesignRow(100, 200, 0.5, 0.07),
)


@dataclass(frozen=True)
class ResponseTable:
    means: dict[str, tuple[float, ...]]  # factor -> mean response per level
    delta: dict[str, float]  # max level mean - min level mean
    rank: dict[str, int]  # 1 = largest delta; ties by factor order


def run_design(instance: Instance, config: RunConfig) -> dict[str, list[float]]:
    """One solver run per L16 row on `config` with the row's four factors and
    a seed derived from `config.seed`; `flowtime` lists each row front's best
    flowtime and `energy` its best energy.  A rerun reproduces every response."""
    runs = [(instance, replace(config, generations=row.gen, pop_size=row.pop,
                               p_crossover=row.crossover, p_mutation=row.mutation),
             (STREAM_TUNING, k)) for k, row in enumerate(L16)]
    ends = [extreme_points(front) for front in solve_runs(runs)]
    return {"flowtime": [float(ft_best.obj.flowtime) for ft_best, _ in ends],
            "energy": [ec_best.obj.energy for _, ec_best in ends]}


def response_table(responses) -> ResponseTable:
    """Level means per factor with delta and descending-delta rank."""
    responses = list(responses)
    if len(responses) != len(L16):
        raise ValueError(f"expected {len(L16)} responses, got {len(responses)}")
    means: dict[str, tuple[float, ...]] = {}
    delta: dict[str, float] = {}
    for f, factor in enumerate(FACTORS):
        level_means = []
        for level in LEVELS[factor]:
            hits = [r for row, r in zip(L16, responses) if row[f] == level]
            level_means.append(sum(hits) / len(hits))
        means[factor] = tuple(level_means)
        delta[factor] = max(level_means) - min(level_means)
    by_delta = sorted(FACTORS, key=lambda f: -delta[f])
    rank = {factor: by_delta.index(factor) + 1 for factor in FACTORS}
    return ResponseTable(means, delta, rank)


def pick_best_params(
    ft_table: ResponseTable, ec_table: ResponseTable
) -> dict[str, float]:
    """Merge the two studies into one parameter set.

    Per factor the kept level is the one with the largest level mean, the
    convention under which the canonical response tables yield the library
    defaults.  The flowtime study decides generations, population size and
    mutation; the energy study decides crossover, which also settles the
    flowtime study's three-way crossover tie.
    """

    def best(table: ResponseTable, factor: str) -> float:
        means = table.means[factor]
        k = max(range(len(means)), key=lambda i: means[i])
        return LEVELS[factor][k]

    return {
        "generations": int(best(ft_table, "gen")),
        "pop_size": int(best(ft_table, "pop")),
        "p_mutation": best(ft_table, "mutation"),
        "p_crossover": best(ec_table, "crossover"),
    }


def responses_csv(responses) -> str:
    """One row per L16 row: its four factors and its response."""
    lines = [",".join(FACTORS) + ",response"]
    for row, value in zip(L16, responses, strict=True):
        lines.append(",".join(map(str, row)) + f",{value!r}")
    return "\n".join(lines) + "\n"


def response_table_csv(table: ResponseTable) -> str:
    """Level/Delta/Rank rows with one column per factor."""
    lines = ["level," + ",".join(FACTORS)]
    for lvl in range(4):
        cells = ",".join(repr(table.means[f][lvl]) for f in FACTORS)
        lines.append(f"{lvl + 1},{cells}")
    lines.append("delta," + ",".join(repr(table.delta[f]) for f in FACTORS))
    lines.append("rank," + ",".join(str(table.rank[f]) for f in FACTORS))
    return "\n".join(lines) + "\n"
