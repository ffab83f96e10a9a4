"""Four-factor tuning harness on a 16-row orthogonal array.

The design crosses generation count, population size, crossover probability
and mutation probability at four levels each; every factor-level pair of
any two factors appears exactly once over the 16 rows.  One campaign
solves each row once and yields both responses, the best flowtime and the
best energy of the row's front.  Analytics are the response table of level
means with per-factor delta and rank, plus the smaller-is-better
signal-to-noise ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple

from .instance import Instance
from .nsga2 import RunConfig, evolve
from .objectives import DEFAULT_KAPPA
from .seeding import STREAM_TUNING, child_seed

__all__ = [
    "FACTORS",
    "DesignRow",
    "ResponseTable",
    "TaguchiDesign",
    "build_l16",
    "pick_best_params",
    "response_table",
    "response_table_csv",
    "run_design",
    "sn_ratio",
]

FACTORS = ("gen", "pop", "crossover", "mutation")

_LEVELS = {
    "gen": (10, 25, 50, 100),
    "pop": (25, 50, 100, 200),
    "crossover": (0.5, 0.6, 0.7, 0.8),
    "mutation": (0.05, 0.06, 0.07, 0.08),
}


class DesignRow(NamedTuple):
    gen: int
    pop: int
    crossover: float
    mutation: float


_L16_ROWS = (
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
class TaguchiDesign:
    factors: tuple[str, ...]
    levels: dict[str, tuple[float, ...]]
    rows: tuple[DesignRow, ...]


@dataclass(frozen=True)
class ResponseTable:
    factors: tuple[str, ...]
    levels: dict[str, tuple[float, ...]]
    means: dict[str, tuple[float, ...]]  # factor -> mean response per level
    delta: dict[str, float]  # max level mean - min level mean
    rank: dict[str, int]  # 1 = largest delta; ties by factor order


def build_l16() -> TaguchiDesign:
    """The 16-row orthogonal design over the four solver parameters."""
    return TaguchiDesign(FACTORS, dict(_LEVELS), _L16_ROWS)


def run_design(
    design: TaguchiDesign,
    instance: Instance,
    seed: int,
    base_config: RunConfig,
    kappa: float = DEFAULT_KAPPA,
) -> dict[str, list[float]]:
    """One solver run per design row, read for both responses: `flowtime`
    lists each row front's best flowtime and `energy` its best energy.
    A row runs `base_config` with the row's four factors and a seed derived
    from `seed`, so a rerun with the same seed reproduces every response."""
    out: dict[str, list[float]] = {"flowtime": [], "energy": []}
    for k, row in enumerate(design.rows):
        config = replace(
            base_config,
            pop_size=row.pop,
            generations=row.gen,
            p_crossover=row.crossover,
            p_mutation=row.mutation,
            seed=child_seed(seed, STREAM_TUNING, k),
        )
        front = evolve(instance, config, kappa)
        out["flowtime"].append(float(min(ind.obj.flowtime for ind in front)))
        out["energy"].append(min(ind.obj.energy for ind in front))
    return out


def response_table(design: TaguchiDesign, responses) -> ResponseTable:
    """Level means per factor with delta and descending-delta rank."""
    responses = list(responses)
    if len(responses) != len(design.rows):
        raise ValueError(
            f"expected {len(design.rows)} responses, got {len(responses)}"
        )
    means: dict[str, tuple[float, ...]] = {}
    delta: dict[str, float] = {}
    for f, factor in enumerate(design.factors):
        level_means = []
        for level in design.levels[factor]:
            hits = [r for row, r in zip(design.rows, responses) if row[f] == level]
            level_means.append(sum(hits) / len(hits))
        means[factor] = tuple(level_means)
        delta[factor] = max(level_means) - min(level_means)
    by_delta = sorted(design.factors, key=lambda f: -delta[f])
    rank = {factor: by_delta.index(factor) + 1 for factor in design.factors}
    return ResponseTable(design.factors, dict(design.levels), means, delta, rank)


def sn_ratio(responses: Iterable[float]) -> float:
    """Smaller-is-better signal-to-noise ratio of one cell's responses."""
    values = list(responses)
    if not values:
        raise ValueError("need at least one response")
    if any(v <= 0 for v in values):
        raise ValueError("responses must be positive")
    return -10.0 * math.log10(sum(v * v for v in values) / len(values))


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
        return table.levels[factor][k]

    return {
        "generations": int(best(ft_table, "gen")),
        "pop_size": int(best(ft_table, "pop")),
        "p_mutation": best(ft_table, "mutation"),
        "p_crossover": best(ec_table, "crossover"),
    }


def response_table_csv(table: ResponseTable) -> str:
    """Level/Delta/Rank rows with one column per factor."""
    lines = ["level," + ",".join(table.factors)]
    for lvl in range(4):
        cells = ",".join(repr(table.means[f][lvl]) for f in table.factors)
        lines.append(f"{lvl + 1},{cells}")
    lines.append("delta," + ",".join(repr(table.delta[f]) for f in table.factors))
    lines.append("rank," + ",".join(str(table.rank[f]) for f in table.factors))
    return "\n".join(lines) + "\n"
