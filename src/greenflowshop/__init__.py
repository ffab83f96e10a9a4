"""Bi-objective permutation flowshop scheduling: total flowtime versus
standby energy, with an elitist genetic search, a variable neighbourhood
descent, an orthogonal-array tuning harness and a benchmark driver."""

from .instance import (
    Instance,
    default_powers,
    generate_instance,
    load_table3,
    parse_taillard,
    taillard_instance,
)
from .localsearch import vnd_explore
from .nsga2 import RunConfig, evolve
from .objectives import DEFAULT_KAPPA, Objectives, evaluate, simulate_oracle
from .pareto import Individual, crowding_distance, dominates, fast_nondominated_sort

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_KAPPA",
    "Individual",
    "Instance",
    "Objectives",
    "RunConfig",
    "crowding_distance",
    "default_powers",
    "dominates",
    "evaluate",
    "evolve",
    "fast_nondominated_sort",
    "generate_instance",
    "load_table3",
    "parse_taillard",
    "simulate_oracle",
    "taillard_instance",
    "vnd_explore",
]
