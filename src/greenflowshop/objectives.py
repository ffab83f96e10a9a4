"""Schedule evaluation: total flowtime and standby energy of a permutation
in one pass of a recurrence compiled once per machine count, with each
machine's free time in a local variable, plus an independent discrete-event
simulation, sharing no code with it, used to cross-check it.

All durations are integer minutes and summed exactly, as doubles where
`Instance.kernel_times` holds float rows: then every completion time and
flowtime partial sum is an integer below 2^53, and each energy term is
rounded once, as with integers.  Energy converts the accumulated
power-minutes to Whr once, via a single multiplicative constant (default
1/60, minutes to hours against the Whr-rated machine powers).

The recurrence keeps only the time each machine comes free.  From 0 to its
last completion a machine is either processing or on standby, so its
standby minutes are its final free time minus its total processing
minutes (`Instance.machine_load`).  `evaluate` checks and prices from
scratch.  The descent keeps that state after each position of its
incumbent and prices a neighbour, unchecked, from the state at its first
changed position (`localsearch.evaluate`).
"""

from __future__ import annotations

import functools
import heapq
from typing import NamedTuple

from .instance import Instance, check_permutation

__all__ = [
    "DEFAULT_KAPPA",
    "Objectives",
    "evaluate",
    "simulate_oracle",
]

# Minutes-to-hours conversion applied once to the power-minute total.
DEFAULT_KAPPA = 1.0 / 60.0


class Objectives(NamedTuple):
    flowtime: int
    energy: float


@functools.lru_cache(maxsize=None, typed=True)
def _kernel(m: int):
    """`advance(pt, power, load, perm, start, state, states=None)` for `m`
    machines: schedule `perm[start:]` from `state`, (each machine's free
    time, flowtime) once `perm[:start]` is scheduled, and return the
    flowtime, as an `int`, and the power-minutes, `power[j] * (free time -
    load[j])` added to 0.0 for j = 1..m-1 in order.  A job starts on
    machine 1 as soon as it is free and reaches each later machine when it
    leaves the one before, starting once both it and the machine are there;
    with `states`, the state after each job is appended to it.  `pt` is an
    `Instance.kernel_times`, whose float rows are exact; it comes first with
    `power` and `load`, so that the descent binds one shop's rows once
    (`localsearch._pricer`).  Source made from `m` alone: free times in
    `f{j}`, job times in `p{j}`."""
    if type(m) is not int or m < 1:
        raise ValueError(f"kernel machine count must be a positive int, got {m!r}")
    free, row = (", ".join(f"{v}{j}" for j in range(m)) + "," for v in "fp")
    step = "\n        f{1} = (f{0} if f{1} < f{0} else f{1}) + p{1}"
    energy = "".join(f" + power[{j}] * (f{j} - load[{j}])" for j in range(1, m))
    namespace = {}
    exec(f"""def advance(pt, power, load, perm, start, state, states=None):
    ({free}), flowtime = state
    for job in perm[start:]:
        {row} = pt[job]
        f0 = f0 + p0{"".join(step.format(j - 1, j) for j in range(1, m))}
        flowtime += f{m - 1}
        if states is not None:
            states.append((({free}), flowtime))
    return int(flowtime), 0.0{energy}""", namespace)
    return namespace["advance"]


def evaluate(instance: Instance, perm, kappa: float = DEFAULT_KAPPA) -> Objectives:
    """Total flowtime and standby energy of `perm`, checked, in one recurrence.

    Standby on machine j is its last completion minus its processing
    minutes; machine 1 never waits, so its power is never charged.  The
    power-minutes are summed over machines 2..m from 0.0 and scaled by
    `kappa` once.  `instance` must be an `Instance` (anything else raises
    TypeError) and `perm` is checked against it; only the descent prices
    from a mid-schedule state, in `localsearch.evaluate`, unchecked and
    safe by construction.
    """
    if type(instance) is not Instance:
        raise TypeError(f"evaluate prices on an Instance, got {type(instance).__name__}")
    check_permutation(perm, instance.n_jobs)
    flowtime, power_minutes = _kernel(instance.n_machines)(
        instance.kernel_times, instance.fixed_power, instance.machine_load,
        perm, 0, ((0,) * instance.n_machines, 0))
    return Objectives(flowtime, power_minutes * kappa)


def simulate_oracle(
    instance: Instance, perm, kappa: float = DEFAULT_KAPPA
) -> Objectives:
    """Event-driven re-computation of `evaluate`, sharing no code with it.

    Operations are released through a completion-event heap: operation
    (i, j) becomes ready once the machine finished sequence position i-1 and
    the job cleared machine j-1, and it starts the instant its last
    prerequisite completes.  Each machine logs the idle gap in front of
    every operation it runs, including the wait before its first one.
    """
    check_permutation(perm, instance.n_jobs)
    n, m = instance.n_jobs, instance.n_machines
    pt = instance.proc_time
    # remaining prerequisite count per operation (position, machine)
    need = [[2] * m for _ in range(n)]
    for j in range(m):
        need[0][j] -= 1
    for i in range(n):
        need[i][0] -= 1
    machine_prev_end = [0] * m
    standby_minutes = [0] * m
    flowtime = 0
    events: list[tuple[int, int, int]] = []

    def start(i: int, j: int, now: int) -> None:
        standby_minutes[j] += now - machine_prev_end[j]
        end = now + pt[perm[i]][j]
        machine_prev_end[j] = end
        heapq.heappush(events, (end, i, j))

    start(0, 0, 0)
    while events:
        now, i, j = heapq.heappop(events)
        if j == m - 1:
            flowtime += now
        for ni, nj in ((i + 1, j), (i, j + 1)):
            if ni < n and nj < m:
                need[ni][nj] -= 1
                if need[ni][nj] == 0:
                    start(ni, nj, now)
    power_minutes = 0.0
    for j in range(1, m):
        power_minutes += instance.fixed_power[j] * standby_minutes[j]
    return Objectives(flowtime=flowtime, energy=power_minutes * kappa)
