"""Schedule evaluation: total flowtime and standby energy of a permutation
in one pass, plus an independent discrete-event simulation used to
cross-check it.

All durations are integer minutes and summed exactly; energy converts the
accumulated power-minutes to Whr once, via a single multiplicative constant
(default 1/60, minutes to hours against the Whr-rated machine powers).
"""

from __future__ import annotations

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


def evaluate(instance: Instance, perm, kappa: float = DEFAULT_KAPPA) -> Objectives:
    """Total flowtime and standby energy of `perm`, in one recurrence.

    Each machine keeps the time it comes free (every machine is free at 0)
    and its standby minutes.  A job reaches machine 1 at 0 and each later
    machine when it leaves the one before; a machine that is already free
    logs the gap as standby, otherwise the job waits for it.  Machine 1
    never waits, so its power is never charged.
    """
    check_permutation(perm, instance.n_jobs)
    m = instance.n_machines
    free = [0] * m
    idle = [0] * m
    flowtime = 0
    for job in perm:
        c = 0  # arrival time at machine j, then completion there
        for j, t in enumerate(instance.proc_time[job]):
            f = free[j]
            if c > f:
                idle[j] += c - f
            else:
                c = f
            c += t
            free[j] = c
        flowtime += c
    power_minutes = 0.0
    for j in range(1, m):
        power_minutes += instance.fixed_power[j] * idle[j]
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
