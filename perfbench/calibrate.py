"""Machine-speed calibration for wall-time metrics.

On a shared machine, where other tenants use the same cores, the speed a
single-threaded Python process gets drifts by up to 2x within minutes and
by tens of percent within seconds (measured on a 2-core x86-64 VM: one fixed
0.45 s solve took 0.43-0.80 s over 150 s, with CPU time equal to wall time,
so the process was never descheduled - it ran slower).  Raw wall times from
runs minutes apart spread far wider than any bound a regression gate can
use (42% interquartile range over five 30 s runs of `ga-20x5`).

A fixed kernel of the same kinds of work the solver does (integer
recurrences over lists, tuple and set building, small numpy comparisons,
keyed sorts) measures the machine's speed.  `SpeedSampler` runs it a few
times just before and just after a timed call, and from a SIGALRM handler
every `INTERVAL_S` seconds during the call, so the samples cover the call's
own time span.  The call's wall time, less the handler's time, is rescaled
to the reference speed:

    scaled = (wall - sampling) * REFERENCE_KERNEL_S * mean(1 / kernel time)

which is the work the call did, in seconds at the reference speed.  The
kernel shares no code with the program and runs with the garbage collector
off, and no in-call sample is taken while the program runs a second thread
or a child process, whose work would compete with the kernel's.  A program
that is concurrent for the whole call is scaled by the bracketing samples
alone, which follow the machine's drift during the call less closely:
noisier, but not biased toward a gain.  Each sample is a warm run (see
`kernel`), so the cache state the interrupted code left behind does not
reach it either.
"""

from __future__ import annotations

import gc
import os
import signal
import statistics
from time import perf_counter

import numpy as np

# About the warm kernel's median time on the 2-core x86-64 VM (CPython
# 3.11.7, numpy 2.4.6) the bounds were set on, when it was quiet.  Only a
# scale: it makes scaled times read as seconds at that machine's quiet speed.
REFERENCE_KERNEL_S = 0.0007
INTERVAL_S = 0.1  # between in-call kernel runs
BRACKET = 5  # kernel runs before and after each timed block
_PAGE_KIB = os.sysconf("SC_PAGE_SIZE") // 1024

_N, _M = 30, 10
_TIMES = [[(i * 7 + j * 13) % 97 + 1 for j in range(_M)] for i in range(_N)]
_RNG = np.random.default_rng(0)


def kernel() -> float:
    """Run the calibration kernel twice; return the second run's wall time.

    A run straight after other code finds caches and branch predictors cold
    and takes 20-35% longer, by an amount that depends on what that code
    was: measured after a tight loop, sorts, a 64 MB numpy sum, random dict
    lookups and a sleep, the first run's median spread 1.73-2.00 ms while
    the second's spread 1.42-1.54 ms.  The second run measures the machine,
    not the program it interrupted, and followed a solve's speed as well as
    the first (scaled spread of a 1.4 s solve, in two sets of 31 and 34
    calls: 6.6% and 6.4% with second runs, 7.0% and 5.7% with first runs,
    11% and 8.4% raw).  The garbage collector is off meanwhile, so the
    program's heap cannot slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _kernel()
        return _kernel()
    finally:
        if enabled:
            gc.enable()


def _kernel() -> float:
    start = perf_counter()
    for _ in range(16):
        perm = tuple(int(x) for x in _RNG.permutation(_N))
        if set(perm) != set(range(_N)):
            raise AssertionError("not a permutation")
        prev = [0] * _M
        for job in perm:
            row = _TIMES[job]
            c = prev[0] + row[0]
            prev[0] = c
            for j in range(1, _M):
                p = prev[j]
                if p > c:
                    c = p
                c += row[j]
                prev[j] = c
        a = np.fromiter(perm, dtype=np.float64, count=_N)
        better = (a[:, None] <= a[None, :]) & (a[:, None] < a[None, :])
        better.sum(axis=0)
        sorted(perm, key=lambda x: -x)
    return perf_counter() - start


def speed_factor(samples) -> float:
    """REFERENCE_KERNEL_S times the mean inverse kernel time: multiplies a
    duration measured at the sampled speed into one at the reference speed."""
    return REFERENCE_KERNEL_S * statistics.fmean(1.0 / s for s in samples)


class SpeedSampler:
    """Measure the machine's speed around and during a timed block, and the
    peak memory of this process and its descendants during it.

    `BRACKET` kernel runs before the block and `BRACKET` after it, while the
    program is not running, always count.  A SIGALRM handler adds one more
    every `INTERVAL_S` wall seconds, but only while this process has one
    thread and no live child processes: a kernel run beside the program's
    own concurrent work would be slowed by it and make the program look
    faster than it is.  The handler also adds up the resident sets of this
    process and its descendants.  Only for the main thread of a process that
    uses no other SIGALRM timer.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.busy_s = 0.0  # time spent inside the handler
        self.peak_rss_kib = 0

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        children = descendants(os.getpid())
        self.peak_rss_kib = max(self.peak_rss_kib,
                                sum(map(rss_kib, [os.getpid(), *children])))
        if not children and len(os.listdir("/proc/self/task")) == 1:
            self.samples.append(kernel())
        self.busy_s += perf_counter() - start

    def __enter__(self) -> "SpeedSampler":
        self.samples.extend(kernel() for _ in range(BRACKET))
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.extend(kernel() for _ in range(BRACKET))

    def factor(self) -> float:
        return speed_factor(self.samples)

    def scale(self, wall: float) -> float:
        """`wall`, measured inside the block (so including the handler's
        time), as seconds at the reference speed."""
        return (wall - self.busy_s) * self.factor()


def descendants(pid: int) -> list[int]:
    """Live descendants of process `pid` (Linux /proc)."""
    found, todo = [], [pid]
    while todo:
        parent = todo.pop()
        try:
            tasks = os.listdir(f"/proc/{parent}/task")
        except OSError:  # ended meanwhile
            continue
        for task in tasks:
            try:
                with open(f"/proc/{parent}/task/{task}/children") as f:
                    kids = [int(k) for k in f.read().split()]
            except OSError:
                continue
            found += kids
            todo += kids
    return found


def rss_kib(pid: int) -> int:
    """Current resident set of process `pid` in KiB, 0 if it has ended."""
    try:
        with open(f"/proc/{pid}/statm") as f:
            return int(f.read().split()[1]) * _PAGE_KIB
    except (OSError, IndexError, ValueError):
        return 0
