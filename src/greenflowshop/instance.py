"""Problem data model and instance I/O.

An instance is a job-major processing-time matrix (integer minutes) plus one
fixed standby power rating per machine (Whr as printed on machine tables).
Readers cover the classic Taillard flowshop text format (machine-major,
read-only) and a small native format that also carries the power column.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

from .seeding import Draws

__all__ = [
    "Instance",
    "InstanceFormatError",
    "TABLE9_POWERS",
    "TAILLARD_TIME_SEEDS",
    "check_permutation",
    "default_powers",
    "generate_instance",
    "generate_taillard_times",
    "is_taillard",
    "load_table3",
    "parse_instance",
    "parse_taillard",
    "format_instance",
    "taillard_instance",
]

# Standby power ratings (Whr) of the 20 reference machines; machine j of a
# smaller shop uses the j-th entry.  The CLI exposes this list as `table9`.
TABLE9_POWERS: tuple[int, ...] = (
    769, 802, 1290, 967, 1166, 1003, 1211, 1321, 989, 1411,
    782, 980, 1005, 1333, 867, 1209, 781, 809, 1113, 977,
)

# 15 jobs x 5 machines reference shop (processing minutes, job-major).
_TABLE3_TIMES: tuple[tuple[int, ...], ...] = (
    (3, 4, 6, 10, 3),
    (4, 5, 2, 8, 8),
    (7, 10, 8, 4, 7),
    (9, 10, 2, 2, 6),
    (2, 2, 5, 9, 9),
    (2, 1, 1, 8, 3),
    (5, 7, 8, 2, 5),
    (2, 9, 2, 9, 8),
    (9, 7, 3, 8, 1),
    (8, 5, 7, 2, 2),
    (9, 6, 9, 4, 7),
    (7, 9, 3, 2, 4),
    (8, 8, 2, 2, 9),
    (1, 2, 6, 5, 9),
    (8, 2, 10, 1, 4),
)

# Time seeds of the published Taillard (1993) flowshop benchmark generator,
# keyed by (jobs, machines).  Instance k of a set is rebuilt from seed k.
TAILLARD_TIME_SEEDS: dict[tuple[int, int], tuple[int, ...]] = {
    (20, 5): (
        873654221, 379008056, 1866992158, 216771124, 495070989,
        402959317, 1369363414, 2021925980, 573109518, 88325120,
    ),
}


class InstanceFormatError(ValueError):
    """Malformed instance text; `line` is 1-based when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Instance:
    """Immutable flowshop instance; safe to share across solver runs.

    `machine_load` (total processing minutes per machine) and
    `kernel_times` (the rows the pricing kernel adds: `proc_time` as floats
    when `n_jobs * sum(machine_load)` and every `int` power are below 2^53,
    where doubles price exactly, else `proc_time`) are derived from
    `proc_time` and take no part in equality, hashing or repr.
    """

    n_jobs: int
    n_machines: int
    proc_time: tuple[tuple[int, ...], ...]  # job-major, minutes
    fixed_power: tuple[float, ...]  # one rating per machine
    machine_load: tuple[int, ...] = field(init=False, repr=False, compare=False)
    kernel_times: tuple[tuple[int | float, ...], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        if not all(type(n) is int and n >= 1 for n in (self.n_jobs, self.n_machines)):
            raise ValueError("n_jobs and n_machines must be ints of at least 1")
        # tuples only, so that every instance hashes
        if not isinstance(self.proc_time, tuple) or len(self.proc_time) != self.n_jobs:
            raise ValueError("proc_time must be a tuple of n_jobs rows")
        for row in self.proc_time:
            if not isinstance(row, tuple) or len(row) != self.n_machines:
                raise ValueError("proc_time rows must be tuples of n_machines times")
            if not all(type(t) is int for t in row):
                raise ValueError("processing times must be integer minutes")
            if any(t < 0 for t in row):
                raise ValueError("processing times must be non-negative")
        if not isinstance(self.fixed_power, tuple) or len(self.fixed_power) != self.n_machines:
            raise ValueError("fixed_power must be a tuple of n_machines powers")
        if not all(type(p) in (int, float) and 0 < p < math.inf for p in self.fixed_power):
            raise ValueError("fixed powers must be positive and finite ints or floats")
        load = tuple(map(sum, zip(*self.proc_time)))
        exact = self.n_jobs * sum(load) < 2**53 and all(
            type(p) is float or p < 2**53 for p in self.fixed_power)
        object.__setattr__(self, "machine_load", load)
        object.__setattr__(self, "kernel_times", tuple(
            tuple(map(float, row)) for row in self.proc_time) if exact else self.proc_time)

    @classmethod
    def from_matrix(cls, proc_time, fixed_power) -> "Instance":
        """Build from any nested sequence of whole numbers (numpy integers
        and integral floats included); any other time raises ValueError."""
        rows = tuple(tuple(_minutes(t) for t in row) for row in proc_time)
        powers = tuple(float(p) for p in fixed_power)
        return cls(len(rows), len(rows[0]) if rows else 0, rows, powers)


def _minutes(t) -> int:
    if not isinstance(t, bool):
        try:
            return operator.index(t)
        except TypeError:
            if isinstance(t, float) and t.is_integer():
                return int(t)
    raise ValueError(f"processing times must be integer minutes, got {t!r}")


@functools.lru_cache(maxsize=None, typed=True)
def _job_set(n_jobs: int) -> frozenset[int]:
    return frozenset(range(n_jobs))


def check_permutation(perm, n_jobs: int) -> None:
    """Raise ValueError unless `perm` is a bijection on 0..n_jobs-1: n_jobs items covering it."""
    if len(perm) != n_jobs:
        raise ValueError(f"permutation length {len(perm)} != {n_jobs} jobs")
    if not _job_set(n_jobs).issubset(perm):
        raise ValueError("permutation is not a bijection on the job set")


def default_powers(n_machines: int) -> tuple[int, ...]:
    """First `n_machines` entries of the built-in 20-machine power table."""
    if not 1 <= n_machines <= len(TABLE9_POWERS):
        raise ValueError(
            f"no built-in powers for {n_machines} machines; supply them explicitly"
        )
    return TABLE9_POWERS[:n_machines]


def load_table3() -> Instance:
    """The 15x5 reference instance with its five machine power ratings."""
    return Instance.from_matrix(_TABLE3_TIMES, default_powers(5))


def generate_instance(n_jobs: int, n_machines: int, seed: int) -> Instance:
    """Draw a random instance: times uniform on [1, 99] minutes, powers
    uniform on [700, 1500] Whr.  The seed fully determines the instance
    (PCG64 stream, times drawn before powers)."""
    if n_jobs < 1 or n_machines < 1:
        raise ValueError("need n_jobs >= 1 and n_machines >= 1")
    draws = Draws(seed)
    times = [[draws.integers(1, 100) for _ in range(n_machines)] for _ in range(n_jobs)]
    powers = [draws.integers(700, 1501) for _ in range(n_machines)]
    return Instance.from_matrix(times, powers)


# ---------------------------------------------------------------------------
# Taillard benchmark generator (Taillard, EJOR 1993)
# ---------------------------------------------------------------------------


def generate_taillard_times(
    n_jobs: int, n_machines: int, time_seed: int
) -> tuple[tuple[int, ...], ...]:
    """Rebuild a benchmark time matrix from its published time seed.

    Uses Taillard's linear congruential generator (a=16807, m=2^31-1;
    Python integers need no Schrage decomposition against overflow); values
    are drawn machine-major as in the original generator, then transposed
    to job-major.
    """
    if time_seed <= 0:
        raise ValueError("time seeds are positive")
    seed = time_seed
    machine_major = []
    for _ in range(n_machines):
        row = []
        for _ in range(n_jobs):
            seed = seed * 16807 % 2147483647
            row.append(1 + int(seed / 2147483647 * 99))
        machine_major.append(row)
    return tuple(zip(*machine_major))


def taillard_instance(
    n_jobs: int, n_machines: int, index: int, fixed_power=None
) -> Instance:
    """Benchmark instance `index` (1-based) of the (n_jobs, n_machines) set,
    with powers defaulting to the built-in table."""
    try:
        seeds = TAILLARD_TIME_SEEDS[(n_jobs, n_machines)]
    except KeyError:
        raise ValueError(
            f"no embedded time seeds for a {n_jobs}x{n_machines} set; "
            "use generate_taillard_times with an explicit seed"
        ) from None
    if not 1 <= index <= len(seeds):
        raise IndexError(f"instance index {index} outside 1..{len(seeds)}")
    times = generate_taillard_times(n_jobs, n_machines, seeds[index - 1])
    if fixed_power is None:
        fixed_power = default_powers(n_machines)
    return Instance.from_matrix(times, fixed_power)


# ---------------------------------------------------------------------------
# Taillard text format (read-only)
# ---------------------------------------------------------------------------


def _taillard_rows(text: str):
    """(line number, integers) for each data line of Taillard text.

    Blank lines and markers, lines with letters and no digits ("processing
    times :" and friends), are skipped; any other line whose tokens are not
    all integers, such as a data row with a stray letter, is malformed data.
    """
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens or (any(ch.isalpha() for ch in line)
                          and not any(ch.isdigit() for ch in line)):
            continue
        try:
            values = [int(tok) for tok in tokens]
        except ValueError:
            raise InstanceFormatError("non-integer value in data line", lineno) from None
        yield lineno, values


def parse_taillard(text: str) -> list[tuple[tuple[int, ...], ...]]:
    """The job-major time matrix of every block of a Taillard file, in file
    order, from one pass.

    Each block is a header line (jobs, machines, and optionally time seed,
    upper bound and lower bound, which are ignored) followed by a
    machine-major matrix of n_machines rows by n_jobs integers, rows free to
    wrap or share lines; marker lines are ignored.
    """
    rows = _taillard_rows(text)
    blocks = []
    for header_line, header in rows:
        if len(header) not in (2, 5) or header[0] < 1 or header[1] < 1:
            raise InstanceFormatError(
                "header must be 'jobs machines' or 'jobs machines seed ub lb'",
                header_line,
            )
        n, m = header[0], header[1]
        values: list[int] = []
        for lineno, row in rows:
            if any(v < 0 for v in row):
                raise InstanceFormatError("processing times must be non-negative", lineno)
            values.extend(row)
            if len(values) >= n * m:
                break
        if len(values) < n * m:
            raise InstanceFormatError(
                f"matrix truncated: expected {n * m} values, found {len(values)}",
                header_line,
            )
        if len(values) > n * m:
            raise InstanceFormatError(
                f"matrix overrun: expected {n * m} values", header_line
            )
        blocks.append(tuple(tuple(values[k::n]) for k in range(n)))
    if not blocks:
        raise InstanceFormatError("no instance blocks found")
    return blocks


def count_taillard_blocks(text: str) -> int:
    """Number of instance blocks in a Taillard file."""
    return len(parse_taillard(text))


# ---------------------------------------------------------------------------
# Native format: '# comments', 'n m', n job rows, one power row
# ---------------------------------------------------------------------------


def _data_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def is_taillard(text: str) -> bool:
    """Whether `text` reads as a Taillard file: its first data line (comments
    stripped) holds a letter or five integers.  Anything else, a
    marker-less two-number header included, reads as the native format."""
    line = next(_data_lines(text), (None, ""))[1]
    if any(ch.isalpha() for ch in line):
        return True
    try:
        return len([int(tok) for tok in line.split()]) == 5
    except ValueError:
        return False


def parse_instance(text: str) -> Instance:
    """Parse the native format: header 'n m', n rows of m integer minutes,
    then one row of m positive power ratings."""
    rows = list(_data_lines(text))
    if not rows:
        raise InstanceFormatError("empty instance file")
    lineno, header = rows[0]
    try:
        n, m = (int(tok) for tok in header.split())
    except ValueError:
        n = m = 0
    if n < 1 or m < 1:
        raise InstanceFormatError("header must be 'n_jobs n_machines', both at least 1", lineno)
    if len(rows) != n + 2:
        raise InstanceFormatError(
            f"expected {n} job rows plus one power row, found {len(rows) - 1} data lines"
        )
    times = []
    for lineno, line in rows[1 : n + 1]:
        try:
            row = [int(tok) for tok in line.split()]
        except ValueError:
            raise InstanceFormatError("processing times must be integers", lineno) from None
        if len(row) != m:
            raise InstanceFormatError(f"expected {m} times per job row", lineno)
        if min(row) < 0:
            raise InstanceFormatError("processing times must be non-negative", lineno)
        times.append(row)
    lineno, line = rows[n + 1]
    try:
        powers = [float(tok) for tok in line.split()]
    except ValueError:
        raise InstanceFormatError("power row must be numeric", lineno) from None
    if len(powers) != m:
        raise InstanceFormatError(f"expected {m} power values", lineno)
    if not all(0 < p < math.inf for p in powers):
        raise InstanceFormatError("fixed powers must be positive and finite", lineno)
    return Instance.from_matrix(times, powers)


def format_instance(instance: Instance) -> str:
    """Serialize to the native format (round-trips through parse_instance)."""
    lines = [f"{instance.n_jobs} {instance.n_machines}"]
    lines += [" ".join(str(t) for t in row) for row in instance.proc_time]
    lines.append(" ".join(_format_power(p) for p in instance.fixed_power))
    return "\n".join(lines) + "\n"


def _format_power(p: float) -> str:
    return str(int(p)) if float(p).is_integer() else repr(p)

