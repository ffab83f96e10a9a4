"""Benchmark harness: repeated solver runs, merged fronts, extreme-point
extraction, percent-difference records and CSV/JSON emission.

A benchmark record carries both ends of an instance's merged front: the
flowtime-minimal point (FT1, EC1) and the energy-minimal point (FT2, EC2),
plus the percentage the flowtime grows and the energy drops when trading
one end for the other (both 0 when the ends coincide).  Reports round
percentages to two decimals; front files print sequences as dash-separated
1-based job ids.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from contextlib import nullcontext
from dataclasses import asdict, dataclass, fields, replace
from typing import get_type_hints

from .instance import Instance
from .nsga2 import RunConfig, evolve
from .pareto import Individual, fast_nondominated_sort, unique_sorted
from .seeding import STREAM_BENCH, child_seed

__all__ = [
    "BenchRecord",
    "BenchTask",
    "aggregate_records",
    "average_pcts",
    "extreme_points",
    "merge_fronts",
    "percent_diffs",
    "read_bench_csv",
    "run_benchmark",
    "sequence_str",
    "write_bench_csv",
    "write_bench_json",
    "write_front_csv",
    "write_front_json",
    "write_aggregates_csv",
]


@dataclass(frozen=True)
class BenchTask:
    problem: str  # e.g. "Ta20x5"
    dataset: int  # 1-based index within the problem size
    instance: Instance


@dataclass(frozen=True)
class BenchRecord:
    problem: str
    dataset: int
    ft1: int
    ec1: float
    ft2: int
    ec2: float
    pct_ft: float
    pct_ec: float


def extreme_points(front: list[Individual]) -> tuple[Individual, Individual]:
    """Both ends of a front: lexicographic minimum by (flowtime, energy) and
    by (energy, flowtime)."""
    if not front:
        raise ValueError("empty front has no extreme points")
    ft_best = min(front, key=lambda ind: (ind.obj.flowtime, ind.obj.energy))
    ec_best = min(front, key=lambda ind: (ind.obj.energy, ind.obj.flowtime))
    return ft_best, ec_best


def percent_diffs(ft1: float, ec1: float, ft2: float, ec2: float) -> tuple[float, float]:
    """Percent flowtime growth and energy drop between the two extremes;
    (0.0, 0.0) when both are the same point, as on a front whose
    flowtime-minimal point already has zero energy."""
    if (ft1, ec1) == (ft2, ec2):
        return 0.0, 0.0
    if ft1 <= 0 or ec1 <= 0:
        raise ValueError("reference flowtime and energy must be positive")
    return 100.0 * (ft2 - ft1) / ft1, 100.0 * (ec1 - ec2) / ec1


def merge_fronts(fronts) -> list[Individual]:
    """Union several fronts, keep the non-dominated layer, drop duplicate
    objective pairs, and order by (flowtime, energy)."""
    pool = [ind.copy() for front in fronts for ind in front]
    if not pool:
        return []
    return unique_sorted(fast_nondominated_sort(pool)[0])


def make_record(problem: str, dataset: int, front: list[Individual]) -> BenchRecord:
    ft_best, ec_best = extreme_points(front)
    pct_ft, pct_ec = percent_diffs(
        ft_best.obj.flowtime, ft_best.obj.energy,
        ec_best.obj.flowtime, ec_best.obj.energy,
    )
    return BenchRecord(
        problem=problem,
        dataset=dataset,
        ft1=ft_best.obj.flowtime,
        ec1=ft_best.obj.energy,
        ft2=ec_best.obj.flowtime,
        ec2=ec_best.obj.energy,
        pct_ft=pct_ft,
        pct_ec=pct_ec,
    )


def run_benchmark(
    tasks: list[BenchTask],
    config: RunConfig,
    repeats: int,
    on_progress=None,
) -> list[BenchRecord]:
    """Solve every task `repeats` times, merge each task's fronts into one
    non-dominated set, and record its extreme points.

    Run seeds derive from the config seed and the task/repeat indices, so a
    rerun with the same root seed reproduces the report bit for bit.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    records = []
    for t, task in enumerate(tasks):
        fronts = []
        for r in range(repeats):
            run_seed = child_seed(config.seed, STREAM_BENCH, t, r)
            fronts.append(evolve(task.instance, replace(config, seed=run_seed)))
            if on_progress is not None:
                on_progress(task, r + 1, repeats)
        records.append(make_record(task.problem, task.dataset, merge_fronts(fronts)))
    return records


def average_pcts(pairs) -> tuple[float, float]:
    """Mean (pct_ft, pct_ec) over an iterable of percentage pairs."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("nothing to average")
    return (
        sum(p[0] for p in pairs) / len(pairs),
        sum(p[1] for p in pairs) / len(pairs),
    )


def aggregate_records(
    records: list[BenchRecord],
) -> list[tuple[str, float, float]]:
    """Per-problem average percentage rows plus one overall row, in first-seen
    problem order; overall averages the per-problem averages."""
    grouped: dict[str, list[tuple[float, float]]] = {}
    for rec in records:
        grouped.setdefault(rec.problem, []).append((rec.pct_ft, rec.pct_ec))
    out = [(label, *average_pcts(pairs)) for label, pairs in grouped.items()]
    if out:
        out.append(("overall", *average_pcts([(ft, ec) for _, ft, ec in out])))
    return out


# ---------------------------------------------------------------------------
# File emission; CSV is the canonical format, JSON mirrors it one-to-one.
# ---------------------------------------------------------------------------


def sequence_str(perm) -> str:
    """Dash-separated 1-based job ids, the sequence column of front files."""
    return "-".join(str(job + 1) for job in perm)


def _write_csv(path, header, rows) -> None:
    """Header and rows to the file `path` (CRLF) or, if it is empty, stdout (LF)."""
    with open(path, "w", encoding="utf-8", newline="") if path else nullcontext(sys.stdout) as fh:
        writer = csv.writer(fh, lineterminator="\r\n" if path else "\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def write_front_csv(path, front: list[Individual]) -> None:
    """`sequence,flowtime,energy_whr` rows; energy uses the shortest decimal
    that parses back to the same float, so rows re-evaluate exactly."""
    _write_csv(path, ["sequence", "flowtime", "energy_whr"], (
        [sequence_str(ind.perm), ind.obj.flowtime, repr(ind.obj.energy)] for ind in front
    ))


def write_front_json(path, front: list[Individual]) -> None:
    _write_json(path, [
        {
            "sequence": [job + 1 for job in ind.perm],
            "flowtime": ind.obj.flowtime,
            "energy_whr": ind.obj.energy,
        }
        for ind in front
    ])


def write_bench_csv(path, records: list[BenchRecord]) -> None:
    _write_csv(path, [field.name for field in fields(BenchRecord)], (
        [rec.problem, rec.dataset, rec.ft1, repr(rec.ec1), rec.ft2, repr(rec.ec2),
         f"{rec.pct_ft:.2f}", f"{rec.pct_ec:.2f}"]
        for rec in records
    ))


def read_bench_csv(path) -> list[BenchRecord]:
    """Records of a `write_bench_csv` file.  Text that is not UTF-8, a
    missing column, a short row, an unreadable value or a float that is not
    finite raises ValueError naming the file (and the line and the field)."""
    columns = get_type_hints(BenchRecord)  # field name -> str, int or float
    records = []
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                where = f"{path} line {reader.line_num}"
                values = {}
                for name, parse in columns.items():
                    text = row.get(name)
                    if text is None:
                        raise ValueError(f"{where}: missing field {name!r}")
                    try:
                        values[name] = value = parse(text)
                        if parse is float and not math.isfinite(value):
                            raise ValueError  # `bench` never writes one
                    except ValueError:
                        raise ValueError(f"{where}: bad {name!r} value {text!r}") from None
                records.append(BenchRecord(**values))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return records


def write_bench_json(path, records: list[BenchRecord]) -> None:
    _write_json(path, [
        {**asdict(rec), "pct_ft": round(rec.pct_ft, 2), "pct_ec": round(rec.pct_ec, 2)}
        for rec in records
    ])


def write_aggregates_csv(path, aggregates) -> None:
    _write_csv(path, ["problem", "avg_pct_ft", "avg_pct_ec"], (
        [label, f"{pct_ft:.2f}", f"{pct_ec:.2f}"] for label, pct_ft, pct_ec in aggregates
    ))

