"""Command line entry point.

Subcommands: `generate` (random instance synthesis), `solve` (one
configured run, front to CSV/JSON), `tune` (orthogonal-array campaign,
response tables to CSV), `bench` (repeated runs over benchmark instances,
records to CSV) and `report` (re-aggregate a stored record file).

Exit codes: 0 success, 1 usage error, 2 I/O error, 3 contract violation.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import harness, tuning
from .instance import (
    TAILLARD_TIME_SEEDS,
    Instance,
    default_powers,
    format_instance,
    generate_instance,
    is_taillard,
    load_table3,
    parse_instance,
    parse_taillard_blocks,
    save_instance,
    taillard_instance,
)
# The loader reads a Taillard file in one `parse_taillard_blocks` pass; the
# per-block parsers stay bound here because perfbench wraps them by name.
from .instance import count_taillard_blocks, parse_taillard  # noqa: F401
from .nsga2 import RunConfig, evolve
from .objectives import DEFAULT_KAPPA

__all__ = ["cli", "main"]

# Flags shared between subcommands; each subcommand takes only those it reads.
_FLAGS = {
    "--pop": dict(type=int, default=RunConfig.pop_size, help="population size"),
    "--gen": dict(type=int, default=RunConfig.generations, help="generation count"),
    "--pc": dict(type=float, default=RunConfig.p_crossover, help="crossover probability"),
    "--pm": dict(type=float, default=RunConfig.p_mutation, help="mutation probability"),
    "--seed": dict(type=int, default=0, help="root random seed"),
    "--ls": dict(choices=("on", "off"), default="on", help="descent pass on rank-1 solutions"),
    "--runs": dict(type=int, default=10, help="repeated runs per benchmark instance"),
    "--kappa": dict(type=float, default=DEFAULT_KAPPA, help="standby minutes to energy factor"),
    "--powers": dict(default="table9", help="Taillard file powers: 'table9' or a number file"),
    "--out": dict(default=None, help="output path"),
    "--json": dict(default=None, help="also mirror the output to this JSON path"),
}
_GA_FLAGS = ("--pop", "--gen", "--pc", "--pm")
_INSTANCE_HELP = "'table3', 'ta20x5' or an instance file (native or Taillard)"


def _add_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        parser.add_argument(name, **_FLAGS[name])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greenflowshop",
        description="Bi-objective flowshop scheduling: flowtime vs. standby energy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="synthesize a random instance")
    p_gen.add_argument("--jobs", type=int, required=True)
    p_gen.add_argument("--machines", type=int, required=True)
    _add_flags(p_gen, "--seed", "--out")

    p_solve = sub.add_parser("solve", help="one run, emit the front")
    p_solve.add_argument("--instance", type=str, required=True, help=_INSTANCE_HELP)
    p_solve.add_argument("--index", type=int, default=1,
                         help="which instance of a multi-instance set (1-based)")
    _add_flags(p_solve, *_GA_FLAGS, "--seed", "--ls", "--kappa", "--powers",
               "--out", "--json")

    p_tune = sub.add_parser("tune", help="orthogonal-array parameter campaign")
    p_tune.add_argument("--instance", type=str, default="table3", help=_INSTANCE_HELP)
    p_tune.add_argument("--index", type=int, default=1)
    _add_flags(p_tune, "--seed", "--ls", "--kappa", "--powers", "--out")

    p_bench = sub.add_parser("bench", help="repeated runs over benchmark instances")
    p_bench.add_argument("instances", nargs="+",
                         help=f"each {_INSTANCE_HELP}; every instance of a set runs")
    _add_flags(p_bench, *_GA_FLAGS, "--seed", "--ls", "--runs", "--kappa",
               "--powers", "--out", "--json")

    p_report = sub.add_parser("report", help="re-aggregate a stored record CSV")
    p_report.add_argument("--records", type=str, required=True, dest="records")
    _add_flags(p_report, "--out")

    return parser


def _config(args) -> RunConfig:
    return RunConfig(
        pop_size=args.pop,
        generations=args.gen,
        p_crossover=args.pc,
        p_mutation=args.pm,
        seed=args.seed,
        ls_enabled=args.ls == "on",
    )


def _power_source(spec: str):
    """Machine count -> standby powers: the built-in `table9` list, or the
    leading values of a number file, which is read here once."""
    if spec == "table9":
        return default_powers
    values = [float(tok) for tok in Path(spec).read_text(encoding="utf-8").split()]

    def leading(n_machines: int) -> tuple[float, ...]:
        if len(values) < n_machines:
            raise ValueError(
                f"power file {spec} has {len(values)} values, need {n_machines}"
            )
        return tuple(values[:n_machines])

    return leading


def _load_tasks(spec: str, powers_spec: str) -> list[harness.BenchTask]:
    """Every instance `spec` names, labelled for benchmark records: built-in
    `table3` or the `ta20x5` set, a native file, or each block of a Taillard
    file with powers from `powers_spec`."""
    if spec == "table3":
        return [harness.BenchTask("table3", 1, load_table3())]
    if spec == "ta20x5":
        return [
            harness.BenchTask("Ta20x5", k, taillard_instance(20, 5, k))
            for k in range(1, len(TAILLARD_TIME_SEEDS[20, 5]) + 1)
        ]
    text = Path(spec).read_text(encoding="utf-8")
    label = Path(spec).stem
    if not is_taillard(text):
        return [harness.BenchTask(label, 1, parse_instance(text))]
    blocks = parse_taillard_blocks(text)
    powers = _power_source(powers_spec)
    return [
        harness.BenchTask(label, k, block.to_instance(powers(block.n_machines)))
        for k, block in enumerate(blocks, start=1)
    ]


def _load_instance(args) -> Instance:
    tasks = _load_tasks(args.instance, args.powers)
    if not 1 <= args.index <= len(tasks):
        raise IndexError(f"instance index {args.index} outside 1..{len(tasks)}")
    return tasks[args.index - 1].instance


def _cmd_generate(args) -> int:
    instance = generate_instance(args.jobs, args.machines, args.seed)
    if args.out:
        save_instance(instance, args.out)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(format_instance(instance))
    return 0


def _cmd_solve(args) -> int:
    instance = _load_instance(args)
    front = evolve(instance, _config(args), kappa=args.kappa)
    if args.out:
        harness.write_front_csv(args.out, front)
        print(f"wrote {args.out} ({len(front)} front points)")
    else:
        print("sequence,flowtime,energy_whr")
        for ind in front:
            print(f"{harness.sequence_str(ind.perm)},{ind.obj.flowtime},{ind.obj.energy!r}")
    if args.json:
        harness.write_front_json(args.json, front)
    return 0


def _cmd_tune(args) -> int:
    instance = _load_instance(args)
    design = tuning.build_l16()
    # the design rows set population, generations and both probabilities
    base = RunConfig(ls_enabled=args.ls == "on")
    prefix = args.out or "tuning"
    tables = {}
    for response in ("flowtime", "energy"):
        responses = tuning.run_design(
            design, instance, args.seed, response, base_config=base, kappa=args.kappa
        )
        table = tuning.response_table(design, responses)
        tables[response] = table
        rows_path = f"{prefix}_{response}_responses.csv"
        with open(rows_path, "w", encoding="utf-8") as fh:
            fh.write("gen,pop,crossover,mutation,response\n")
            for row, value in zip(design.rows, responses):
                fh.write(f"{row.gen},{row.pop},{row.crossover},{row.mutation},{value!r}\n")
        table_path = f"{prefix}_{response}_table.csv"
        Path(table_path).write_text(tuning.response_table_csv(table), encoding="utf-8")
        print(f"wrote {rows_path} and {table_path}")
    picked = tuning.pick_best_params(tables["flowtime"], tables["energy"])
    print("selected parameters:", picked)
    return 0


def _cmd_bench(args) -> int:
    tasks = [task for spec in args.instances for task in _load_tasks(spec, args.powers)]

    def progress(task, done, total):
        print(f"{task.problem} #{task.dataset}: run {done}/{total}", file=sys.stderr)

    records = harness.run_benchmark(
        tasks, _config(args), args.runs, kappa=args.kappa, on_progress=progress
    )
    out = args.out or "bench.csv"
    harness.write_bench_csv(out, records)
    if args.json:
        harness.write_bench_json(args.json, records)
    for label, pct_ft, pct_ec in harness.aggregate_records(records):
        print(f"{label}: avg pct_ft {pct_ft:.2f}, avg pct_ec {pct_ec:.2f}")
    print(f"wrote {out} ({len(records)} records)")
    return 0


def _cmd_report(args) -> int:
    records = harness.read_bench_csv(args.records)
    if not records:
        raise ValueError(f"no records in {args.records}")
    aggregates = harness.aggregate_records(records)
    if args.out:
        harness.write_aggregates_csv(args.out, aggregates)
        print(f"wrote {args.out}")
    else:
        print("problem,avg_pct_ft,avg_pct_ec")
        for label, pct_ft, pct_ec in aggregates:
            print(f"{label},{pct_ft:.2f},{pct_ec:.2f}")
    return 0


_HANDLERS = {
    "generate": _cmd_generate,
    "solve": _cmd_solve,
    "tune": _cmd_tune,
    "bench": _cmd_bench,
    "report": _cmd_report,
}


def cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage problems
        return 0 if exc.code in (0, None) else 1
    try:
        return _HANDLERS[args.command](args)
    except OSError as exc:
        print(f"greenflowshop: {exc}", file=sys.stderr)
        return 2
    except (ValueError, IndexError) as exc:
        print(f"greenflowshop: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
