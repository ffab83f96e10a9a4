"""Command line entry point.

Subcommands: `generate` (random instance synthesis), `solve` (one
configured run, front to CSV/JSON), `tune` (orthogonal-array campaign,
response tables to CSV), `bench` (repeated runs over benchmark instances,
records to CSV) and `report` (re-aggregate a stored record file).

Exit codes: 0 success, 1 usage error, 2 I/O error, 3 contract violation.
"""

from __future__ import annotations

import argparse
import math
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
    parse_taillard,
    taillard_instance,
)
# Bound only because perfbench wraps it by name.
from .instance import count_taillard_blocks  # noqa: F401
from .nsga2 import RunConfig, evolve
from .objectives import DEFAULT_KAPPA

__all__ = ["cli", "main"]

# Flags shared between subcommands; each subcommand takes only those it reads.
_FLAGS = {
    "--pop": dict(type=int, default=RunConfig.pop_size, help="population size"),
    "--gen": dict(type=int, default=RunConfig.generations, help="generation count"),
    "--pc": dict(type=float, default=RunConfig.p_crossover, help="crossover probability"),
    "--pm": dict(type=float, default=RunConfig.p_mutation, help="mutation probability"),
    "--index": dict(type=int, default=1, help="1-based instance of a multi-instance set"),
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
    _add_flags(p_solve, "--index", *_GA_FLAGS, "--seed", "--ls", "--kappa", "--powers",
               "--out", "--json")

    p_tune = sub.add_parser("tune", help="orthogonal-array parameter campaign")
    p_tune.add_argument("--instance", type=str, default="table3", help=_INSTANCE_HELP)
    _add_flags(p_tune, "--index", "--seed", "--ls", "--kappa", "--powers", "--out")

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
        kappa=args.kappa,
    )


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _power_source(spec: str):
    """Machine count -> standby powers: the built-in `table9` list, or the
    leading values of a number file, which is read and checked here once."""
    if spec == "table9":
        return default_powers
    values = []
    for token in _read_text(spec).split():
        try:
            value = float(token)
        except ValueError:
            value = math.nan
        if not 0.0 < value < math.inf:
            raise ValueError(
                f"power file {spec}: {token!r} is not a positive finite power"
            )
        values.append(value)

    def leading(n_machines: int) -> tuple[float, ...]:
        if len(values) < n_machines:
            raise ValueError(
                f"power file {spec} has {len(values)} values, need {n_machines}"
            )
        return tuple(values[:n_machines])

    return leading


def _load_tasks(spec: str, powers) -> list[harness.BenchTask]:
    """Every instance `spec` names, labelled for benchmark records: built-in
    `table3`, a native file, or the `ta20x5` set or each block of a
    Taillard file with `powers(n_machines)` from `_power_source`."""
    if spec == "table3":
        return [harness.BenchTask("table3", 1, load_table3())]
    if spec == "ta20x5":
        return [
            harness.BenchTask("Ta20x5", k, taillard_instance(20, 5, k, powers(5)))
            for k in range(1, len(TAILLARD_TIME_SEEDS[20, 5]) + 1)
        ]
    text = _read_text(spec)
    label = Path(spec).stem
    if not is_taillard(text):
        return [harness.BenchTask(label, 1, parse_instance(text))]
    return [
        harness.BenchTask(label, k, Instance.from_matrix(times, powers(len(times[0]))))
        for k, times in enumerate(parse_taillard(text), start=1)
    ]


def _input_files(specs, powers_spec: str) -> list[str]:
    """The specs that name files: all but the built-ins `table3`, `ta20x5` and `table9`."""
    files = [spec for spec in specs if spec not in ("table3", "ta20x5")]
    return files if powers_spec == "table9" else [*files, powers_spec]


def _check_outputs(*paths, inputs=()) -> None:
    """Raise OSError for the first given path that is a directory, lies in
    a missing one or names the same file as an earlier path or one of the
    command's `inputs`.  Called before any solver work; it creates nothing."""
    seen = {Path(path).resolve(): "an input" for path in inputs}
    for path in filter(None, paths):
        if Path(path).is_dir():
            raise OSError(f"output path {path} is a directory")
        if not Path(path).parent.is_dir():
            raise OSError(f"output path {path}: no such directory")
        target = Path(path).resolve()
        if target in seen:
            raise OSError(f"output path {path} names the same file as {seen[target]}")
        seen[target] = "another output"


def _load_instance(args) -> Instance:
    tasks = _load_tasks(args.instance, _power_source(args.powers))
    if not 1 <= args.index <= len(tasks):
        raise IndexError(f"instance index {args.index} outside 1..{len(tasks)}")
    return tasks[args.index - 1].instance


def _cmd_generate(args) -> int:
    _check_outputs(args.out)
    instance = generate_instance(args.jobs, args.machines, args.seed)
    if args.out:
        Path(args.out).write_text(format_instance(instance), encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(format_instance(instance))
    return 0


def _cmd_solve(args) -> int:
    config = _config(args)
    _check_outputs(args.out, args.json, inputs=_input_files([args.instance], args.powers))
    front = evolve(_load_instance(args), config)
    harness.write_front_csv(args.out, front)
    if args.out:
        print(f"wrote {args.out} ({len(front)} front points)")
    if args.json:
        harness.write_front_json(args.json, front)
    return 0


def _cmd_tune(args) -> int:
    config = RunConfig(seed=args.seed, ls_enabled=args.ls == "on", kappa=args.kappa)
    prefix = args.out or "tuning"
    paths = {response: (f"{prefix}_{response}_responses.csv", f"{prefix}_{response}_table.csv")
             for response in ("flowtime", "energy")}
    _check_outputs(*paths["flowtime"], *paths["energy"],
                   inputs=_input_files([args.instance], args.powers))
    tables = {}
    for response, responses in tuning.run_design(_load_instance(args), config).items():
        table = tuning.response_table(responses)
        tables[response] = table
        rows_path, table_path = paths[response]
        Path(rows_path).write_text(tuning.responses_csv(responses), encoding="utf-8")
        Path(table_path).write_text(tuning.response_table_csv(table), encoding="utf-8")
        print(f"wrote {rows_path} and {table_path}")
    picked = tuning.pick_best_params(tables["flowtime"], tables["energy"])
    print("selected parameters:", picked)
    return 0


def _cmd_bench(args) -> int:
    if args.runs < 1:
        raise ValueError("--runs must be at least 1")
    config = _config(args)
    out = args.out or "bench.csv"
    _check_outputs(out, args.json, inputs=_input_files(args.instances, args.powers))
    powers = _power_source(args.powers)  # read and checked once, before any instance file
    tasks = [task for spec in args.instances for task in _load_tasks(spec, powers)]

    def progress(task, done, total):
        print(f"{task.problem} #{task.dataset}: run {done}/{total}", file=sys.stderr)

    records = harness.run_benchmark(tasks, config, args.runs, on_progress=progress)
    harness.write_bench_csv(out, records)
    if args.json:
        harness.write_bench_json(args.json, records)
    for label, pct_ft, pct_ec in harness.aggregate_records(records):
        print(f"{label}: avg pct_ft {pct_ft:.2f}, avg pct_ec {pct_ec:.2f}")
    print(f"wrote {out} ({len(records)} records)")
    return 0


def _cmd_report(args) -> int:
    _check_outputs(args.out, inputs=[args.records])
    records = harness.read_bench_csv(args.records)
    if not records:
        raise ValueError(f"no records in {args.records}")
    aggregates = harness.aggregate_records(records)
    harness.write_aggregates_csv(args.out, aggregates)
    if args.out:
        print(f"wrote {args.out}")
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
