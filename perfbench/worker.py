"""Run one benchmark workload in this (fresh, single-threaded) process.

    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR \
        (--seconds S --trace 0|1 | --setup-only)

`run.py` starts this script and reads the JSON object it prints as its last
line; see that file for the metrics.  The workload's inputs are built here
from the seed, then its timed call (one solve, or one whole `bench`
campaign) repeats until the time budget is spent.  With `--trace 1` a final
call runs with the layer bindings wrapped (see tracing.py).  Every output
is checked afterwards; a failed call is recorded and the set continues.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from calibrate import SpeedSampler  # noqa: E402
from tracing import Tracer  # noqa: E402

from greenflowshop import cli, harness, localsearch, nsga2, objectives, pareto  # noqa: E402
from greenflowshop.instance import Instance, load_table3  # noqa: E402
from greenflowshop.objectives import DEFAULT_KAPPA, simulate_oracle  # noqa: E402

# repr((proc_time, fixed_power)) of the built-in 15x5 instance: a change to
# the built-in table must fail the run, not silently change the workload.
TABLE3_SHA256 = "0f6d6550ad02d7fd066c6241708dfb1c05a1c787ec148f16943707f446572e84"


def derive(*labels) -> int:
    """A 63-bit seed derived from the labels (the workload seed among them)."""
    digest = hashlib.sha256(repr(labels).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def random_times(rng: np.random.Generator, n_jobs: int, n_machines: int):
    """Job-major integer minutes drawn uniformly from [1, 99]."""
    return rng.integers(1, 100, size=(n_jobs, n_machines)).tolist()


def random_powers(rng: np.random.Generator, n_machines: int):
    return rng.integers(700, 1501, size=n_machines).tolist()


def as_triples(front):
    return [(ind.perm, ind.obj.flowtime, ind.obj.energy) for ind in front]


def instrument_solver(tracer: Tracer) -> None:
    """Wrap the bindings through which the solver's layers call each other."""

    def evaluate_source():
        return ("objectives.evaluate.init" if tracer.open["nsga2.init_population"]
                else "objectives.evaluate.offspring")

    def pool_size(counter, args, result):
        counter["pool"] += len(args[0])

    def descent_outcome(counter, args, result):
        start, (best, archive) = args[0].obj, result
        counter["improved"] += checks.dominates(best.obj, start)
        counter["harvest"] += sum(
            found.obj != best.obj and found.obj != start for found in archive
        )

    tracer.wrap(nsga2, "init_population", "nsga2.init_population")
    tracer.wrap(nsga2, "evaluate", evaluate_source)
    tracer.wrap(localsearch, "evaluate", "objectives.evaluate.descent")
    tracer.wrap(objectives, "check_permutation", "instance.check_permutation")
    tracer.wrap(localsearch, "fast_nondominated_sort", "pareto.sort.descent", pool_size)
    tracer.wrap(nsga2, "rank_population", "pareto.rank", pool_size)
    tracer.wrap(pareto, "crowding_distance", "pareto.crowding")
    tracer.wrap(nsga2, "vnd_explore", "localsearch.vnd", descent_outcome)
    tracer.wrap(nsga2, "_make_offspring", "nsga2.variation")


class SolveWorkload:
    """One `evolve` call; the output is its front."""

    def __init__(self, instance: Instance, config: nsga2.RunConfig):
        self.instance = instance
        self.config = config

    def run(self):
        return as_triples(nsga2.evolve(self.instance, self.config))

    def instrument(self, tracer: Tracer) -> None:
        instrument_solver(tracer)
        tracer.wrap(nsga2, "evolve", "nsga2.evolve")

    def check(self, front) -> list[str]:
        return checks.check_front(front, self.instance, simulate_oracle, DEFAULT_KAPPA)

    def fingerprint(self, front) -> str:
        return checks.front_fingerprint(front)

    def front_hv(self, front) -> float:
        ref = checks.reference_point(self.instance, simulate_oracle, DEFAULT_KAPPA)
        return checks.hypervolume([(ft, en) for _, ft, en in front], ref)

    def self_test(self, front) -> dict[str, bool]:
        return checks.self_test(
            self.instance, front, None, simulate_oracle, DEFAULT_KAPPA,
            derive(self.config.seed, "self-test"),
        )


def solve_table3(seed: int, workdir: Path) -> SolveWorkload:
    instance = load_table3()
    pinned = hashlib.sha256(repr((instance.proc_time, instance.fixed_power)).encode())
    if pinned.hexdigest() != TABLE3_SHA256:
        raise RuntimeError("the built-in table3 instance changed")
    return SolveWorkload(instance, nsga2.RunConfig(seed=derive(seed, "solve-table3")))


def ga_20x5(seed: int, workdir: Path) -> SolveWorkload:
    rng = np.random.default_rng(derive("ga-20x5", "instance"))
    instance = Instance.from_matrix(random_times(rng, 20, 5), random_powers(rng, 5))
    config = nsga2.RunConfig(generations=200, ls_enabled=False, seed=derive(seed, "ga-20x5"))
    return SolveWorkload(instance, config)


class CampaignWorkload:
    """One in-process `greenflowshop bench` call over a Taillard-format file;
    the output is the bytes of its record file."""

    PROBLEM = "ta50x10"
    # Eight short solves over four blocks rather than four longer ones over
    # two: the descent's work and the front's extremes vary with the solver
    # seed.  Over seeds 1-10 (interquartile range over median) the campaign's
    # evaluation count spread 2.0% and front_hv 3.6%, against 4.4% and 2.3%
    # for 2 blocks x 2 repeats at pop 20, gen 8, and 1.5% and 5.7% for 2
    # blocks x 4 repeats at pop 16, gen 4, all for about the same work.
    BLOCKS, REPEATS, POP, GEN = 4, 2, 12, 6

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(derive("bench-50x10", "instance"))
        self.blocks = [random_times(rng, 50, 10) for _ in range(self.BLOCKS)]
        self.powers = random_powers(rng, 10)
        self.seed = seed
        path = workdir / f"{self.PROBLEM}.txt"
        powers_path = workdir / "powers.txt"
        self.records_path = workdir / "records.csv"
        path.write_text(taillard_text(self.blocks, derive("bench-50x10", "time-seed") >> 32))
        powers_path.write_text(" ".join(map(str, self.powers)) + "\n")
        self.argv = [
            "bench", str(path), "--runs", str(self.REPEATS), "--pop", str(self.POP),
            "--gen", str(self.GEN), "--seed", str(derive(seed, "bench-50x10")),
            "--powers", str(powers_path), "--out", str(self.records_path),
        ]

    def instances(self) -> list[Instance]:
        return [Instance.from_matrix(times, self.powers) for times in self.blocks]

    def run(self) -> bytes:
        self.records_path.unlink(missing_ok=True)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.cli(self.argv)
        if code != 0:
            raise RuntimeError(f"bench exited {code}: {err.getvalue().strip()[-200:]}")
        return self.records_path.read_bytes()

    def instrument(self, tracer: Tracer) -> None:
        instrument_solver(tracer)
        tracer.wrap(cli, "cli", "cli")
        for parser in ("parse_instance", "count_taillard_blocks", "parse_taillard"):
            tracer.wrap(cli, parser, "instance.parse")
        tracer.wrap(harness, "evolve", "harness.solve")
        tracer.wrap(harness, "merge_fronts", "harness.merge")
        tracer.wrap(harness, "fast_nondominated_sort", "pareto.sort.merge")
        tracer.wrap(harness, "write_bench_csv", "harness.write")

    def check(self, records: bytes) -> list[str]:
        try:
            text = records.decode("utf-8")
        except UnicodeDecodeError:
            return ["records are not UTF-8"]
        return checks.check_records(text, self.PROBLEM, self.BLOCKS)

    def fingerprint(self, records: bytes) -> str:
        return checks.bytes_fingerprint(records)

    def front_hv(self, records: bytes) -> float:
        """Each block's two extreme points, averaged over blocks."""
        extremes = checks.record_extremes(records.decode("utf-8"))
        volumes = [
            checks.hypervolume(points, checks.reference_point(inst, simulate_oracle, DEFAULT_KAPPA))
            for inst, points in zip(self.instances(), extremes)
        ]
        return sum(volumes) / len(volumes)

    def self_test(self, records: bytes) -> dict[str, bool]:
        """Tamper with the campaign's records, and with the front of a short
        solve of the first block (the campaign itself prints no front)."""
        instance = self.instances()[0]
        config = nsga2.RunConfig(pop_size=10, generations=2, ls_enabled=False,
                                 seed=derive(self.seed, "self-test"))
        front = as_triples(nsga2.evolve(instance, config))
        return checks.self_test(
            instance, front, (records.decode("utf-8"), self.PROBLEM, self.BLOCKS),
            simulate_oracle, DEFAULT_KAPPA, config.seed,
        )


def taillard_text(blocks, time_seed: int) -> str:
    """Taillard layout: marker line, 'n m seed ub lb', marker, then the
    machine-major matrix (one row per machine)."""
    out = []
    for times in blocks:
        n, m = len(times), len(times[0])
        out.append("number of jobs, number of machines, initial seed, upper bound and lower bound :")
        out.append(f"{n:12d}{m:12d}{time_seed:12d}{0:12d}{0:12d}")
        out.append("processing times :")
        for j in range(m):
            out.append(" ".join(f"{times[i][j]:3d}" for i in range(n)))
    return "\n".join(out) + "\n"


WORKLOADS = {
    "solve-table3": solve_table3,
    "ga-20x5": ga_20x5,
    "bench-50x10": CampaignWorkload,
}


def layer_metrics(tr: Tracer, traced: "Call", untraced_wall: float) -> dict:
    """Per-layer metrics of one traced call.  Span times are multiplied by
    the call's speed factor, so they read at the reference speed like
    `wall_s`; `untraced_wall` is the untraced calls' scaled median."""
    scale = traced.factor

    def ratio(a, b):
        return a / b if b else 0.0

    ev = {src: tr.stat(f"objectives.evaluate.{src}") for src in ("init", "offspring", "descent")}
    ev_calls = sum(s.calls for s in ev.values())
    ev_self = scale * sum(s.self_s for s in ev.values())
    sort_d, rank, crowd = tr.stat("pareto.sort.descent"), tr.stat("pareto.rank"), tr.stat("pareto.crowding")
    vnd, var, solve = tr.stat("localsearch.vnd"), tr.stat("nsga2.variation"), tr.stat("harness.solve")
    parse, check = tr.stat("instance.parse"), tr.stat("instance.check_permutation")
    return {
        "objectives.evaluate.calls.init": (ev["init"].calls, "count"),
        "objectives.evaluate.calls.offspring": (ev["offspring"].calls, "count"),
        "objectives.evaluate.calls.descent": (ev["descent"].calls, "count"),
        "objectives.evaluate.self_s": (ev_self, "s"),
        "objectives.evaluate.us_per_call": (1e6 * ratio(ev_self, ev_calls), "us"),
        "instance.check_permutation.calls": (check.calls, "count"),
        "instance.check_permutation.self_s": (scale * check.self_s, "s"),
        "pareto.sort.calls.descent": (sort_d.calls, "count"),
        "pareto.sort.self_s.descent": (scale * sort_d.self_s, "s"),
        "pareto.sort.mean_pool.descent": (ratio(sort_d.observed["pool"], sort_d.calls), "points"),
        "pareto.sort.calls.merge": (tr.stat("pareto.sort.merge").calls, "count"),
        "pareto.rank.calls": (rank.calls, "count"),
        "pareto.rank.self_s": (scale * rank.self_s, "s"),
        "pareto.rank.mean_pool": (ratio(rank.observed["pool"], rank.calls), "points"),
        "pareto.crowding.calls": (crowd.calls, "count"),
        "pareto.crowding.self_s": (scale * crowd.self_s, "s"),
        "localsearch.vnd.calls": (vnd.calls, "count"),
        "localsearch.vnd.self_s": (scale * vnd.self_s, "s"),
        "localsearch.vnd.evals_per_call": (ratio(ev["descent"].calls, vnd.calls), "evals"),
        "localsearch.vnd.improved_share": (ratio(vnd.observed["improved"], vnd.calls), "share"),
        "localsearch.vnd.harvest_per_call": (ratio(vnd.observed["harvest"], vnd.calls), "points"),
        "nsga2.variation.calls": (var.calls, "count"),
        "nsga2.variation.self_s": (scale * var.self_s, "s"),
        "nsga2.evolve.self_s": (scale * (tr.stat("nsga2.evolve").self_s + solve.self_s), "s"),
        "nsga2.generations": (var.calls, "count"),
        "harness.solves": (solve.calls, "count"),
        "harness.solve_s.sum": (scale * solve.total_s, "s"),
        "harness.serial_s": (scale * (traced.wall - solve.total_s) if solve.calls else 0.0, "s"),
        "harness.merge.self_s": (scale * tr.stat("harness.merge").self_s, "s"),
        "harness.write_s": (scale * tr.stat("harness.write").total_s, "s"),
        "instance.parse.calls": (parse.calls, "count"),
        "instance.parse_s": (scale * parse.total_s, "s"),
        "cli.self_s": (scale * tr.stat("cli").self_s, "s"),
        "trace.overhead_s": (traced.scaled - untraced_wall, "s"),
    }


class Call:
    """One timed call of a workload, with a speed sampler around it."""

    def __init__(self, workload):
        with SpeedSampler() as speed:
            start = time.perf_counter()
            try:
                self.output, self.error = workload.run(), None
            except Exception as exc:  # a failed run is recorded; the set continues
                self.output, self.error = None, f"{type(exc).__name__}: {exc}"
            self.wall = time.perf_counter() - start
        self.factor = speed.factor()
        self.scaled = speed.scale(self.wall)
        self.peak_rss_kib = speed.peak_rss_kib


def measure(workload, seconds: float, trace: bool) -> dict:
    """Repeat the timed call until the budget is spent (at least twice, or
    once before the traced call), then check every output.  Each call's
    wall time is also rescaled to the reference machine speed (see
    calibrate.py); the scaled median is the reported `wall_s`."""
    budget, min_calls = (seconds / 2, 1) if trace else (seconds, 2)
    calls: list[Call] = []
    began = time.perf_counter()
    while True:
        calls.append(Call(workload))
        spent = time.perf_counter() - began
        if len(calls) >= min_calls and spent + statistics.median(c.wall for c in calls) > budget:
            break
    wall_s = statistics.median(c.scaled for c in calls)

    layers = None
    if trace:
        tracer = Tracer()
        with tracer.installed():
            workload.instrument(tracer)
            calls.append(Call(workload))
        layers = layer_metrics(tracer, calls[-1], wall_s)

    failures, fingerprints, passed = [], [], []
    for k, call in enumerate(calls):
        reasons = [call.error] if call.error else workload.check(call.output)
        if not reasons:
            fingerprints.append(workload.fingerprint(call.output))
            passed.append(call.output)
            if fingerprints[-1] != fingerprints[0]:
                reasons = ["fingerprint differs from the first passing run's"]
        if reasons:
            failures.append({"run": k, "traced": trace and k == len(calls) - 1,
                             "reasons": reasons[:5]})
    return {
        "wall_s": wall_s,
        "wall_raw_s": statistics.median(c.wall for c in calls[:len(calls) - trace]),
        "walls": [c.wall for c in calls],
        "scaled": [c.scaled for c in calls],
        "attempted": len(calls),
        "failed": len(failures),
        "failures": failures,
        "fingerprint": fingerprints[0] if fingerprints else None,
        "front_hv": workload.front_hv(passed[0]) if passed else None,
        "self_test": workload.self_test(passed[0]) if passed else {},
        "layers": layers,
        "peak_rss_mb": peak_rss_mb(max(c.peak_rss_kib for c in calls)),
    }


def peak_rss_mb(sampled_kib: int) -> float:
    """Peak resident memory of this process and its child processes.  The
    larger of two lower bounds: the sum of the resident sets the speed
    sampler saw at one instant, and this process's own peak plus that of its
    largest ended child (Linux reports both in KiB)."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return max(kib, sampled_kib) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        ready = time.monotonic()
        result = {"ready": ready}
        if not args.setup_only:
            result.update(measure(workload, args.seconds, bool(args.trace)))
            result["numpy"] = np.__version__
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
