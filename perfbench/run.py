"""Solver benchmark: one command, three workloads, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the sources are taken from `src/` next to this
directory.  Workloads (see README.md in this directory for why each exists):

  solve-table3  default `evolve` on the built-in 15x5 instance (descent on)
  ga-20x5       `evolve` without descent on a seeded 20x5 instance, 200 gens
  bench-50x10   in-process `greenflowshop bench` campaign over a seeded
                Taillard-format file of 50x10 blocks

Each workload runs in a fresh single-threaded worker process (worker.py).
The last stdout line is one JSON object {correct, attempted, failed,
metrics}; the line before it records the environment, fingerprints and
check results.  With `--trace 0` the metrics are end to end:

  wall_s       median wall time of the timed call (a solve or a campaign)
  setup_s      median, over several fresh processes, of the time from
               process start to the first solver call
  peak_rss_mb  peak resident memory of the measuring worker and its children
  front_hv     normalised hypervolume of the output (deterministic per seed)
  pass_share   operations that passed every check / operations attempted

With `--trace 1` a last call runs with the layer bindings wrapped and the
metrics are per layer (see worker.layer_metrics).  The exit code is 0
whenever a result was printed, failed operations included; it is 2 when
the sources are missing and 1 when a worker could not report.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("solve-table3", "ga-20x5", "bench-50x10")
SETUP_PROBES = 5  # extra fresh processes that only build the inputs
# A fresh interpreter that imports what the worker imports from outside the
# program (stdlib and numpy) and stops: the set-up speed reference.
REFERENCE_START = (
    "import argparse, bisect, collections, contextlib, csv, dataclasses, hashlib, "
    "heapq, io, json, math, resource, shutil, signal, statistics, typing, time; "
    "import numpy; print(json.dumps({'ready': time.monotonic()}))"
)
# The reference start's median time on the machine the bounds were set on;
# only a scale (see setup_s in main).
REFERENCE_START_S = 0.17
TIME_LIMIT_S = 170.0
SINGLE_THREAD = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=False)
    return out.stdout.strip() or None


def spawn(cmd: list[str], deadline: float, workdir: Path | None = None) -> tuple[dict, float]:
    """Run one child; return its JSON result and its set-up time, from just
    before the process is started to the moment it reported ready."""
    tag = workdir.name if workdir else "reference"
    env = dict(os.environ, **SINGLE_THREAD)
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=max(1.0, deadline - started), check=False)
    except subprocess.TimeoutExpired:
        if workdir:
            shutil.rmtree(workdir, ignore_errors=True)
        raise SystemExit(f"perfbench: {tag} did not finish in time")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"perfbench: {tag} exited {proc.returncode}")
    result = json.loads(lines[-1])
    return result, result["ready"] - started


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "greenflowshop" / "__init__.py").is_file():
        print(f"perfbench: no greenflowshop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S

    def worker(tag: str, *extra: str) -> tuple[dict, float]:
        workdir = ROOT / ".perfbench_work" / f"{os.getpid()}-{tag}"
        return spawn([sys.executable, str(WORKER), "--workload", args.workload,
                      "--seed", str(args.seed), "--workdir", str(workdir), *extra],
                     deadline, workdir)

    # Set-up times drift with the machine as wall times do (see
    # calibrate.py), and mostly in process start and imports, which the
    # Python kernel does not track.  Each probe is therefore bracketed by
    # reference starts and rescaled by REFERENCE_START_S / their mean.
    reference = [sys.executable, "-c", REFERENCE_START]
    starts = [spawn(reference, deadline)[1]]
    setups = []
    for k in range(SETUP_PROBES):
        raw = worker(f"probe{k}", "--setup-only")[1]
        starts.append(spawn(reference, deadline)[1])
        setups.append(raw * REFERENCE_START_S * 2.0 / (starts[-2] + starts[-1]))
    result, raw = worker("run", "--seconds", str(args.seconds), "--trace", str(args.trace))
    setups.append(raw * REFERENCE_START_S / starts[-1])
    with contextlib.suppress(OSError):  # removed only when empty: no other run uses it
        (ROOT / ".perfbench_work").rmdir()

    self_test = result["self_test"]
    attempted, failed = result["attempted"], result["failed"]
    correct = failed == 0 and bool(self_test) and all(self_test.values())
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result["layers"].items()}
    else:
        metrics = {
            "wall_s": {"value": result["wall_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "front_hv": {"value": result["front_hv"] or 0.0, "unit": "share"},
            "pass_share": {"value": (attempted - failed) / attempted, "unit": "share"},
        }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": {
            "python": platform.python_version(),
            "numpy": result["numpy"],
            "nproc": len(os.sched_getaffinity(0)),
            "commit": git_commit(),
            "blas_threads": 1,
        },
        "fingerprint": result["fingerprint"],
        "front_hv": result["front_hv"],
        "wall_raw_s": result["wall_raw_s"],
        "walls_s": result["walls"],
        "scaled_s": result["scaled"],
        "setups_s": setups,
        "reference_starts_s": starts,
        "self_test": self_test,
        "failures": result["failures"],
    }
    print(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
