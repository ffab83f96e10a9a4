"""Output checks, fingerprints and hypervolume for the solver benchmark.

Nothing here trusts the solver: a front is re-scored point by point with the
event-heap oracle the caller passes in, dominance is recomputed from the
printed numbers, and a campaign's record file is re-parsed and its
percentages recomputed from its own columns.  Every check returns a list of
failure reasons; an empty list means the output passed.
"""

from __future__ import annotations

import bisect
import csv
import hashlib
import io

import numpy as np

# The acceptance suite's evaluator/oracle tolerance on energy.
ENERGY_REL_TOL = 1e-9

# Random permutations scored to place an instance's reference box.
REFERENCE_SAMPLES = 64

RECORD_FIELDS = ["problem", "dataset", "ft1", "ec1", "ft2", "ec2", "pct_ft", "pct_ec"]


def dominates(a, b) -> bool:
    """(flowtime, energy) pair `a` is no worse in both and better in one."""
    return a[0] <= b[0] and a[1] <= b[1] and (a[0] < b[0] or a[1] < b[1])


def check_front(front, instance, oracle, kappa) -> list[str]:
    """`front` is a list of (perm, flowtime, energy) triples as returned."""
    reasons: list[str] = []
    if not front:
        return ["empty front"]
    n = instance.n_jobs
    for k, (perm, flowtime, energy) in enumerate(front):
        if sorted(perm) != list(range(n)) or not all(type(j) is int for j in perm):
            reasons.append(f"point {k}: sequence is not a permutation of {n} jobs")
            continue
        ref = oracle(instance, perm, kappa)
        if flowtime != ref.flowtime:
            reasons.append(f"point {k}: flowtime {flowtime} != oracle {ref.flowtime}")
        if abs(energy - ref.energy) > ENERGY_REL_TOL * max(abs(ref.energy), 1.0):
            reasons.append(f"point {k}: energy {energy!r} != oracle {ref.energy!r}")
    pairs = [(ft, en) for _, ft, en in front]
    if len(set(pairs)) != len(pairs):
        reasons.append("duplicate objective pairs")
    if pairs != sorted(pairs):
        reasons.append("front not sorted by (flowtime, energy)")
    for i, a in enumerate(pairs):
        for j, b in enumerate(pairs):
            if i != j and dominates(a, b):
                reasons.append(f"point {i} dominates point {j}")
    return reasons


def check_records(text: str, problem: str, n_blocks: int) -> list[str]:
    """A `bench` record file: one row per block, ordered extremes and
    percentage columns that recompute to two decimals."""
    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        return [f"records do not parse: {exc}"]
    if not rows or rows[0] != RECORD_FIELDS:
        return ["records header mismatch"]
    body = rows[1:]
    if [row[:2] for row in body] != [[problem, str(k)] for k in range(1, n_blocks + 1)]:
        return [f"expected one record per block 1..{n_blocks} of {problem}"]
    reasons = []
    for k, row in enumerate(body, start=1):
        if len(row) != len(RECORD_FIELDS):
            reasons.append(f"record {k}: {len(row)} columns")
            continue
        try:
            ft1, ec1, ft2, ec2 = int(row[2]), float(row[3]), int(row[4]), float(row[5])
        except ValueError:
            reasons.append(f"record {k}: malformed values")
            continue
        if not (ft1 <= ft2 and ec2 <= ec1):
            reasons.append(f"record {k}: extremes out of order")
        if ft1 <= 0 or ec1 <= 0:
            reasons.append(f"record {k}: non-positive reference point")
            continue
        if row[6] != f"{100.0 * (ft2 - ft1) / ft1:.2f}":
            reasons.append(f"record {k}: pct_ft {row[6]} does not recompute")
        if row[7] != f"{100.0 * (ec1 - ec2) / ec1:.2f}":
            reasons.append(f"record {k}: pct_ec {row[7]} does not recompute")
    return reasons


def record_extremes(text: str) -> list[tuple[tuple[int, float], tuple[int, float]]]:
    """((ft1, ec1), (ft2, ec2)) per row of a record file that passed checking."""
    rows = list(csv.DictReader(io.StringIO(text)))
    return [
        ((int(r["ft1"]), float(r["ec1"])), (int(r["ft2"]), float(r["ec2"])))
        for r in rows
    ]


def front_fingerprint(front) -> str:
    """sha256 over each point's sequence, flowtime and repr(energy), in order."""
    h = hashlib.sha256()
    for perm, flowtime, energy in front:
        h.update(f"{'-'.join(map(str, perm))};{flowtime};{energy!r}\n".encode())
    return h.hexdigest()


def bytes_fingerprint(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def reference_point(instance, oracle, kappa) -> tuple[int, float]:
    """Worst flowtime and worst energy over a sample of random permutations,
    scored by the oracle.  The sample's seed comes from the instance data, so
    the box depends on the inputs alone."""
    digest = hashlib.sha256(repr((instance.proc_time, instance.fixed_power)).encode())
    rng = np.random.default_rng(int.from_bytes(digest.digest()[:8], "big"))
    worst_ft, worst_en = 0, 0.0
    for _ in range(REFERENCE_SAMPLES):
        perm = tuple(int(j) for j in rng.permutation(instance.n_jobs))
        obj = oracle(instance, perm, kappa)
        worst_ft = max(worst_ft, obj.flowtime)
        worst_en = max(worst_en, obj.energy)
    return worst_ft, worst_en


def hypervolume(points, ref) -> float:
    """2-D hypervolume of (flowtime, energy) points inside the box spanned by
    the origin and `ref`, as a share of the box (Zitzler & Thiele 1999)."""
    rf, re = ref
    area = 0.0
    ceiling = re
    for ft, en in sorted(p for p in points if p[0] < rf and p[1] < re):
        if en < ceiling:
            area += (rf - ft) * (ceiling - en)
            ceiling = en
    return area / (rf * re)


def records_text(problem: str, extremes) -> str:
    """A record file in the `bench` layout for (ft1, ec1, ft2, ec2) rows."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(RECORD_FIELDS)
    for k, (ft1, ec1, ft2, ec2) in enumerate(extremes, start=1):
        writer.writerow([
            problem, k, ft1, repr(ec1), ft2, repr(ec2),
            f"{100.0 * (ft2 - ft1) / ft1:.2f}", f"{100.0 * (ec1 - ec2) / ec1:.2f}",
        ])
    return buf.getvalue()


def self_test(instance, front, records, oracle, kappa, seed: int) -> dict[str, bool]:
    """Show the gate is not vacuous: the true outputs pass, and a front with
    one flowtime off by 1, a front with an added dominated point and a record
    row with a wrong percentage each fail.  `records` is (text, problem,
    blocks), or None to build a one-row file from the front's extremes."""
    if records is None:
        (_, ft1, ec1), (_, ft2, ec2) = front[0], min(front, key=lambda p: (p[2], p[1]))
        records = (records_text("selftest", [(ft1, ec1, ft2, ec2)]), "selftest", 1)
    text, problem, n_blocks = records

    perm, flowtime, energy = front[0]
    off_by_one = [(perm, flowtime + 1, energy)] + front[1:]

    pairs = [(ft, en) for _, ft, en in front]
    rng = np.random.default_rng(seed)
    with_dominated = None
    for _ in range(1000):
        extra = tuple(int(j) for j in rng.permutation(instance.n_jobs))
        obj = oracle(instance, extra, kappa)
        point = (obj.flowtime, obj.energy)
        if point not in pairs and any(dominates(p, point) for p in pairs):
            at = bisect.bisect(pairs, point)
            with_dominated = front[:at] + [(extra, *point)] + front[at:]
            break

    header, first, *rest = text.splitlines(keepends=True)
    cols = first.rstrip("\r\n").split(",")
    cols[6] = f"{float(cols[6]) + 0.01:.2f}"
    wrong_pct = header + ",".join(cols) + first[len(first.rstrip("\r\n")):] + "".join(rest)

    return {
        "accepts_true_front": not check_front(front, instance, oracle, kappa),
        "accepts_true_records": not check_records(text, problem, n_blocks),
        "rejects_flowtime_off_by_one": bool(check_front(off_by_one, instance, oracle, kappa)),
        "rejects_dominated_point": with_dominated is not None
        and bool(check_front(with_dominated, instance, oracle, kappa)),
        "rejects_wrong_percentage": bool(check_records(wrong_pct, problem, n_blocks)),
    }
