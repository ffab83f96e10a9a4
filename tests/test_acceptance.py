"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with `pytest -s` to see them).  Tolerances and budgets
are pinned here and nowhere else."""

import itertools
import random
import time
from dataclasses import replace


from greenflowshop.harness import average_pcts, make_record, percent_diffs
from greenflowshop.instance import Instance, load_table3, taillard_instance
from greenflowshop.localsearch import (
    neighbour,
    op_neighborhood,
    op_reversion,
    op_swap,
    vnd_explore,
)
from greenflowshop.nsga2 import RunConfig, evolve, order_crossover, swap_mutation
from greenflowshop.objectives import Objectives, evaluate, simulate_oracle
from greenflowshop.pareto import Individual, crowding_distance, dominates, fast_nondominated_sort
from greenflowshop.seeding import Draws
from greenflowshop.tuning import response_table
from support import (
    EC_RANKS,
    EC_RESPONSES,
    EC_TABLE,
    FT_RANKS,
    FT_RESPONSES,
    FT_TABLE,
    GROUP_PCTS,
    OVERALL_AVERAGES,
    SUMMARY_ROWS,
    naive_front_peel,
    random_instance,
)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_evaluator_oracle_equivalence():
    rng = random.Random(20240501)
    start = time.perf_counter()
    checked = 0
    for _ in range(500):
        inst = random_instance(rng, rng.randint(1, 8), rng.randint(1, 5))
        for _ in range(10):
            perm = tuple(rng.sample(range(inst.n_jobs), inst.n_jobs))
            a = evaluate(inst, perm)
            b = simulate_oracle(inst, perm)
            assert a.flowtime == b.flowtime
            assert abs(a.energy - b.energy) <= 1e-9 * max(abs(b.energy), 1.0)
            checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 5000 and elapsed < 5.0
    report("1 evaluator-oracle equivalence", ok,
           f"{checked} evaluations agree, {elapsed:.2f}s < 5s")
    assert ok


def test_criterion_2_worked_example_exact():
    inst = Instance.from_matrix([[3, 4], [2, 5]], [600, 1200])
    first = evaluate(inst, (0, 1))
    second = evaluate(inst, (1, 0))
    ok = (
        first == (19, 60.0)
        and second == (18, 40.0)
        and simulate_oracle(inst, (0, 1)) == (19, 60.0)
        and simulate_oracle(inst, (1, 0)) == (18, 40.0)
        and dominates(second, first)
        and not dominates(first, second)
    )
    report("2 worked example", ok, f"{tuple(first)} / {tuple(second)}, dominance holds")
    assert ok


def test_criterion_3_sorting_oracle():
    rng = random.Random(7)
    start = time.perf_counter()
    for _ in range(200):
        points = [
            (rng.randint(0, 40), rng.randint(0, 40))
            for _ in range(rng.randint(1, 64))
        ]
        pop = [Individual((0,), Objectives(ft, float(ec))) for ft, ec in points]
        fronts = fast_nondominated_sort(pop)
        got = [sorted(id(m) for m in front) for front in fronts]
        want = [
            sorted(id(pop[k]) for k in layer) for layer in naive_front_peel(points)
        ]
        assert got == want
    elapsed = time.perf_counter() - start
    ok = elapsed < 2.0
    report("3 sorting oracle", ok, f"200 populations match peeling, {elapsed:.2f}s < 2s")
    assert ok


def test_criterion_4_reference_instance_stochastic():
    instance = load_table3()
    seeds = range(10)
    ft_mins, ec_mins, durations = [], [], []
    for seed in seeds:
        t0 = time.perf_counter()
        front = evolve(instance, RunConfig(seed=seed))
        durations.append(time.perf_counter() - t0)
        ft_mins.append(min(ind.obj.flowtime for ind in front))
        ec_mins.append(min(ind.obj.energy for ind in front))
    ft915 = sum(ft <= 915 for ft in ft_mins)
    ft912 = sum(ft <= 912 for ft in ft_mins)
    ec1210 = sum(ec <= 1210 for ec in ec_mins)
    ec1160 = sum(ec <= 1160 for ec in ec_mins)
    ok = (
        ft915 >= 8 and ft912 >= 5 and ec1210 >= 8 and ec1160 >= 5
        and max(durations) < 60.0
    )
    report(
        "4 reference-instance reproduction", ok,
        f"FT<=915: {ft915}/10, FT<=912: {ft912}/10, EC<=1210: {ec1210}/10, "
        f"EC<=1160: {ec1160}/10, slowest run {max(durations):.1f}s < 60s",
    )
    assert ok, (ft_mins, ec_mins)


def test_criterion_5_tuning_analytics_golden():
    ft = response_table(FT_RESPONSES)
    ec = response_table(EC_RESPONSES)
    ok = True
    for factor, expected in FT_TABLE.items():
        for got, want in zip(ft.means[factor], expected):
            ok = ok and abs(got - want) <= 0.1
    ok = ok and ft.delta["pop"] == 8.5 and ft.rank == FT_RANKS
    for factor, expected in EC_TABLE.items():
        for got, want in zip(ec.means[factor], expected):
            ok = ok and abs(got - want) <= 0.5
    ok = ok and abs(ec.delta["mutation"] - 127) <= 0.5 and ec.rank == EC_RANKS
    report("5 tuning analytics golden", ok,
           "flowtime means within 0.1, energy within 0.5, delta/rank exact")
    assert ok


def test_criterion_6_percent_diff_golden():
    ok = True
    for problem, ft1, ec1, ft2, ec2, want_ft, want_ec in SUMMARY_ROWS:
        pct_ft, pct_ec = percent_diffs(ft1, ec1, ft2, ec2)
        ok = ok and abs(round(pct_ft, 2) - want_ft) <= 0.01
        ok = ok and abs(round(pct_ec, 2) - want_ec) <= 0.01
    for problem, (pcts, want) in GROUP_PCTS.items():
        got = average_pcts(pcts)
        ok = ok and abs(got[0] - want[0]) <= 0.01 and abs(got[1] - want[1]) <= 0.01
    for group, want in OVERALL_AVERAGES.items():
        got = average_pcts([GROUP_PCTS[problem][1] for problem in group])
        ok = ok and abs(got[0] - want[0]) <= 0.01 and abs(got[1] - want[1]) <= 0.01
    report("6 percent-diff golden", ok,
           f"{len(SUMMARY_ROWS)} summary rows and 12 average rows within 0.01")
    assert ok


def test_criterion_7_benchmark_properties():
    instance = taillard_instance(20, 5, 1)
    start = time.perf_counter()
    paired_wins = 0
    records = []
    internal_ok = True
    for seed in range(10):
        config = RunConfig(seed=seed)
        front_on = evolve(instance, config)
        front_off = evolve(instance, replace(config, ls_enabled=False))
        for front in (front_on, front_off):
            for a, b in itertools.combinations(front, 2):
                if dominates(a.obj, b.obj) or dominates(b.obj, a.obj):
                    internal_ok = False
        records.append(make_record("Ta20x5", seed + 1, front_on))
        records.append(make_record("Ta20x5-noLS", seed + 1, front_off))
        ft_on = min(i.obj.flowtime for i in front_on)
        ec_on = min(i.obj.energy for i in front_on)
        ft_off = min(i.obj.flowtime for i in front_off)
        ec_off = min(i.obj.energy for i in front_off)
        paired_wins += ft_on <= ft_off and ec_on <= ec_off
    ordering_ok = all(r.ft1 <= r.ft2 and r.ec2 <= r.ec1 for r in records)
    elapsed = time.perf_counter() - start
    ok = internal_ok and ordering_ok and paired_wins >= 7 and elapsed < 600.0
    report(
        "7 benchmark properties", ok,
        f"fronts non-dominated: {internal_ok}, extreme ordering: {ordering_ok}, "
        f"descent wins {paired_wins}/10 paired seeds, {elapsed:.0f}s < 600s",
    )
    assert ok


def test_criterion_8_property_suites():
    draws = Draws(2024)  # replayed draws, as in the solver
    py = random.Random(2024)

    def is_perm(p, n):
        return sorted(p) == list(range(n))

    applications = 0
    for _ in range(15000):  # order crossover: two children per call
        n = py.randint(2, 10)
        pa = tuple(py.sample(range(n), n))
        pb = tuple(py.sample(range(n), n))
        ca, cb = order_crossover(pa, pb, draws)
        assert is_perm(ca, n) and is_perm(cb, n)
        applications += 2
    for _ in range(20000):
        n = py.randint(2, 10)
        p = tuple(py.sample(range(n), n))
        assert is_perm(swap_mutation(p, draws), n)
        applications += 1
    base = tuple(range(9))
    for _ in range(10000):
        for move in op_swap(base, draws):
            assert is_perm(neighbour(base, move)[1], 9)
        for move in op_reversion(base, draws):
            assert is_perm(neighbour(base, move)[1], 9)
        applications += 4
    for _ in range(1000):
        for move in op_neighborhood(base, draws):
            assert is_perm(neighbour(base, move)[1], 9)
        applications += 10

    vnd_checked = 0
    for _ in range(1000):
        inst = random_instance(py, 3, py.randint(1, 3))
        table = {
            perm: evaluate(inst, perm)
            for perm in itertools.permutations(range(3))
        }
        perm = py.choice(list(table))
        start_ind = Individual(perm, table[perm])
        best = vnd_explore(start_ind, inst, 15, draws)[0]
        assert best.obj == table[best.perm]  # brute-force value agreement
        assert best.perm == perm or dominates(best.obj, table[perm])
        assert not dominates(table[perm], best.obj)
        vnd_checked += 1

    for points in ([(3, 3)], [(1, 2), (2, 1)], [(5, 5), (5, 5)]):
        front = [Individual((0,), Objectives(ft, float(ec))) for ft, ec in points]
        crowding_distance(front)
        assert all(ind.crowding == float("inf") for ind in front)

    ok = applications >= 100000 and vnd_checked == 1000
    report(
        "8 property suites", ok,
        f"{applications} closure applications, {vnd_checked} descent contracts "
        "against full enumeration, boundary crowding infinite",
    )
    assert ok
