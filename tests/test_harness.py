import json
from dataclasses import replace

import pytest

from greenflowshop import harness as harness_module
from greenflowshop.harness import (
    BenchRecord,
    BenchTask,
    aggregate_records,
    average_pcts,
    extreme_points,
    merge_fronts,
    percent_diffs,
    read_bench_csv,
    run_benchmark,
    solve_runs,
    write_bench_csv,
    write_bench_json,
    write_front_csv,
    write_front_json,
)
from greenflowshop.instance import Instance
from greenflowshop.nsga2 import RunConfig, evolve
from greenflowshop.objectives import Objectives
from greenflowshop.pareto import Individual, dominates
from greenflowshop.seeding import STREAM_BENCH, STREAM_TUNING, child_seed

from support import (
    GROUP_PCTS,
    OVERALL_AVERAGES,
    REFERENCE_FRONT,
    SUMMARY_ROWS,
    read_front_csv,
    verify_front_csv,
)

TOY = Instance.from_matrix([[3, 4], [2, 5]], [600, 1200])


def front_of(points):
    return [Individual((0,), Objectives(ft, float(ec))) for ft, ec in points]


class TestExtremePoints:
    def test_reference_front(self):
        ft_best, ec_best = extreme_points(front_of(REFERENCE_FRONT))
        assert (ft_best.obj.flowtime, ft_best.obj.energy) == (909, 1348.7)
        assert (ec_best.obj.flowtime, ec_best.obj.energy) == (932, 1145.8)

    def test_singleton(self):
        ft_best, ec_best = extreme_points(front_of([(5, 9)]))
        assert ft_best is ec_best

    def test_flowtime_tie_prefers_lower_energy(self):
        ft_best, _ = extreme_points(front_of([(5, 9), (5, 7), (8, 1)]))
        assert ft_best.obj.energy == 7.0

    def test_empty_front(self):
        with pytest.raises(ValueError):
            extreme_points([])


class TestPercentDiffs:
    @pytest.mark.parametrize("problem,ft1,ec1,ft2,ec2,pct_ft,pct_ec", SUMMARY_ROWS)
    def test_published_rows(self, problem, ft1, ec1, ft2, ec2, pct_ft, pct_ec):
        got_ft, got_ec = percent_diffs(ft1, ec1, ft2, ec2)
        assert round(got_ft, 2) == pytest.approx(pct_ft, abs=0.01)
        assert round(got_ec, 2) == pytest.approx(pct_ec, abs=0.01)

    def test_no_change(self):
        assert percent_diffs(10, 10, 10, 10) == (0.0, 0.0)
        assert percent_diffs(11, 0.0, 11, 0.0) == (0.0, 0.0)  # zero-energy one-point front

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            percent_diffs(0, 10, 10, 10)
        with pytest.raises(ValueError):
            percent_diffs(10, 0, 10, 10)


class TestAggregation:
    @pytest.mark.parametrize("problem", list(GROUP_PCTS))
    def test_group_averages(self, problem):
        pcts, expected = GROUP_PCTS[problem]
        got = average_pcts(pcts)
        assert got[0] == pytest.approx(expected[0], abs=0.01)
        assert got[1] == pytest.approx(expected[1], abs=0.01)

    @pytest.mark.parametrize("group,expected", OVERALL_AVERAGES.items())
    def test_overall_averages(self, group, expected):
        records = [
            BenchRecord(problem, k + 1, 1, 1.0, 1, 1.0, pct_ft, pct_ec)
            for problem in group
            for k, (pct_ft, pct_ec) in enumerate(GROUP_PCTS[problem][0])
        ]
        rows = aggregate_records(records)
        assert rows[-1][0] == "overall"
        assert rows[-1][1] == pytest.approx(expected[0], abs=0.01)
        assert rows[-1][2] == pytest.approx(expected[1], abs=0.01)

    def test_empty_average_rejected(self):
        with pytest.raises(ValueError):
            average_pcts([])


class TestMergeFronts:
    def test_union_is_nondominated_superset_filter(self):
        run_a = front_of([(10, 5), (12, 3)])
        run_b = front_of([(11, 4), (9, 9), (12, 3)])
        merged = merge_fronts([run_a, run_b])
        objs = [(i.obj.flowtime, i.obj.energy) for i in merged]
        assert objs == [(9, 9.0), (10, 5.0), (11, 4.0), (12, 3.0)]
        for a in merged:
            assert not any(
                dominates(b.obj, a.obj) for b in run_a + run_b
            )

    def test_duplicates_collapsed(self):
        merged = merge_fronts([front_of([(1, 1)]), front_of([(1, 1)])])
        assert len(merged) == 1

    def test_empty(self):
        assert merge_fronts([]) == []


class TestSolveRuns:
    def test_fronts_come_lazily_in_run_order(self, table3, monkeypatch):
        solved = []

        def recorded_evolve(instance, config):
            solved.append((instance, config.seed))
            return evolve(instance, config)

        monkeypatch.setattr(harness_module, "evolve", recorded_evolve)
        config = RunConfig(pop_size=6, generations=2, seed=11)
        runs = [(TOY, config, (STREAM_BENCH, 0, 0)),
                (table3, replace(config, seed=3), (STREAM_BENCH, 1, 0)),
                (TOY, config, (STREAM_TUNING, 2))]
        fronts = solve_runs(runs)
        assert solved == []  # nothing runs before the first front is asked for
        for k, (instance, run_config, key) in enumerate(runs):
            front = next(fronts)
            seed = child_seed(run_config.seed, *key)
            assert solved[k:] == [(instance, seed)]
            expected = evolve(instance, replace(run_config, seed=seed))
            assert [(i.perm, i.obj) for i in front] == [(i.perm, i.obj) for i in expected]
        assert next(fronts, None) is None


class TestRunBenchmark:
    def test_toy_instance_single_record(self):
        tasks = [BenchTask("toy2x2", 1, TOY)]
        config = RunConfig(pop_size=4, generations=3, seed=5)
        records = run_benchmark(tasks, config, repeats=1)
        rec = records[0]
        assert (rec.ft1, rec.ec1, rec.ft2, rec.ec2) == (18, 40.0, 18, 40.0)
        assert rec.pct_ft == 0.0 and rec.pct_ec == 0.0

    def test_deterministic_report(self):
        tasks = [BenchTask("toy2x2", 1, TOY)]
        config = RunConfig(pop_size=4, generations=2, seed=77)
        a = run_benchmark(tasks, config, repeats=3)
        b = run_benchmark(tasks, config, repeats=3)
        assert a == b

    def test_extremes_ordered(self, table3):
        tasks = [BenchTask("ref15x5", 1, table3)]
        config = RunConfig(pop_size=16, generations=4, seed=1)
        rec = run_benchmark(tasks, config, repeats=2)[0]
        assert rec.ft1 <= rec.ft2
        assert rec.ec2 <= rec.ec1
        assert rec.pct_ft >= 0 and rec.pct_ec >= 0

    def test_progress_follows_each_run(self, monkeypatch):
        events = []

        def recorded_evolve(instance, config):
            events.append("solve")
            return evolve(instance, config)

        monkeypatch.setattr(harness_module, "evolve", recorded_evolve)
        tasks = [BenchTask("toy", 1, TOY), BenchTask("toy", 2, TOY)]
        run_benchmark(tasks, RunConfig(pop_size=4, generations=1, seed=2), 2,
                      on_progress=lambda task, r, total: events.append((task.dataset, r, total)))
        assert events == ["solve", (1, 1, 2), "solve", (1, 2, 2),
                          "solve", (2, 1, 2), "solve", (2, 2, 2)]

    def test_repeats_validated(self):
        with pytest.raises(ValueError):
            run_benchmark([BenchTask("t", 1, TOY)], RunConfig(), repeats=0)


class TestFrontFiles:
    def test_csv_round_trip_reevaluates(self, tmp_path, table3):
        front = evolve(table3, RunConfig(pop_size=12, generations=4, seed=8))
        path = tmp_path / "front.csv"
        write_front_csv(path, front)
        assert verify_front_csv(path, table3)
        rows = read_front_csv(path)
        assert len(rows) == len(front)
        for (perm, flowtime, energy), ind in zip(rows, front):
            assert perm == ind.perm
            assert flowtime == ind.obj.flowtime
            assert energy == ind.obj.energy

    def test_csv_header_and_sequence_format(self, tmp_path):
        front = [Individual((2, 0, 1), Objectives(19, 60.0))]
        path = tmp_path / "front.csv"
        write_front_csv(path, front)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "sequence,flowtime,energy_whr"
        assert lines[1] == "3-1-2,19,60.0"

    def test_json_mirrors_csv(self, tmp_path):
        front = [Individual((1, 0), Objectives(18, 40.0))]
        csv_path, json_path = tmp_path / "f.csv", tmp_path / "f.json"
        write_front_csv(csv_path, front)
        write_front_json(json_path, front)
        payload = json.loads(json_path.read_text())
        assert payload == [{"sequence": [2, 1], "flowtime": 18, "energy_whr": 40.0}]


class TestBenchFiles:
    def test_csv_round_trip(self, tmp_path):
        records = [
            BenchRecord("Ta20x5", 1, 14502, 13890.0, 14650, 12433.0, 1.0205, 10.4896),
            BenchRecord("Ta20x5", 2, 100, 50.0, 110, 40.0, 10.0, 20.0),
        ]
        path = tmp_path / "bench.csv"
        write_bench_csv(path, records)
        loaded = read_bench_csv(path)
        assert [(r.problem, r.dataset, r.ft1, r.ec1, r.ft2, r.ec2) for r in loaded] \
            == [(r.problem, r.dataset, r.ft1, r.ec1, r.ft2, r.ec2) for r in records]
        # percentages are reported at two decimals
        assert loaded[0].pct_ft == 1.02
        assert loaded[0].pct_ec == 10.49

    def test_json_mirrors_records(self, tmp_path):
        records = [BenchRecord("x", 1, 10, 5.0, 12, 4.0, 20.0, 20.0)]
        path = tmp_path / "bench.json"
        write_bench_json(path, records)
        payload = json.loads(path.read_text())
        assert payload[0]["problem"] == "x"
        assert payload[0]["pct_ft"] == 20.0
