import json
import shlex
from pathlib import Path

import pytest

from greenflowshop.cli import _HANDLERS, _build_parser, _config, cli
from greenflowshop.harness import (
    BenchTask,
    read_bench_csv,
    run_benchmark,
    verify_front_csv,
    write_bench_csv,
    write_front_csv,
)
from greenflowshop.instance import (
    format_instance,
    generate_instance,
    load_instance,
    load_table3,
    taillard_instance,
)
from greenflowshop.nsga2 import RunConfig, evolve

README = Path(__file__).resolve().parent.parent / "README.md"


def run(argv):
    return cli(argv)


class TestDefaults:
    def test_solver_defaults(self):
        args = _build_parser().parse_args(["solve", "--instance", "table3"])
        cfg = _config(args)
        assert (cfg.pop_size, cfg.generations) == (200, 50)
        assert (cfg.p_crossover, cfg.p_mutation) == (0.6, 0.05)
        assert cfg.ls_enabled
        assert args.powers == "table9"
        assert _build_parser().parse_args(["bench", "table3"]).runs == 10

    def test_ls_off(self):
        args = _build_parser().parse_args(["solve", "--instance", "table3", "--ls", "off"])
        assert not _config(args).ls_enabled


# Flags a subcommand does not read are not accepted by it.
_UNREAD_FLAGS = {
    "generate": ("--pop", "--gen", "--pc", "--pm", "--ls", "--runs", "--kappa", "--powers"),
    "solve": ("--runs",),
    "tune": ("--pop", "--gen", "--pc", "--pm", "--runs"),
    "report": ("--pop", "--gen", "--pc", "--pm", "--seed", "--ls", "--runs", "--kappa",
               "--powers"),
}
_MINIMAL_ARGV = {
    "generate": ["generate", "--jobs", "2", "--machines", "2"],
    "solve": ["solve", "--instance", "table3"],
    "tune": ["tune"],
    "report": ["report", "--records", "records.csv"],
}


class TestFlags:
    @pytest.mark.parametrize("command,flag", [
        (command, flag) for command, flags in _UNREAD_FLAGS.items() for flag in flags
    ])
    def test_unread_flag_is_usage_error(self, monkeypatch, command, flag):
        monkeypatch.setitem(_HANDLERS, command, lambda args: 0)
        assert run(_MINIMAL_ARGV[command]) == 0
        value = {"--ls": "on", "--powers": "table9"}.get(flag, "1")
        assert run(_MINIMAL_ARGV[command] + [flag, value]) == 1


def _readme_commands() -> list[str]:
    commands, fenced = [], False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and line.startswith("greenflowshop "):
            commands.append(line)
    return commands


class TestReadme:
    def test_every_subcommand_documented(self):
        assert {shlex.split(line)[1] for line in _readme_commands()} == set(_HANDLERS)

    @pytest.mark.parametrize("line", _readme_commands())
    def test_command_parses(self, line):
        try:
            _build_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


class TestGenerate:
    def test_writes_loadable_instance(self, tmp_path):
        out = tmp_path / "inst.txt"
        assert run(["generate", "--jobs", "6", "--machines", "3",
                    "--seed", "4", "--out", str(out)]) == 0
        inst = load_instance(out)
        assert inst.n_jobs == 6 and inst.n_machines == 3
        assert inst == generate_instance(6, 3, 4)

    def test_stdout_without_out(self, capsys):
        assert run(["generate", "--jobs", "2", "--machines", "2", "--seed", "1"]) == 0
        text = capsys.readouterr().out
        assert text == format_instance(generate_instance(2, 2, 1))


class TestSolve:
    def test_table3_front_csv(self, tmp_path):
        out = tmp_path / "front.csv"
        code = run(["solve", "--instance", "table3", "--seed", "7",
                    "--pop", "16", "--gen", "4", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "sequence,flowtime,energy_whr"
        assert len(lines) > 1
        assert verify_front_csv(out, load_table3())

    def test_json_mirror(self, tmp_path):
        out = tmp_path / "front.csv"
        mirror = tmp_path / "front.json"
        run(["solve", "--instance", "table3", "--seed", "7", "--pop", "16",
             "--gen", "3", "--out", str(out), "--json", str(mirror)])
        payload = json.loads(mirror.read_text())
        assert len(payload) == len(out.read_text().strip().splitlines()) - 1

    def test_native_instance_file(self, tmp_path):
        inst_path = tmp_path / "toy.txt"
        inst_path.write_text("2 2\n3 4\n2 5\n600 1200\n")
        out = tmp_path / "front.csv"
        code = run(["solve", "--instance", str(inst_path), "--pop", "4",
                    "--gen", "3", "--seed", "1", "--out", str(out)])
        assert code == 0
        assert out.read_text().strip().splitlines()[1] == "2-1,18,40.0"

    def test_taillard_instance_file(self, tmp_path):
        path = tmp_path / "tai.txt"
        path.write_text("jobs machines seed ub lb:\n2 2 9 0 0\ntimes:\n3 2\n4 5\n")
        out = tmp_path / "front.csv"
        code = run(["solve", "--instance", str(path), "--pop", "4", "--gen", "3",
                    "--seed", "1", "--powers", "table9", "--out", str(out)])
        assert code == 0

    def test_powers_from_file(self, tmp_path):
        path = tmp_path / "tai.txt"
        path.write_text("2 2 9 0 0\ntimes:\n3 2\n4 5\n")
        powers = tmp_path / "powers.txt"
        powers.write_text("600 1200\n")
        out = tmp_path / "front.csv"
        code = run(["solve", "--instance", str(path), "--powers", str(powers),
                    "--pop", "4", "--gen", "3", "--seed", "1", "--out", str(out)])
        assert code == 0
        assert out.read_text().strip().splitlines()[1] == "2-1,18,40.0"

    def test_short_powers_file_is_contract_error(self, tmp_path):
        path = tmp_path / "tai.txt"
        path.write_text("2 2 9 0 0\ntimes:\n3 2\n4 5\n")
        powers = tmp_path / "powers.txt"
        powers.write_text("600\n")
        assert run(["solve", "--instance", str(path), "--powers", str(powers),
                    "--pop", "4", "--gen", "2", "--seed", "1"]) == 3

    def test_index_picks_from_builtin_set(self, tmp_path):
        out = tmp_path / "front.csv"
        code = run(["solve", "--instance", "ta20x5", "--index", "3", "--pop", "4",
                    "--gen", "1", "--ls", "off", "--out", str(out)])
        assert code == 0
        front = evolve(taillard_instance(20, 5, 3), RunConfig(4, 1, ls_enabled=False))
        expected = tmp_path / "expected.csv"
        write_front_csv(expected, front)
        assert out.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("instance,index", [("table3", 2), ("ta20x5", 11), ("ta20x5", 0)])
    def test_index_outside_set_is_contract_error(self, instance, index):
        assert run(["solve", "--instance", instance, "--index", str(index)]) == 3

    def test_missing_file_is_io_error(self, tmp_path):
        assert run(["solve", "--instance", str(tmp_path / "nope.txt")]) == 2

    def test_malformed_file_is_contract_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 2\n3 4\n")  # truncated body
        assert run(["solve", "--instance", str(bad)]) == 3

    def test_malformed_native_file_reports_native_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("3 2\n4 9\n3 x\n3 5\n900 1100\n")
        assert run(["solve", "--instance", str(bad), "--pop", "4", "--gen", "1"]) == 3
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("kappa", ["0", "-1", "nan", "inf"])
    def test_kappa_not_positive_and_finite_is_contract_error(self, kappa, capsys):
        assert run(["solve", "--instance", "table3", "--pop", "4", "--gen", "1",
                    "--kappa", kappa]) == 3
        assert "kappa" in capsys.readouterr().err


class TestBench:
    def test_requires_instances(self, capsys):
        assert run(["bench"]) == 1

    def test_unknown_flag_usage_error(self):
        assert run(["bench", "--frobnicate"]) == 1

    def test_native_file_end_to_end(self, tmp_path):
        inst_path = tmp_path / "toy2x2.txt"
        inst_path.write_text("2 2\n3 4\n2 5\n600 1200\n")
        out = tmp_path / "bench.csv"
        mirror = tmp_path / "bench.json"
        code = run(["bench", str(inst_path), "--pop", "4", "--gen", "2",
                    "--runs", "2", "--seed", "3", "--out", str(out),
                    "--json", str(mirror)])
        assert code == 0
        records = read_bench_csv(out)
        assert len(records) == 1
        assert records[0].problem == "toy2x2"
        assert (records[0].ft1, records[0].ec2) == (18, 40.0)
        assert json.loads(mirror.read_text())[0]["ft1"] == 18

    def test_taillard_file_all_blocks(self, tmp_path):
        block = "2 2 9 0 0\ntimes:\n3 2\n4 5\n"
        path = tmp_path / "pair.txt"
        path.write_text("header:\n" + block + "header:\n" + block)
        out = tmp_path / "bench.csv"
        code = run(["bench", str(path), "--pop", "4", "--gen", "2", "--runs", "1",
                    "--seed", "3", "--out", str(out)])
        assert code == 0
        records = read_bench_csv(out)
        assert [r.dataset for r in records] == [1, 2]

    @pytest.mark.parametrize("text", [
        "3 1\n4\n2\n5\n900\n",
        "3 2\n0 4\n0 2\n0 5\n900 700\n",
    ], ids=["one-machine", "zero-first-machine-times"])
    def test_zero_energy_front_gives_zero_percentages(self, tmp_path, text):
        inst_path = tmp_path / "flat.txt"
        inst_path.write_text(text)
        out = tmp_path / "bench.csv"
        code = run(["bench", str(inst_path), "--pop", "4", "--gen", "1",
                    "--runs", "2", "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 2 and rows[1].endswith(",0.0,0.00,0.00")

    def test_missing_file(self, tmp_path):
        assert run(["bench", str(tmp_path / "absent.txt")]) == 2

    def test_builtin_ta20x5_set(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = run(["bench", "ta20x5", "--pop", "4", "--gen", "1", "--runs", "1",
                    "--seed", "0", "--out", str(out)])
        assert code == 0
        tasks = [BenchTask("Ta20x5", k, taillard_instance(20, 5, k)) for k in range(1, 11)]
        expected = tmp_path / "expected.csv"
        write_bench_csv(expected, run_benchmark(tasks, RunConfig(4, 1, seed=0), 1))
        assert out.read_bytes() == expected.read_bytes()


class TestReport:
    def test_round_trip(self, tmp_path):
        inst_path = tmp_path / "toy.txt"
        inst_path.write_text("2 2\n3 4\n2 5\n600 1200\n")
        bench_csv = tmp_path / "bench.csv"
        run(["bench", str(inst_path), "--pop", "4", "--gen", "2", "--runs", "1",
             "--seed", "3", "--out", str(bench_csv)])
        agg = tmp_path / "agg.csv"
        assert run(["report", "--records", str(bench_csv), "--out", str(agg)]) == 0
        lines = agg.read_text().strip().splitlines()
        assert lines[0] == "problem,avg_pct_ft,avg_pct_ec"
        assert lines[-1].startswith("overall,")

    def test_missing_records_file(self, tmp_path):
        assert run(["report", "--records", str(tmp_path / "none.csv")]) == 2


class TestTune:
    def test_small_campaign_writes_tables(self, tmp_path):
        inst_path = tmp_path / "tiny.txt"
        inst_path.write_text("3 2\n4 9\n7 2\n3 5\n900 1100\n")
        prefix = tmp_path / "camp"
        code = run(["tune", "--instance", str(inst_path), "--seed", "2",
                    "--ls", "off", "--out", str(prefix)])
        assert code == 0
        for response in ("flowtime", "energy"):
            rows = (tmp_path / f"camp_{response}_responses.csv").read_text().strip().splitlines()
            assert rows[0] == "gen,pop,crossover,mutation,response"
            assert len(rows) == 17
            table = (tmp_path / f"camp_{response}_table.csv").read_text().strip().splitlines()
            assert table[0] == "level,gen,pop,crossover,mutation"
            assert len(table) == 7
