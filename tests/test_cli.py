import csv
import hashlib
import json
import os
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

import greenflowshop
from greenflowshop import cli as cli_module
from greenflowshop import harness as harness_module
from greenflowshop import instance as instance_module
from greenflowshop import tuning
from greenflowshop.cli import _HANDLERS, _build_parser, _config, cli
from greenflowshop.harness import (
    BenchTask,
    read_bench_csv,
    run_benchmark,
    write_bench_csv,
    write_front_csv,
)
from greenflowshop.instance import (
    Instance,
    format_instance,
    generate_instance,
    load_table3,
    parse_instance,
    taillard_instance,
)
from greenflowshop.nsga2 import RunConfig, evolve
from greenflowshop.objectives import DEFAULT_KAPPA
from greenflowshop.seeding import STREAM_TUNING, child_seed
from support import verify_front_csv

README = Path(__file__).resolve().parent.parent / "README.md"
TOY = Instance.from_matrix([[3, 4], [2, 5]], [600, 1200])


def run(argv):
    return cli(argv)


def _no_solver(monkeypatch):
    """Make every `evolve` binding the CLI reaches, and `generate`'s
    `generate_instance`, fail the test if called."""
    def no_solve(*args, **kwargs):
        raise AssertionError("the solver ran")

    for module, name in ((cli_module, "evolve"), (harness_module, "evolve"),
                         (cli_module, "generate_instance")):
        monkeypatch.setattr(module, name, no_solve)


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

    @pytest.mark.parametrize("command", ["solve", "tune"])
    def test_index_documented(self, command, capsys):
        assert run([command, "--help"]) == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert "--index INDEX 1-based instance of a multi-instance set" in help_text


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


# sha256 of `generate`'s stdout: 60x20 at seed 3 draws 1,220 numbers, more
# than the 1,024 half-words of one pulled chunk; 1x1 at the default seed
# draws two.
_GENERATE_OUTPUTS = [
    (["--jobs", "60", "--machines", "20", "--seed", "3"],
     "218eab10696469cd33d4b65d5e333b21f1d3f34d0a58ee4ca60b3a6daa72d288"),
    (["--jobs", "1", "--machines", "1"],
     "8727a4eec223e3e1fa8843e6072ab990a4ebbebe9a1be2fde06563e89531ab9a"),
]


class TestGenerate:
    @pytest.mark.parametrize("argv, expected", _GENERATE_OUTPUTS, ids=["60x20", "1x1"])
    def test_output_bytes_pinned(self, capsys, argv, expected):
        assert run(["generate", *argv]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == expected

    def test_writes_loadable_instance(self, tmp_path):
        out = tmp_path / "inst.txt"
        assert run(["generate", "--jobs", "6", "--machines", "3",
                    "--seed", "4", "--out", str(out)]) == 0
        inst = parse_instance(out.read_text())
        assert inst.n_jobs == 6 and inst.n_machines == 3
        assert inst == generate_instance(6, 3, 4)

    def test_stdout_without_out(self, capsys):
        assert run(["generate", "--jobs", "2", "--machines", "2", "--seed", "1"]) == 0
        text = capsys.readouterr().out
        assert text == format_instance(generate_instance(2, 2, 1))


# sha256 of `solve`'s stdout (the output directory written as `{tmp}`) and
# of each file it writes: `table3`, which the hash-seed case below also
# runs in two subprocesses, and a generated 50x10 native shop with the
# descent on.  A flowtime printed as `123.0` in the CSV or the JSON
# changes them.
_SOLVE_OUTPUTS = {
    "table3": (
        ["--instance", "table3", "--pop", "20", "--gen", "10", "--seed", "3",
         "--json", "{tmp}/front.json"],
        {"stdout": "bc7085c09ddc49537ff805b07b1c681efb921387263ede9c496694539fe2fd5f",
         "front.json": "938e92ce288909d4257dda1ffffbbb5a46a3bbff24250b417b30588bae74384b"},
    ),
    "native-50x10": (
        ["--instance", "{tmp}/shop.txt", "--pop", "10", "--gen", "3", "--seed", "4",
         "--out", "{tmp}/front.csv", "--json", "{tmp}/front.json"],
        {"stdout": "8a33a6a3990941d5382c3da647c42265b0d1334917306e1ae712c43787629731",
         "front.csv": "f6ed3b962b37be0419319af4c5616c1afef5227ba0f79b56c41ab8a68f063369",
         "front.json": "3d24b4138b465a4b2c543a7a94caa573641178eb25fe05925caeded43773e9b1"},
    ),
}


class TestSolve:
    @pytest.mark.parametrize("case", _SOLVE_OUTPUTS)
    def test_output_bytes_pinned(self, tmp_path, capsys, case):
        argv, expected = _SOLVE_OUTPUTS[case]
        (tmp_path / "shop.txt").write_text(format_instance(generate_instance(50, 10, 11)))
        assert run(["solve", *(arg.replace("{tmp}", str(tmp_path)) for arg in argv)]) == 0
        got = {"stdout": capsys.readouterr().out.replace(str(tmp_path), "{tmp}").encode()}
        got.update((name, (tmp_path / name).read_bytes()) for name in expected if name != "stdout")
        assert {name: hashlib.sha256(data).hexdigest() for name, data in got.items()} == expected

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

    def test_bytes_do_not_depend_on_the_hash_seed(self, tmp_path):
        # string hashing is salted per process unless PYTHONHASHSEED fixes it,
        # so a set or dict order that leaked into a draw or an output row
        # would show here; the child imports this same package, and each
        # child's bytes must be the `table3` case's pins
        package_root = str(Path(greenflowshop.__file__).resolve().parent.parent)
        argv, expected = _SOLVE_OUTPUTS["table3"]
        for hash_seed in ("0", "12345"):
            work = tmp_path / hash_seed
            work.mkdir()
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=package_root)
            done = subprocess.run(
                [sys.executable, "-m", "greenflowshop.cli", "solve",
                 *(arg.replace("{tmp}", str(work)) for arg in argv)],
                cwd=work, env=env, capture_output=True, check=True)
            got = {"stdout": done.stdout.replace(str(work).encode(), b"{tmp}"),
                   "front.json": (work / "front.json").read_bytes()}
            assert {name: hashlib.sha256(data).hexdigest()
                    for name, data in got.items()} == expected, hash_seed

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

    @pytest.mark.parametrize("text", ["abc 800", "600 nan", "0 600", "-5 600", "600 inf"])
    def test_bad_power_names_file_and_value(self, tmp_path, capsys, text):
        path = tmp_path / "tai.txt"
        path.write_text("2 2 9 0 0\ntimes:\n3 2\n4 5\n")
        powers = tmp_path / "pw.txt"
        powers.write_text(text + "\n")
        assert run(["solve", "--instance", str(path), "--powers", str(powers),
                    "--pop", "4", "--gen", "1"]) == 3
        err = capsys.readouterr().err
        bad = next(tok for tok in text.split() if tok != "600")
        assert str(powers) in err and repr(bad) in err

    def test_builtin_set_takes_powers_from_file(self, tmp_path):
        powers = tmp_path / "pw.txt"
        powers.write_text("1 20 300 4000 50000\n")
        out = tmp_path / "front.csv"
        code = run(["solve", "--instance", "ta20x5", "--powers", str(powers), "--pop", "4",
                    "--gen", "1", "--ls", "off", "--out", str(out)])
        assert code == 0
        assert verify_front_csv(out, taillard_instance(20, 5, 1, (1, 20, 300, 4000, 50000)))

    def test_builtin_set_rejects_bad_power_file(self, tmp_path, capsys):
        powers = tmp_path / "pw.txt"
        powers.write_text("600 abc\n")
        assert run(["bench", "ta20x5", "--powers", str(powers), "--pop", "4", "--gen", "1",
                    "--runs", "1", "--out", str(tmp_path / "bench.csv")]) == 3
        assert str(powers) in capsys.readouterr().err
        assert not (tmp_path / "bench.csv").exists()

    @pytest.mark.parametrize("instance", ["table3", "native"])
    def test_own_power_instance_still_checks_power_file(self, tmp_path, capsys, instance):
        # table3 and native files keep their own ratings, but a bad or
        # missing power file is still an error before any solver work
        if instance == "native":
            instance = tmp_path / "toy.txt"
            instance.write_text(format_instance(TOY))
        out = tmp_path / "front.csv"
        argv = ["solve", "--instance", str(instance), "--pop", "4", "--gen", "1",
                "--out", str(out), "--powers"]
        bad = tmp_path / "pw.txt"
        bad.write_text("abc\n")
        assert run(argv + [str(bad)]) == 3
        assert str(bad) in capsys.readouterr().err
        assert run(argv + [str(tmp_path / "missing.txt")]) == 2
        assert not out.exists()

    def test_data_row_with_stray_letter_is_contract_error(self, tmp_path, capsys):
        path = tmp_path / "tai.txt"
        path.write_text("jobs machines seed ub lb :\n5 1 1 0 0\ntimes :\n1 2 3 4 5O\n"
                        "jobs machines seed ub lb :\n5 1 1 0 0\ntimes :\n1 2 3 4 5\n")
        assert run(["bench", str(path), "--pop", "4", "--gen", "1", "--runs", "1",
                    "--out", str(tmp_path / "bench.csv")]) == 3
        assert "line 4" in capsys.readouterr().err
        assert not (tmp_path / "bench.csv").exists()

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

    @pytest.mark.parametrize("index", [0, 3])
    def test_index_outside_taillard_file_is_contract_error(self, tmp_path, capsys, index):
        path = tmp_path / "pair.txt"
        path.write_text("header:\n2 2 9 0 0\ntimes:\n3 2\n4 5\n" * 2)
        assert run(["solve", "--instance", str(path), "--index", str(index)]) == 3
        assert f"instance index {index} outside 1..2" in capsys.readouterr().err

    def test_missing_file_is_io_error(self, tmp_path):
        assert run(["solve", "--instance", str(tmp_path / "nope.txt")]) == 2

    def test_malformed_file_is_contract_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 2\n3 4\n")  # truncated body
        assert run(["solve", "--instance", str(bad)]) == 3

    def test_bad_native_header_is_contract_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 0\n\n")
        assert run(["solve", "--instance", str(bad)]) == 3
        assert "line 1: header must be" in capsys.readouterr().err

    @pytest.mark.parametrize("text,message", [
        ("1 1\n-4\n5\n", "line 2: processing times must be non-negative"),
        ("1 1\n4\nnan\n", "line 3: fixed powers must be positive and finite"),
    ], ids=["negative-time", "nan-power"])
    def test_bad_native_value_names_its_line(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        assert run(["solve", "--instance", str(bad)]) == 3
        assert message in capsys.readouterr().err

    def test_malformed_native_file_reports_native_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("3 2\n4 9\n3 x\n3 5\n900 1100\n")
        assert run(["solve", "--instance", str(bad), "--pop", "4", "--gen", "1"]) == 3
        assert "line 3" in capsys.readouterr().err

    # `solve`'s cases are identified by the bare kappa value
    @pytest.mark.parametrize("argv,kappa", [
        pytest.param(argv, kappa, id=kappa if argv[0] == "solve" else f"{argv[0]}-{kappa}")
        for argv in (["solve", "--instance", "table3", "--pop", "4", "--gen", "1"],
                     ["bench", "table3", "--pop", "4", "--gen", "1", "--runs", "1"],
                     ["tune", "--instance", "table3"])
        for kappa in ("0", "-1", "nan", "inf")
    ])
    def test_kappa_not_positive_and_finite_is_contract_error(
        self, tmp_path, monkeypatch, capsys, argv, kappa
    ):
        _no_solver(monkeypatch)
        monkeypatch.chdir(tmp_path)
        assert run([*argv, "--kappa", kappa]) == 3
        assert "kappa" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("runs", ["0", "-1", "-10"])
    def test_runs_below_one_is_refused_before_any_file_is_read(
        self, tmp_path, monkeypatch, capsys, runs
    ):
        # the instance and power files do not exist: reading either would
        # exit 2, and checking the output paths would exit 2 on `gone/`
        _no_solver(monkeypatch)
        monkeypatch.chdir(tmp_path)
        assert run(["bench", "table3", "shop.txt", "--powers", "pw.txt", "--runs", runs,
                    "--out", "gone/bench.csv"]) == 3
        assert capsys.readouterr().err == "greenflowshop: --runs must be at least 1\n"
        assert not any(tmp_path.iterdir())


# sha256 of each output of `bench ta20x5 --runs 2 --pop 8 --gen 2 --seed 5`:
# the records, their JSON mirror, stderr (progress lines in task order, then
# repeat order) and stdout with the output directory written as `{tmp}`.
_BENCH_OUTPUTS = {
    "bench.csv": "32408c53691613c0226695778b01e60af4780e53630da04629895f456a3f7e10",
    "bench.json": "90b1930240229991bff1e41557692941ae725f4c223d4df3aa2bd35c37b6b3e9",
    "stdout": "1a2df1d5eedf03492413bcb18c35efb6114419a1e0e74a179b526cda2de30180",
    "stderr": "b2f9fa2a15ccbb24236d901d6970da469f31fa1b4d0dde817c16427cbbadfd37",
}


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

    def test_taillard_file_parsed_once_and_powers_read_once(self, tmp_path, monkeypatch):
        block = "2 2 9 0 0\ntimes:\n3 2\n4 5\n"
        first, second = tmp_path / "three.txt", tmp_path / "two.txt"
        texts = ["header:\n" + block * 3, "header:\n" + block * 2]
        first.write_text(texts[0])
        second.write_text(texts[1])
        powers = tmp_path / "powers.txt"
        powers.write_text("600 1200 900\n")
        parses, reads, instances = [], [], []
        parse, read_text = instance_module.parse_taillard, Path.read_text

        def counted_parse(text):
            parses.append(text)
            return parse(text)

        def counted_read(self, *args, **kwargs):
            reads.append(self)
            return read_text(self, *args, **kwargs)

        def recorded_evolve(instance, config):
            instances.append(instance)
            return evolve(instance, config)

        # every Taillard parser of `instance` goes through its module binding
        monkeypatch.setattr(instance_module, "parse_taillard", counted_parse)
        monkeypatch.setattr(cli_module, "parse_taillard", counted_parse)
        monkeypatch.setattr(Path, "read_text", counted_read)
        monkeypatch.setattr(harness_module, "evolve", recorded_evolve)
        out = tmp_path / "bench.csv"
        assert run(["bench", str(first), str(second), "--powers", str(powers), "--pop", "4",
                    "--gen", "1", "--runs", "1", "--out", str(out)]) == 0
        assert [(r.problem, r.dataset) for r in read_bench_csv(out)] == [
            ("three", 1), ("three", 2), ("three", 3), ("two", 1), ("two", 2)]
        assert instances == [TOY] * 5
        assert parses == texts
        # the power file once, and before any instance file
        assert reads == [powers, first, second]

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

    def test_kappa_reaches_every_repeat(self, tmp_path, monkeypatch):
        inst_path = tmp_path / "toy.txt"
        inst_path.write_text("2 2\n3 4\n2 5\n600 1200\n")
        configs = []

        def recorded_evolve(instance, config):
            configs.append(config)
            return evolve(instance, config)

        monkeypatch.setattr(harness_module, "evolve", recorded_evolve)
        assert run(["bench", str(inst_path), "table3", "--pop", "4", "--gen", "1",
                    "--runs", "3", "--kappa", "0.5", "--out", str(tmp_path / "b.csv")]) == 0
        assert [c.kappa for c in configs] == [0.5] * 6

    def test_builtin_ta20x5_set(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = run(["bench", "ta20x5", "--pop", "4", "--gen", "1", "--runs", "1",
                    "--seed", "0", "--out", str(out)])
        assert code == 0
        tasks = [BenchTask("Ta20x5", k, taillard_instance(20, 5, k)) for k in range(1, 11)]
        expected = tmp_path / "expected.csv"
        write_bench_csv(expected, run_benchmark(tasks, RunConfig(4, 1, seed=0), 1))
        assert out.read_bytes() == expected.read_bytes()

    def test_output_bytes_pinned(self, tmp_path, capsys):
        code = run(["bench", "ta20x5", "--runs", "2", "--pop", "8", "--gen", "2", "--seed", "5",
                    "--out", str(tmp_path / "bench.csv"), "--json", str(tmp_path / "bench.json")])
        out, err = capsys.readouterr()
        assert code == 0
        outputs = {
            "bench.csv": (tmp_path / "bench.csv").read_bytes(),
            "bench.json": (tmp_path / "bench.json").read_bytes(),
            "stdout": out.replace(str(tmp_path), "{tmp}").encode(),
            "stderr": err.encode(),
        }
        got = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
        assert got == _BENCH_OUTPUTS


class TestUnwritableOutput:
    """Every output path is checked before the solver runs; nothing is made."""

    @pytest.mark.parametrize("argv, bad", [
        ("solve --instance table3 --out {tmp}/gone/front.csv",
         "output path {tmp}/gone/front.csv: no such directory"),
        ("solve --instance table3 --json {tmp}/gone/front.json",
         "output path {tmp}/gone/front.json: no such directory"),
        ("solve --instance table3 --out {tmp}/made", "output path {tmp}/made is a directory"),
        ("tune --instance table3 --out {tmp}/gone/l16",
         "output path {tmp}/gone/l16_flowtime_responses.csv: no such directory"),
        ("tune --instance table3 --out {tmp}/l16",
         "output path {tmp}/l16_energy_table.csv is a directory"),
        ("bench table3 --out {tmp}/gone/bench.csv",
         "output path {tmp}/gone/bench.csv: no such directory"),
        ("bench table3 --out {tmp}/bench.csv --json {tmp}/gone/b.json",
         "output path {tmp}/gone/b.json: no such directory"),
        ("generate --jobs 3 --machines 2 --out {tmp}/gone/shop.txt",
         "output path {tmp}/gone/shop.txt: no such directory"),
        ("generate --jobs 3 --machines 2 --out {tmp}/made",
         "output path {tmp}/made is a directory"),
    ], ids=["solve-out", "solve-json", "solve-out-is-dir", "tune-prefix",
            "tune-table-is-dir", "bench-out", "bench-json", "generate-out",
            "generate-out-is-dir"])
    def test_exits_2_before_solver_work(self, tmp_path, monkeypatch, capsys, argv, bad):
        _no_solver(monkeypatch)
        (tmp_path / "made").mkdir()
        (tmp_path / "l16_energy_table.csv").mkdir()
        before = sorted(tmp_path.rglob("*"))
        assert run(shlex.split(argv.format(tmp=tmp_path))) == 2
        assert bad.format(tmp=tmp_path) in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("argv, bad", [
        ("solve --instance table3 --out {tmp}/same.json --json {tmp}/same.json",
         "{tmp}/same.json"),
        ("solve --instance table3 --out x.csv --json ./x.csv", "./x.csv"),
        ("bench table3 --out {tmp}/same.json --json {tmp}/same.json", "{tmp}/same.json"),
        ("bench table3 --json ./bench.csv", "./bench.csv"),
    ], ids=["solve", "solve-spelled-apart", "bench", "bench-default-out"])
    def test_one_file_named_twice_exits_2(self, tmp_path, monkeypatch, capsys, argv, bad):
        _no_solver(monkeypatch)
        monkeypatch.chdir(tmp_path)
        assert run(shlex.split(argv.format(tmp=tmp_path))) == 2
        assert bad.format(tmp=tmp_path) in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, bad", [
        ("solve --instance toy.txt --out toy.txt", "toy.txt"),
        ("solve --instance table3 --powers toy.txt --json ./toy.txt", "./toy.txt"),
        ("bench toy.txt --out toy.txt", "toy.txt"),
        ("bench table3 toy.txt --json ./toy.txt", "./toy.txt"),
        ("report --records r.csv --out r.csv", "r.csv"),
        ("report --records r.csv --out ./r.csv", "./r.csv"),
    ], ids=["solve-instance", "solve-powers-spelled-apart", "bench-instance",
            "bench-json-spelled-apart", "report-records", "report-spelled-apart"])
    def test_output_naming_an_input_exits_2(self, tmp_path, monkeypatch, capsys, argv, bad):
        _no_solver(monkeypatch)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "toy.txt").write_text("2 2\n3 4\n2 5\n600 1200\n")
        (tmp_path / "r.csv").write_text("not read before the outputs are checked\n")
        before = {path: path.read_bytes() for path in tmp_path.iterdir()}
        assert run(argv.split()) == 2
        assert f"output path {bad} names the same file as an input" in capsys.readouterr().err
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("out", ["table3", "table9"])
    def test_builtin_names_are_not_input_files(self, tmp_path, monkeypatch, out):
        monkeypatch.chdir(tmp_path)
        assert run(["solve", "--instance", "table3", "--pop", "4", "--gen", "1",
                    "--out", out]) == 0
        assert verify_front_csv(tmp_path / out, load_table3())


class TestInputNotUtf8:
    @pytest.mark.parametrize("argv", [
        "solve --instance bad.txt",
        "solve --instance table3 --powers bad.txt",
        "bench toy.txt bad.txt",
        "report --records bad.txt",
    ], ids=["instance", "powers", "bench-instance", "records"])
    def test_names_the_file(self, tmp_path, monkeypatch, capsys, argv):
        _no_solver(monkeypatch)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.txt").write_bytes(b"\xff2 2\n")
        (tmp_path / "toy.txt").write_text("2 2\n3 4\n2 5\n600 1200\n")
        assert run(argv.split()) == 3
        assert "greenflowshop: bad.txt: 'utf-8' codec can't decode" in capsys.readouterr().err


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

    def test_stdout_quotes_labels_like_the_out_file(self, tmp_path, capsys):
        paths = [tmp_path / "a,b.txt", tmp_path / 'say "hi".txt']
        for path in paths:
            path.write_text("2 2\n3 4\n2 5\n600 1200\n")
        bench_csv = tmp_path / "bench.csv"
        assert run(["bench", *map(str, paths), "--pop", "4", "--gen", "2", "--runs", "1",
                    "--out", str(bench_csv)]) == 0
        agg = tmp_path / "agg.csv"
        assert run(["report", "--records", str(bench_csv), "--out", str(agg)]) == 0
        capsys.readouterr()
        assert run(["report", "--records", str(bench_csv)]) == 0
        printed = list(csv.reader(capsys.readouterr().out.splitlines()))
        with open(agg, newline="") as fh:
            written = list(csv.reader(fh))
        assert printed == written
        assert [row[0] for row in printed] == ["problem", "a,b", 'say "hi"', "overall"]

    @pytest.mark.parametrize("text,field", [
        ("problem,dataset,ft1,ec1,ft2,ec2,pct_ft\nt,1,18,40.0,18,40.0,0.00\n", "pct_ec"),
        ("problem,dataset,ft1,ec1,ft2,ec2,pct_ft,pct_ec\n"
         "t,1,18,40.0,18,40.0,0.00,0.00\nt,2,18,40.0\n", "ft2"),
        ("problem,dataset,ft1,ec1,ft2,ec2,pct_ft,pct_ec\nt,one,18,40.0,18,40.0,0.00,0.00\n",
         "dataset"),
    ], ids=["missing-column", "short-row", "bad-value"])
    def test_malformed_records_file_is_contract_error(self, tmp_path, capsys, text, field):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        assert run(["report", "--records", str(bad)]) == 3
        err = capsys.readouterr().err
        line = text.count("\n")
        assert str(bad) in err and f"line {line}" in err and repr(field) in err

    @pytest.mark.parametrize("field", ["ec1", "ec2", "pct_ft", "pct_ec"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_float_is_contract_error(self, tmp_path, capsys, field, value):
        header = "problem,dataset,ft1,ec1,ft2,ec2,pct_ft,pct_ec"
        row = dict(zip(header.split(","), "t,1,18,40.0,18,40.0,0.00,0.00".split(",")))
        row[field] = value
        bad = tmp_path / "bad.csv"
        bad.write_text(f"{header}\nt,1,18,40.0,18,40.0,0.00,0.00\n{','.join(row.values())}\n")
        assert run(["report", "--records", str(bad)]) == 3
        err = capsys.readouterr().err
        assert f"{bad} line 3: bad {field!r} value {value!r}" in err


# sha256 of each file a `tune` campaign on the tiny shop writes (seed 2,
# descent off): one campaign per design row must keep these bytes.
_TUNE_FILES = {
    "camp_flowtime_responses.csv":
        "a09d125a7fc307aec13dfdecd76551d6dd951834bec130697995c07187a6ed8e",
    "camp_flowtime_table.csv":
        "31d675f9b60ef2400859574594adc37ad328c7be04705c49f541fd5d2a5ca937",
    "camp_energy_responses.csv":
        "a39294f8bd9c3e57dcdac1d9508924ec64b5e3db00dc54e1b6de9eac33597266",
    "camp_energy_table.csv":
        "6d90152ba9bfc07202ad10d84ee9fe558349d1edf1cc3a9bbe63b1b302138fb7",
}


def _tune_campaign(tmp_path, *flags, solve=evolve):
    """One `tune` run on a 3x2 shop, recording the config of each solver
    run; `solve` makes the front that each run returns."""
    inst_path = tmp_path / "tiny.txt"
    inst_path.write_text("3 2\n4 9\n7 2\n3 5\n900 1100\n")
    solves = []

    def counted_evolve(instance, config, *args):
        solves.append(config)
        return solve(instance, config, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness_module, "evolve", counted_evolve)
        code = run(["tune", "--instance", str(inst_path), "--seed", "2", *flags,
                    "--out", str(tmp_path / "camp")])
    return SimpleNamespace(code=code, dir=tmp_path, solves=solves)


class TestTune:
    @pytest.fixture(scope="class")
    def campaign(self, tmp_path_factory):
        return _tune_campaign(tmp_path_factory.mktemp("tune"), "--ls", "off")

    def test_small_campaign_writes_tables(self, campaign):
        assert campaign.code == 0
        for response in ("flowtime", "energy"):
            rows = (campaign.dir / f"camp_{response}_responses.csv").read_text().strip().splitlines()
            assert rows[0] == "gen,pop,crossover,mutation,response"
            assert len(rows) == 17
            table = (campaign.dir / f"camp_{response}_table.csv").read_text().strip().splitlines()
            assert table[0] == "level,gen,pop,crossover,mutation"
            assert len(table) == 7

    def test_one_solve_per_design_row(self, campaign):
        assert len(campaign.solves) == 16
        assert [(c.generations, c.pop_size, c.p_crossover, c.p_mutation)
                for c in campaign.solves] == [tuple(row) for row in tuning.L16]
        assert [c.seed for c in campaign.solves] == [
            child_seed(2, STREAM_TUNING, k) for k in range(16)
        ]

    def test_ls_flag_reaches_every_solve(self, campaign, tmp_path):
        assert [c.ls_enabled for c in campaign.solves] == [False] * 16
        # the default run's fronts come from a two-member population: only
        # the configs it records are checked
        default = _tune_campaign(tmp_path, solve=lambda instance, config, *args: evolve(
            instance, RunConfig(pop_size=2, generations=0, ls_enabled=False), *args))
        assert default.code == 0
        assert [c.ls_enabled for c in default.solves] == [True] * 16

    def test_kappa_reaches_every_solve(self, campaign, tmp_path):
        assert [c.kappa for c in campaign.solves] == [DEFAULT_KAPPA] * 16
        # as above, each run solves a two-member population
        halved = _tune_campaign(tmp_path, "--ls", "off", "--kappa", "0.5",
                                solve=lambda instance, config: evolve(
                                    instance, replace(config, pop_size=2, generations=0)))
        assert halved.code == 0
        assert [c.kappa for c in halved.solves] == [0.5] * 16

    def test_output_bytes_pinned(self, campaign):
        got = {
            name: hashlib.sha256((campaign.dir / name).read_bytes()).hexdigest()
            for name in _TUNE_FILES
        }
        assert got == _TUNE_FILES
