import csv
import json

import pytest

from uavee.bench import CSV_HEADER
from uavee.cli import _build_parser, cli_main
from uavee.scenario import ScenarioConfig


def test_run_writes_csv(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = cli_main(
        ["run", "--pairs", "2", "--trials", "10", "--seed", "1", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 30  # 10 trials x 3 algorithms
    rows = list(csv.DictReader(lines))
    assert {r["algorithm"] for r in rows} == {"jhtpa", "opa", "oht"}
    summary = json.loads(capsys.readouterr().out)
    assert summary["summary"]


def test_run_writes_json(tmp_path, capsys):
    out = tmp_path / "r.json"
    argv = ["run", "--pairs", "2", "--trials", "2", "--seed", "1", "--format", "json", "--out", str(out)]
    assert cli_main(argv) == 0
    payload = json.loads(out.read_text())
    assert len(payload["rows"]) == 6  # 2 trials x 3 algorithms
    assert payload["summary"] == json.loads(capsys.readouterr().out)["summary"]


def test_run_rejects_zero_pairs(capsys):
    assert cli_main(["run", "--pairs", "0"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("pairs", "part"), [("2,2", "repeats [2]"), ("2-4,3", "repeats [3]"), ("2-3,10-2", "'10-2'")]
)
def test_run_rejects_repeated_or_reversed_pairs(pairs, part, capsys):
    # a repeated count would run each of its trials twice on the same seed,
    # and a reversed range would add no count to the sweep
    assert cli_main(["run", "--pairs", pairs, "--trials", "1"]) == 1
    err = capsys.readouterr().err
    assert "error" in err and part in err


def test_unknown_flag_exits_one(capsys):
    assert cli_main(["run", "--frobnicate"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err


def test_unknown_subcommand_exits_one(capsys):
    assert cli_main(["explode"]) == 1


def test_gen_scenario_roundtrip(tmp_path):
    out = tmp_path / "s.json"
    assert cli_main(["gen-scenario", "--pairs", "3", "--seed", "11", "--out", str(out)]) == 0
    config = ScenarioConfig.from_json(out.read_text())
    assert config.num_pairs == 3
    assert config.seed == 11


def test_gen_scenario_prints_without_out(capsys):
    assert cli_main(["gen-scenario", "--pairs", "3", "--seed", "11"]) == 0
    assert ScenarioConfig.from_json(capsys.readouterr().out) == ScenarioConfig(3, 11)


def test_gen_scenario_requires_seed(capsys):
    assert cli_main(["gen-scenario", "--pairs", "3"]) == 1


def test_solve_outputs_report(tmp_path, capsys):
    scenario = tmp_path / "s.json"
    cli_main(["gen-scenario", "--pairs", "2", "--seed", "7", "--out", str(scenario)])
    capsys.readouterr()
    assert cli_main(["solve", "--scenario", str(scenario), "--algorithm", "oht"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["algorithm"] == "oht"
    assert report["status"] == "converged"
    assert report["ee_nats_per_joule"] > 0.0


def test_solve_missing_scenario_is_runtime_error(tmp_path, capsys):
    code = cli_main(["solve", "--scenario", str(tmp_path / "nope.json"), "--algorithm", "oht"])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"num_pairs": 2.5, "seed": 1}', "num_pairs must be an integer"),
        ("[1, 2]", "must be an object"),
        ('{"num_pairs": 3, "seed": -1}', "seed must be >= 0"),
        ('{"seed": 1}', "num_pairs"),
        ('{"num_pairs": 3, "seed": 1, "atg_a": -11.95, "atg_b": 0.0}', "atg_a must be nonnegative"),
        ('{"num_pairs": 3, "seed": 1, "bogus": 1}', "unknown scenario fields: ['bogus']"),
        # fields whose channel gains overflow a float
        ('{"num_pairs": 3, "seed": 1, "atg_a": 100, "atg_b": 50}', "atg_a, atg_b"),
        ('{"num_pairs": 3, "seed": 1, "beta0_db": 5000}', "beta0_db"),
        ('{"num_pairs": 3, "seed": 1, "alpha_g": -1000}', "alpha_g"),
        ('{"num_pairs": 3, "seed": 1, "noise_density_dbm_hz": 4000}', "noise_density_dbm_hz"),
        # a noise power that overflows in the product or underflows to zero,
        # and a D2D gain that overflows in the product
        (
            '{"num_pairs": 3, "seed": 1, "noise_density_dbm_hz": 300, "bandwidth_hz": 1e300}',
            "noise_density_dbm_hz",
        ),
        ('{"num_pairs": 1, "seed": 1, "noise_density_dbm_hz": -5000}', "noise_density_dbm_hz"),
        ('{"num_pairs": 3, "seed": 1, "beta0_db": 3000, "alpha_h": -100}', "beta0_db"),
    ],
)
@pytest.mark.parametrize("command", ["solve", "run"])
def test_bad_scenario_json_is_an_input_error(tmp_path, capsys, text, message, command):
    scenario = tmp_path / "s.json"
    scenario.write_text(text)
    if command == "solve":
        argv = ["solve", "--scenario", str(scenario), "--algorithm", "oht"]
    else:
        argv = ["run", "--pairs", "2", "--trials", "1", "--config", str(scenario)]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("uavee: error:")
    assert message in err


def test_run_invalid_algorithms(capsys):
    assert cli_main(["run", "--pairs", "2", "--algorithms", "genie"]) == 1


def test_run_rejects_unknown_format(tmp_path, capsys):
    out = tmp_path / "r.xml"
    assert cli_main(["run", "--pairs", "2", "--trials", "1", "--format", "xml", "--out", str(out)]) == 1
    assert "invalid choice" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "option",
    [["--algorithms", ","], ["--trials", "0"], ["--algorithms", "jhtpa,jhtpa"], ["--pairs", ","]],
)
def test_run_rejects_an_empty_sweep(capsys, option):
    # ExperimentSpec's checks are the CLI's: an input error (here an empty or
    # repeated sweep) exits 1, before any solve
    assert cli_main(["run", "--pairs", "2", *option]) == 1
    assert capsys.readouterr().err.startswith("uavee run: error:")


def test_verbose_logs_one_engine_line_per_subproblem_solve(tmp_path, capsys):
    import logging

    scenario = tmp_path / "s.json"
    assert cli_main(["gen-scenario", "--pairs", "3", "--seed", "7", "--out", str(scenario)]) == 0
    # logging.basicConfig configures only a root logger without handlers
    level, handlers = logging.root.level, logging.root.handlers[:]
    logging.root.handlers.clear()
    try:
        argv = ["--verbose", "solve", "--scenario", str(scenario), "--algorithm", "jhtpa"]
        assert cli_main(argv) == 0
    finally:
        logging.root.handlers[:] = handlers
        logging.root.setLevel(level)  # also clears the loggers' level caches
    out, err = capsys.readouterr()
    prefix = "DEBUG:uavee.engine:"
    dumps = [json.loads(line[len(prefix) :]) for line in err.splitlines() if line.startswith(prefix)]
    assert len(dumps) == json.loads(out)["subsolver_calls"] >= 1
    assert {d["status"] for d in dumps} <= {"optimal", "max_iterations"}


@pytest.mark.parametrize("command", [["run"], ["solve", "--scenario", "s.json", "--algorithm", "oht"]])
def test_verbose_before_or_after_subcommand(command):
    parser = _build_parser()
    assert parser.parse_args(["--verbose", *command]).verbose is True
    assert parser.parse_args([*command, "--verbose"]).verbose is True
    assert parser.parse_args(command).verbose is False
