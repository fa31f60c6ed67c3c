import json
import shlex
from pathlib import Path

import jsonschema
import pytest

from minesolve import cli, harness
from minesolve.cli import main
from minesolve.harness import REPORT_SCHEMA

from helpers import raising_on_seed

README = Path(__file__).resolve().parent.parent / "README.md"


def test_play_writes_valid_json_report(tmp_path):
    out = tmp_path / "report.json"
    code = main([
        "play", "--width", "5", "--height", "5", "--mines", "3",
        "--games", "10", "--seed", "0", "--format", "json",
        "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, REPORT_SCHEMA)
    assert payload["games"] == 10


@pytest.mark.parametrize("command", [["play"], ["ablate", "--modes", "logic,full"]])
def test_failed_games_are_listed_and_exit_1(monkeypatch, capsys, command):
    monkeypatch.setattr(harness, "play_game", raising_on_seed(12))
    code = main(command + [
        "--width", "4", "--height", "4", "--mines", "2", "--games", "5",
        "--seed", "10", "--format", "json",
    ])
    assert code == 1
    out, err = capsys.readouterr()
    payload = json.loads(out)
    reports = list(payload["modes"].values()) if "modes" in payload else [payload]
    for report in reports:
        jsonschema.validate(report, REPORT_SCHEMA)
        assert [f["seed"] for f in report["failed"]] == [12]
    assert err.count("failed: game seed 12 raised RuntimeError: planted failure") \
        == len(reports)


def test_play_text_to_stdout(capsys):
    code = main([
        "play", "--width", "4", "--height", "4", "--mines", "2", "--games", "5",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "win_rate" in out


def test_play_difficulty_preset(capsys):
    code = main(["play", "--difficulty", "simple", "--games", "2",
                 "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["board"]["width"] == 8


def test_play_replay_dir(tmp_path):
    replays = tmp_path / "replays"
    code = main([
        "play", "--width", "5", "--height", "5", "--mines", "8",
        "--games", "20", "--replay-dir", str(replays),
    ])
    assert code == 0
    assert list(replays.glob("replay_*.json"))


@pytest.mark.parametrize("where", ["a_file", "a_file/replays"])
def test_replay_dir_that_cannot_be_a_directory_fails_before_playing(
        tmp_path, monkeypatch, capsys, where):
    (tmp_path / "a_file").write_text("")
    played = []
    monkeypatch.setattr(cli, "run_batch", lambda *args, **kwargs: played.append(args))
    code = main([
        "play", "--width", "4", "--height", "4", "--mines", "3", "--games", "5",
        "--replay-dir", str(tmp_path / where),
    ])
    assert code == 2
    assert not played
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: --replay-dir ")


def test_readme_cli_lines_parse():
    # every command in the README's CLI block names only flags the parser has
    block = README.read_text().split("## CLI", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("minesolve ")]
    assert lines
    parser = cli.build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


def test_missing_out_directory_fails_before_playing(tmp_path, monkeypatch):
    played = []
    monkeypatch.setattr(cli, "run_batch", lambda *args, **kwargs: played.append(args))
    code = main([
        "play", "--width", "4", "--height", "4", "--mines", "2",
        "--out", str(tmp_path / "missing" / "report.json"),
    ])
    assert code == 2
    assert not played


def test_out_naming_a_directory_fails_before_playing(tmp_path, monkeypatch, capsys):
    played = []
    monkeypatch.setattr(cli, "run_batch", lambda *args, **kwargs: played.append(args))
    code = main([
        "play", "--width", "4", "--height", "4", "--mines", "2",
        "--out", str(tmp_path),
    ])
    assert code == 2
    assert not played
    assert "is a directory" in capsys.readouterr().err


def test_non_integer_thread_count_fails(monkeypatch, capsys):
    monkeypatch.setenv("MINESOLVE_THREADS", "x")
    assert main(["play", "--width", "3", "--height", "3", "--mines", "1",
                 "--games", "2"]) == 2
    assert capsys.readouterr().err == (
        "error: MINESOLVE_THREADS must be a positive integer, got 'x'\n")


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_non_positive_thread_count_fails(monkeypatch, capsys, threads):
    monkeypatch.setattr(harness, "ProcessPoolExecutor", None)  # never started
    monkeypatch.setenv("MINESOLVE_THREADS", threads)
    assert main(["play", "--width", "3", "--height", "3", "--mines", "1",
                 "--games", "100"]) == 2
    assert capsys.readouterr().err == (
        f"error: MINESOLVE_THREADS must be a positive integer, got '{threads}'\n")


def test_missing_board_arguments_fail():
    assert main(["play", "--games", "3"]) == 2


def test_zero_size_board_names_the_size_rule(capsys):
    assert main(["play", "--width", "0", "--height", "5", "--mines", "1"]) == 2
    assert "board must be at least 1x1" in capsys.readouterr().err


def test_invalid_mine_count_fails():
    assert main(["play", "--width", "3", "--height", "3", "--mines", "10"]) == 2


def test_non_positive_budget_fails():
    for budget in ("0", "-5", "nan"):
        assert main(["play", "--difficulty", "simple", "--games", "1",
                     "--budget-ms", budget]) == 2


def test_ablate_csv(capsys):
    code = main([
        "ablate", "--width", "4", "--height", "4", "--mines", "2",
        "--games", "6", "--modes", "logic,full", "--format", "csv",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "seed,won_logic,won_full"


def test_ablate_rejects_unknown_mode():
    assert main([
        "ablate", "--width", "4", "--height", "4", "--mines", "2",
        "--modes", "psychic",
    ]) == 2


def test_ablate_rejects_repeated_mode_before_playing(monkeypatch):
    played = []
    monkeypatch.setattr(harness, "run_batch", lambda *args, **kwargs: played.append(args))
    assert main([
        "ablate", "--width", "4", "--height", "4", "--mines", "2",
        "--modes", "full,full",
    ]) == 2
    assert not played
