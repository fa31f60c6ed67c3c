import json

import jsonschema

from minesolve import cli
from minesolve.cli import main
from minesolve.harness import REPORT_SCHEMA


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


def test_missing_out_directory_fails_before_playing(tmp_path, monkeypatch):
    played = []
    monkeypatch.setattr(cli, "run_batch", lambda *args, **kwargs: played.append(args))
    code = main([
        "play", "--width", "4", "--height", "4", "--mines", "2",
        "--out", str(tmp_path / "missing" / "report.json"),
    ])
    assert code == 2
    assert not played


def test_missing_board_arguments_fail():
    assert main(["play", "--games", "3"]) == 2


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
