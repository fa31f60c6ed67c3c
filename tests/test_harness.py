import json
import math

import jsonschema
import numpy as np
import pytest

from minesolve.engine import BoardSpec
from minesolve.harness import (
    REPORT_SCHEMA,
    format_ablation_csv,
    format_ablation_text,
    format_report_csv,
    format_report_text,
    paired_delta,
    run_ablation,
    run_batch,
    wilson_interval,
    worker_count,
)
from minesolve.policy import SolverConfig

TINY = BoardSpec(2, 2, 0)
COIN = BoardSpec(2, 1, 1)


def test_zero_mine_board_always_wins():
    report = run_batch(TINY, games=100, base_seed=0, workers=1)
    assert report.wins == 100
    assert report.win_rate == 1.0
    assert report.first_move_losses == 0


@pytest.mark.slow
def test_batch_reproducible():
    a = run_batch(BoardSpec(6, 6, 8), games=40, base_seed=7, workers=1)
    b = run_batch(BoardSpec(6, 6, 8), games=40, base_seed=7, workers=1)
    assert [g.won for g in a.per_game] == [g.won for g in b.per_game]
    assert [g.seed for g in a.per_game] == list(range(7, 47))
    assert a.wins == b.wins


@pytest.mark.slow
def test_parallel_and_serial_agree():
    serial = run_batch(BoardSpec(6, 6, 8), games=48, base_seed=3, workers=1)
    parallel = run_batch(BoardSpec(6, 6, 8), games=48, base_seed=3, workers=2)
    assert [g.won for g in serial.per_game] == [g.won for g in parallel.per_game]


def test_coin_flip_win_rate():
    report = run_batch(COIN, games=10_000, base_seed=0, workers=2)
    assert report.win_rate == pytest.approx(0.5, abs=0.02)
    lo, hi = report.wilson_95
    assert lo <= report.win_rate <= hi


def test_report_json_matches_schema():
    report = run_batch(BoardSpec(5, 5, 4), games=20, base_seed=0, workers=1)
    payload = json.loads(json.dumps(report.to_dict()))
    jsonschema.validate(payload, REPORT_SCHEMA)


def test_text_and_csv_outputs():
    report = run_batch(BoardSpec(5, 5, 4), games=10, base_seed=0, workers=1)
    text = format_report_text(report)
    assert "win_rate" in text and "move_time_ms" in text
    csv_body = format_report_csv(report)
    lines = csv_body.strip().splitlines()
    assert lines[0] == "seed,won,loss_on_first_move,n_moves,max_move_ms"
    assert len(lines) == 11


def test_replay_logs_for_lost_games(tmp_path):
    report = run_batch(BoardSpec(5, 5, 8), games=30, base_seed=0, workers=1,
                       replay_dir=tmp_path)
    losses = [g for g in report.per_game if not g.won]
    assert losses, "expected at least one loss on a dense 5x5"
    files = sorted(tmp_path.glob("replay_*.json"))
    assert len(files) == len(losses)
    payload = json.loads(files[0].read_text())
    assert payload["moves"][-1]["result"] == "boom"


def test_all_mine_board_is_won_without_moves():
    report = run_batch(BoardSpec(2, 2, 4), games=3, workers=1)
    assert report.wins == 3
    assert [(g.n_moves, g.max_move_ms) for g in report.per_game] == [(0, 0.0)] * 3
    assert report.move_time_ms == {"mean": 0.0, "p50": 0.0, "p99": 0.0, "max": 0.0}
    jsonschema.validate(json.loads(json.dumps(report.to_dict())), REPORT_SCHEMA)


def test_move_time_summary_matches_numpy():
    report = run_batch(BoardSpec(5, 5, 4), games=20, workers=1, keep_records=True)
    times = np.array([t for r in report.records for t in r.move_times_ms()])
    expected = {
        "mean": times.mean(),
        "p50": np.percentile(times, 50),
        "p99": np.percentile(times, 99),
        "max": times.max(),
    }
    for key, value in expected.items():
        assert report.move_time_ms[key] == pytest.approx(value, rel=1e-12)


def test_batch_reports_the_config_it_played():
    report = run_batch(BoardSpec(5, 5, 4), games=5, workers=1,
                       config=SolverConfig(mode="exact", budget_ms=200))
    assert report.mode == "exact"
    assert report.budget_ms == 200
    assert report.to_dict()["budget_ms"] == 200


def test_ablation_keeps_config_apart_from_mode():
    report = run_ablation(BoardSpec(5, 5, 4), games=5, workers=1,
                          modes=("logic", "exact"),
                          config=SolverConfig(mode="full", budget_ms=200))
    assert {m: r.mode for m, r in report.reports.items()} == {
        "logic": "logic", "exact": "exact"}
    assert all(r.budget_ms == 200 for r in report.reports.values())


def test_ablation_on_trivial_board():
    report = run_ablation(TINY, games=40, base_seed=0, workers=1)
    assert set(report.reports) == {"logic", "exact", "full"}
    assert all(r.win_rate == 1.0 for r in report.reports.values())
    for delta in report.deltas:
        assert delta.delta == 0.0


def test_ablation_pairs_seeds_and_formats():
    report = run_ablation(BoardSpec(5, 5, 6), games=30, base_seed=11,
                          modes=("logic", "full"), workers=1)
    assert [g.seed for g in report.reports["logic"].per_game] == \
           [g.seed for g in report.reports["full"].per_game]
    text = format_ablation_text(report)
    assert "full - logic" in text
    csv_body = format_ablation_csv(report)
    assert csv_body.splitlines()[0] == "seed,won_logic,won_full"


def test_paired_delta_statistics():
    wins_a = [True] * 70 + [False] * 30
    wins_b = [True] * 50 + [False] * 50
    delta = paired_delta("a", wins_a, "b", wins_b)
    assert delta.delta == pytest.approx(0.2)
    assert delta.z_score > 1.645
    assert delta.p_one_sided < 0.05

    same = paired_delta("a", wins_a, "b", wins_a)
    assert same.delta == 0.0
    assert same.p_one_sided == pytest.approx(0.5)

    # every paired difference equal: no spread, but the sign still counts
    worse = paired_delta("a", [False] * 10, "b", [True] * 10)
    assert worse.z_score == -math.inf and worse.p_one_sided == 1.0
    better = paired_delta("a", [True] * 10, "b", [False] * 10)
    assert better.z_score == math.inf and better.p_one_sided == 0.0

    with pytest.raises(ValueError):
        paired_delta("a", [], "b", [])


def test_wilson_interval_basic_properties():
    lo, hi = wilson_interval(0, 10)
    assert lo == 0.0 and 0 < hi < 0.35
    lo, hi = wilson_interval(10, 10)
    assert 0.65 < lo < 1.0 and hi == 1.0
    lo, hi = wilson_interval(500, 1000)
    assert lo < 0.5 < hi


def test_worker_count_env_override(monkeypatch):
    monkeypatch.setenv("MINESOLVE_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.delenv("MINESOLVE_THREADS")
    assert worker_count(5) == 5
    assert worker_count() >= 1


def test_invalid_game_count_rejected():
    with pytest.raises(ValueError):
        run_batch(TINY, games=0)
