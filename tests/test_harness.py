import json
import math
import statistics
from functools import partial

import jsonschema
import pytest

from minesolve import harness
from minesolve.engine import BoardSpec, render_board
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
from minesolve.policy import SolverConfig, seeded_board

from helpers import all_played, raising_on_seed

TINY = BoardSpec(2, 2, 0)
COIN = BoardSpec(2, 1, 1)


def test_zero_mine_board_always_wins():
    report = all_played(run_batch(TINY, games=100, base_seed=0))
    assert report.wins == 100
    assert report.win_rate == 1.0
    assert report.first_move_losses == 0


@pytest.mark.slow
def test_batch_reproducible():
    a = all_played(run_batch(BoardSpec(6, 6, 8), games=40, base_seed=7))
    b = all_played(run_batch(BoardSpec(6, 6, 8), games=40, base_seed=7))
    assert [g.won for g in a.per_game] == [g.won for g in b.per_game]
    assert [g.seed for g in a.per_game] == list(range(7, 47))
    assert a.wins == b.wins


@pytest.mark.slow
def test_parallel_and_serial_agree(monkeypatch):
    monkeypatch.setenv("MINESOLVE_THREADS", "1")
    serial = all_played(run_batch(BoardSpec(6, 6, 8), games=48, base_seed=3))
    monkeypatch.setenv("MINESOLVE_THREADS", "2")
    parallel = all_played(run_batch(BoardSpec(6, 6, 8), games=48, base_seed=3))
    assert [g.won for g in serial.per_game] == [g.won for g in parallel.per_game]


def test_coin_flip_win_rate():
    report = all_played(run_batch(COIN, games=10_000, base_seed=0))
    assert report.win_rate == pytest.approx(0.5, abs=0.02)
    lo, hi = report.wilson_95
    assert lo <= report.win_rate <= hi


def test_report_json_matches_schema():
    report = all_played(run_batch(BoardSpec(5, 5, 4), games=20, base_seed=0))
    payload = json.loads(json.dumps(report.to_dict()))
    jsonschema.validate(payload, REPORT_SCHEMA)


def test_text_and_csv_outputs():
    report = all_played(run_batch(BoardSpec(5, 5, 4), games=10, base_seed=0))
    text = format_report_text(report)
    assert "win_rate" in text and "move_time_ms" in text
    csv_body = format_report_csv(report)
    lines = csv_body.strip().splitlines()
    assert lines[0] == "seed,won,loss_on_first_move,n_moves,max_move_ms"
    assert len(lines) == 11


def test_replay_logs_for_lost_games(tmp_path):
    report = all_played(run_batch(BoardSpec(5, 5, 8), games=30, base_seed=0,
                                  replay_dir=tmp_path))
    losses = [g for g in report.per_game if not g.won]
    assert losses, "expected at least one loss on a dense 5x5"
    files = sorted(tmp_path.glob("replay_*.json"))
    assert len(files) == len(losses)
    payload = json.loads(files[0].read_text())
    assert payload["moves"][-1]["result"] == "boom"
    first = payload["moves"][0]
    assert list(first) == ["cell", "kind", "pipeline_depth", "prob", "move_ms", "result"]
    record = next(r for r in report.records if r.seed == payload["seed"])
    assert first["cell"] == list(record.moves[0].cell)


# BoardSpec(5, 5, 6) seed 173: an opening, a guess, a forced reveal and a
# losing guess; move_ms, the one field a rerun changes, is blanked
REPLAY_173 = {
    "seed": 173,
    "board": {"width": 5, "height": 5, "mine_count": 6, "first_click_safe": False},
    "mode": "full",
    "moves": [
        {"cell": [2, 2], "kind": "first_move", "pipeline_depth": "logic",
         "prob": 0.24, "move_ms": None, "result": 2},
        {"cell": [0, 0], "kind": "guess", "pipeline_depth": "exact",
         "prob": 0.25, "move_ms": None, "result": 0},
        {"cell": [3, 2], "kind": "reveal_safe", "pipeline_depth": "logic",
         "prob": 0.0, "move_ms": None, "result": 3},
        {"cell": [4, 1], "kind": "guess", "pipeline_depth": "exact",
         "prob": 0.3333333333333333, "move_ms": None, "result": "boom"},
    ],
}


def test_replay_file_of_a_lost_game_is_pinned(tmp_path):
    all_played(run_batch(BoardSpec(5, 5, 6), games=1, base_seed=173,
                         replay_dir=tmp_path))
    payload = json.loads((tmp_path / "replay_173.json").read_text())
    for move in payload["moves"]:
        assert isinstance(move["move_ms"], float) and move["move_ms"] >= 0
        move["move_ms"] = None
    # compared as text, so the order of every key counts too
    assert json.dumps(payload) == json.dumps(REPLAY_173)


def test_all_mine_board_is_won_without_moves():
    report = all_played(run_batch(BoardSpec(2, 2, 4), games=3))
    assert report.wins == 3
    assert [(g.n_moves, g.max_move_ms) for g in report.per_game] == [(0, 0.0)] * 3
    assert report.move_time_ms == {"mean": 0.0, "p50": 0.0, "p99": 0.0, "max": 0.0}
    jsonschema.validate(json.loads(json.dumps(report.to_dict())), REPORT_SCHEMA)


def test_move_time_summary_matches_statistics():
    report = all_played(run_batch(BoardSpec(5, 5, 4), games=20, keep_records=True))
    times = [t for r in report.records for t in r.move_times_ms()]
    # the "inclusive" method interpolates linearly between the two nearest
    # ranks, as the summary's percentiles do
    cuts = statistics.quantiles(times, n=100, method="inclusive")
    expected = {
        "mean": statistics.fmean(times),
        "p50": cuts[49],
        "p99": cuts[98],
        "max": max(times),
    }
    for key, value in expected.items():
        assert report.move_time_ms[key] == pytest.approx(value, rel=1e-12)


def test_batch_reports_the_config_it_played():
    report = all_played(run_batch(BoardSpec(5, 5, 4), games=5,
                                  config=SolverConfig(mode="exact", budget_ms=200)))
    assert report.mode == "exact"
    assert report.budget_ms == 200
    assert report.to_dict()["budget_ms"] == 200


def test_ablation_keeps_config_apart_from_mode():
    report = all_played(run_ablation(BoardSpec(5, 5, 4), games=5,
                                     modes=("logic", "exact"),
                                     config=SolverConfig(mode="full", budget_ms=200)))
    assert {m: r.mode for m, r in report.reports.items()} == {
        "logic": "logic", "exact": "exact"}
    assert all(r.budget_ms == 200 for r in report.reports.values())


def test_ablation_on_trivial_board():
    report = all_played(run_ablation(TINY, games=40, base_seed=0))
    assert set(report.reports) == {"logic", "exact", "full"}
    assert all(r.win_rate == 1.0 for r in report.reports.values())
    for delta in report.deltas:
        assert delta.delta == 0.0


def test_ablation_pairs_seeds_and_formats():
    report = all_played(run_ablation(BoardSpec(5, 5, 6), games=30, base_seed=11,
                                     modes=("logic", "full")))
    assert [g.seed for g in report.reports["logic"].per_game] == \
           [g.seed for g in report.reports["full"].per_game]
    text = format_ablation_text(report)
    assert "full - logic" in text
    csv_body = format_ablation_csv(report)
    assert csv_body.splitlines()[0] == "seed,won_logic,won_full"


@pytest.mark.parametrize("modes", [("full", "full"), (), ("logic", "bogus")])
def test_ablation_rejects_bad_modes_before_playing(monkeypatch, modes):
    played = []
    monkeypatch.setattr(harness, "run_batch", lambda *args, **kwargs: played.append(args))
    with pytest.raises(ValueError, match="modes"):
        run_ablation(TINY, games=3, modes=modes)
    assert not played


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
    assert worker_count() >= 1


def test_non_integer_thread_count_is_named(monkeypatch):
    monkeypatch.setenv("MINESOLVE_THREADS", "x")
    with pytest.raises(ValueError, match="MINESOLVE_THREADS must be an integer, got 'x'"):
        run_batch(TINY, games=1)


class _InProcessPool:
    """Stands in for ProcessPoolExecutor: records its arguments in `calls`
    and maps in this process, so no worker is ever started."""

    def __init__(self, calls, max_workers):
        self.call = {"max_workers": max_workers}
        calls.append(self.call)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        items = list(iterable)
        self.call["chunks"] = math.ceil(len(items) / chunksize)
        return map(fn, items)


@pytest.mark.parametrize("workers, games", [(64, 40), (2, 48), (5, 33)])
def test_pool_never_asks_for_more_workers_than_chunks(monkeypatch, workers, games):
    calls = []
    monkeypatch.setattr(harness, "ProcessPoolExecutor", partial(_InProcessPool, calls))
    monkeypatch.setenv("MINESOLVE_THREADS", str(workers))
    report = all_played(run_batch(TINY, games=games, base_seed=11))
    [call] = calls
    assert call["max_workers"] == min(workers, call["chunks"])
    assert [g.seed for g in report.per_game] == list(range(11, 11 + games))
    assert report.wins == games


def test_invalid_game_count_rejected():
    with pytest.raises(ValueError):
        run_batch(TINY, games=0)


@pytest.mark.parametrize("threads, games", [("1", 6), ("2", 40)])
def test_a_game_that_raises_is_reported_and_the_batch_goes_on(
        monkeypatch, threads, games):
    # "2" with 40 games takes the process pool, whose forked workers
    # inherit the patched play_game
    spec, bad = BoardSpec(4, 4, 2), 3
    clean = all_played(run_batch(spec, games=games))
    monkeypatch.setattr(harness, "play_game", raising_on_seed(bad))
    monkeypatch.setenv("MINESOLVE_THREADS", threads)
    report = run_batch(spec, games=games, keep_records=True)
    [failure] = report.failed
    with pytest.raises(AssertionError, match="planted failure"):
        all_played(report)
    assert failure.seed == bad
    assert failure.traceback.rstrip().endswith(
        f"RuntimeError: planted failure on seed {bad}")
    assert failure.board == render_board(seeded_board(spec, bad))
    assert [g.seed for g in report.per_game] == list(range(games))
    assert [g.won for g in report.per_game] == [
        g.won and g.seed != bad for g in clean.per_game]
    assert report.per_game[bad].n_moves == 0
    assert [r.seed for r in report.records] == [s for s in range(games) if s != bad]
    payload = json.loads(json.dumps(report.to_dict()))
    jsonschema.validate(payload, REPORT_SCHEMA)
    assert [f["seed"] for f in payload["failed"]] == [bad]
    assert "failed" not in clean.to_dict()
