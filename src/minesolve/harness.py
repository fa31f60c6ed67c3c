"""Batch benchmarks: win rates, move-time distributions, and ablations.

Games are independent, seeded base_seed..base_seed+games-1, and may run
across a process pool; results are aggregated in seed order so a report
never depends on scheduling. Win/loss sequences are reproducible; wall
times of course are not.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import statistics
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Optional, Sequence, Union

from .engine import BoardSpec, difficulty_spec, render_board
from .policy import MODES, GameRecord, SolverConfig, play_game, seeded_board

_MIN_GAMES_FOR_POOL = 32


@dataclass(frozen=True)
class PerGame:
    seed: int
    won: bool
    loss_on_first_move: bool
    n_moves: int
    max_move_ms: float


@dataclass(frozen=True)
class FailedGame:
    """A game that raised: its seed, the seeded board it started from
    (`render_board` text, mines included) and the traceback."""

    seed: int
    board: str
    traceback: str


@dataclass
class BatchReport:
    board: BoardSpec
    mode: str
    games: int
    wins: int
    win_rate: float
    wilson_95: tuple[float, float]
    move_time_ms: dict[str, float]
    first_move_losses: int
    base_seed: int
    budget_ms: float
    per_game: list[PerGame] = field(default_factory=list)
    records: Optional[list[GameRecord]] = None
    failed: list[FailedGame] = field(default_factory=list)

    def to_dict(self) -> dict:
        out = {
            "board": {
                "width": self.board.width,
                "height": self.board.height,
                "mine_count": self.board.mine_count,
                "first_click_safe": self.board.first_click_safe,
            },
            "mode": self.mode,
            "games": self.games,
            "wins": self.wins,
            "win_rate": self.win_rate,
            "wilson_95": list(self.wilson_95),
            "move_time_ms": dict(self.move_time_ms),
            "first_move_losses": self.first_move_losses,
            "base_seed": self.base_seed,
            "budget_ms": self.budget_ms,
        }
        if self.failed:
            out["failed"] = [asdict(f) for f in self.failed]
        return out


REPORT_SCHEMA = {
    "type": "object",
    "required": ["board", "mode", "games", "wins", "win_rate", "wilson_95",
                 "move_time_ms", "first_move_losses", "base_seed", "budget_ms"],
    "properties": {
        "board": {
            "type": "object",
            "required": ["width", "height", "mine_count", "first_click_safe"],
            "properties": {
                "width": {"type": "integer", "minimum": 1},
                "height": {"type": "integer", "minimum": 1},
                "mine_count": {"type": "integer", "minimum": 0},
                "first_click_safe": {"type": "boolean"},
            },
        },
        "mode": {"enum": list(MODES)},
        "games": {"type": "integer", "minimum": 1},
        "wins": {"type": "integer", "minimum": 0},
        "win_rate": {"type": "number", "minimum": 0, "maximum": 1},
        "wilson_95": {
            "type": "array", "minItems": 2, "maxItems": 2,
            "items": {"type": "number", "minimum": 0, "maximum": 1},
        },
        "move_time_ms": {
            "type": "object",
            "required": ["mean", "p50", "p99", "max"],
            "additionalProperties": {"type": "number", "minimum": 0},
        },
        "first_move_losses": {"type": "integer", "minimum": 0},
        "base_seed": {"type": "integer"},
        "budget_ms": {"type": "number", "exclusiveMinimum": 0},
        # present only when a game raised
        "failed": {
            "type": "array", "minItems": 1,
            "items": {
                "type": "object",
                "required": ["seed", "board", "traceback"],
                "properties": {
                    "seed": {"type": "integer"},
                    "board": {"type": "string"},
                    "traceback": {"type": "string"},
                },
            },
        },
    },
}


def wilson_interval(wins: int, games: int, z: float = 1.959963984540054,
                    ) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if games == 0:
        return (0.0, 1.0)
    phat = wins / games
    denom = 1.0 + z * z / games
    center = (phat + z * z / (2 * games)) / denom
    half = z * math.sqrt(phat * (1 - phat) / games + z * z / (4 * games * games)) / denom
    # clamp so rounding can never push the point estimate outside
    return (min(phat, max(0.0, center - half)), max(phat, min(1.0, center + half)))


def worker_count() -> int:
    """MINESOLVE_THREADS, else the CPU count; ValueError when the variable
    is set to something other than a positive integer."""
    env = os.environ.get("MINESOLVE_THREADS")
    if env:
        try:
            workers = int(env)
        except ValueError:
            workers = 0
        if workers < 1:
            raise ValueError(
                f"MINESOLVE_THREADS must be a positive integer, got {env!r}")
        return workers
    return os.cpu_count() or 1


def _play_one(spec: BoardSpec, config: SolverConfig, keep: bool,
              seed: int) -> tuple:
    try:
        record = play_game(spec, config=config, seed=seed)
    except Exception:
        # one crashing game must not end the batch: report it instead
        board = render_board(seeded_board(spec, seed))
        return (seed, False, False, [], None,
                FailedGame(seed, board, traceback.format_exc()))
    return (seed, record.won, record.loss_on_first_move,
            record.move_times_ms(), record if keep else None, None)


def run_batch(board: Union[BoardSpec, str], games: int, base_seed: int = 0,
              config: Optional[SolverConfig] = None,
              keep_records: bool = False,
              replay_dir: Optional[Union[str, Path]] = None) -> BatchReport:
    """Play `games` seeded games under `config` and aggregate win/time
    statistics. A game that raises counts as not won, with no moves, and
    is listed in the report's `failed`; the other games still play."""
    if games < 1:
        raise ValueError("games must be >= 1")
    spec = difficulty_spec(board) if isinstance(board, str) else board
    config = config or SolverConfig()
    keep = keep_records or replay_dir is not None

    seeds = range(base_seed, base_seed + games)
    play = partial(_play_one, spec, config, keep)
    n_workers = worker_count()
    if n_workers <= 1 or games < _MIN_GAMES_FOR_POOL:
        results = map(play, seeds)
    else:
        span = -(-games // (n_workers * 4))
        # the pool forks all its workers at the first submit, so never
        # ask for more than there are chunks
        chunks = -(-games // span)
        with ProcessPoolExecutor(max_workers=min(n_workers, chunks)) as pool:
            results = list(pool.map(play, seeds, chunksize=span))

    per_game = []
    records = [] if keep else None
    failed = []
    all_times: list[float] = []
    wins = 0
    first_losses = 0
    for seed, won, loss_first, times, record, failure in results:
        if failure is not None:
            failed.append(failure)
        elif keep:
            records.append(record)
        wins += won
        first_losses += loss_first
        all_times.extend(times)
        per_game.append(PerGame(
            seed=seed, won=won, loss_on_first_move=loss_first,
            n_moves=len(times), max_move_ms=max(times, default=0.0),
        ))

    ordered = sorted(all_times) or [0.0]  # no game moved: all mines, or all raised
    report = BatchReport(
        board=spec, mode=config.mode, games=games, wins=wins,
        win_rate=wins / games,
        wilson_95=wilson_interval(wins, games),
        move_time_ms={
            "mean": statistics.fmean(ordered),
            "p50": _percentile(ordered, 50),
            "p99": _percentile(ordered, 99),
            "max": ordered[-1],
        },
        first_move_losses=first_losses,
        base_seed=base_seed,
        budget_ms=config.budget_ms,
        per_game=per_game,
        records=records,
        failed=failed,
    )
    if replay_dir is not None:
        _write_replays(report, Path(replay_dir))
    return report


def _percentile(ordered: Sequence[float], q: float) -> float:
    """q-th percentile of sorted data, interpolated linearly between the
    two nearest ranks (numpy's default method)."""
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _write_replays(report: BatchReport, replay_dir: Path) -> None:
    """One JSON move log per lost game, for debugging."""
    replay_dir.mkdir(parents=True, exist_ok=True)
    board = report.to_dict()["board"]
    for record in report.records or []:
        if record.won:
            continue
        payload = {
            "seed": record.seed,
            "board": board,
            "mode": report.mode,
            "moves": [m._asdict() for m in record.moves],
        }
        path = replay_dir / f"replay_{record.seed}.json"
        path.write_text(json.dumps(payload, indent=2))


@dataclass(frozen=True)
class PairedDelta:
    """win_rate(mode_a) - win_rate(mode_b) over paired seeds, with a
    one-sided normal test that mode_a wins more."""

    mode_a: str
    mode_b: str
    delta: float
    std_err: float
    z_score: float
    p_one_sided: float


@dataclass
class AblationReport:
    board: BoardSpec
    games: int
    base_seed: int
    reports: dict[str, BatchReport]
    deltas: list[PairedDelta]

    def to_dict(self) -> dict:
        return {
            "board": next(iter(self.reports.values())).to_dict()["board"],
            "games": self.games,
            "base_seed": self.base_seed,
            "modes": {m: r.to_dict() for m, r in self.reports.items()},
            "deltas": [asdict(d) for d in self.deltas],
        }


def paired_delta(mode_a: str, wins_a: Sequence[bool],
                 mode_b: str, wins_b: Sequence[bool]) -> PairedDelta:
    if len(wins_a) != len(wins_b):
        raise ValueError("paired comparison needs equal game counts")
    if not wins_a:
        raise ValueError("paired comparison needs at least one game")
    d = [int(a) - int(b) for a, b in zip(wins_a, wins_b)]
    delta = statistics.fmean(d)
    se = statistics.stdev(d) / math.sqrt(len(d)) if len(d) > 1 else 0.0
    z = delta / se if se > 0 else (math.copysign(math.inf, delta) if delta else 0.0)
    p = 0.5 * math.erfc(z / math.sqrt(2))
    return PairedDelta(mode_a, mode_b, delta, se, z, p)


def run_ablation(board: Union[BoardSpec, str], games: int, base_seed: int = 0,
                 modes: Sequence[str] = ("logic", "exact", "full"),
                 config: Optional[SolverConfig] = None) -> AblationReport:
    """Same seeds under each pipeline truncation, plus paired win deltas;
    every setting but the mode comes from `config`. ValueError, before any
    game is played, unless `modes` is a non-empty list of distinct modes."""
    if not modes or len(set(modes)) < len(modes) or not set(modes) <= set(MODES):
        raise ValueError(f"modes must be distinct values from {MODES}, got {modes!r}")
    spec = difficulty_spec(board) if isinstance(board, str) else board
    config = config or SolverConfig()
    reports = {
        mode: run_batch(spec, games, base_seed, config=replace(config, mode=mode))
        for mode in modes
    }
    deltas = []
    for i, weaker in enumerate(modes):
        for stronger in modes[i + 1:]:
            deltas.append(paired_delta(
                stronger, [g.won for g in reports[stronger].per_game],
                weaker, [g.won for g in reports[weaker].per_game],
            ))
    return AblationReport(
        board=spec, games=games, base_seed=base_seed,
        reports=reports, deltas=deltas,
    )


def format_report_text(report: BatchReport) -> str:
    b = report.board
    t = report.move_time_ms
    lo, hi = report.wilson_95
    lines = [
        f"board             {b.width}x{b.height}/{b.mine_count}"
        f"{' (first-click-safe)' if b.first_click_safe else ''}",
        f"mode              {report.mode}",
        f"games             {report.games}   base_seed {report.base_seed}",
        f"wins              {report.wins}",
        f"win_rate          {report.win_rate:.4f}   wilson95 [{lo:.4f}, {hi:.4f}]",
        f"first_move_losses {report.first_move_losses}",
        f"move_time_ms      mean {t['mean']:.2f}   p50 {t['p50']:.2f}   "
        f"p99 {t['p99']:.2f}   max {t['max']:.2f}",
    ]
    return "\n".join(lines) + "\n"


def format_report_csv(report: BatchReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["seed", "won", "loss_on_first_move", "n_moves", "max_move_ms"])
    for g in report.per_game:
        writer.writerow([g.seed, int(g.won), int(g.loss_on_first_move),
                         g.n_moves, f"{g.max_move_ms:.3f}"])
    return buf.getvalue()


def format_ablation_text(report: AblationReport) -> str:
    lines = [f"{'mode':<8} {'wins':>6} {'win_rate':>9} {'wilson95':>20}"]
    for mode, rep in report.reports.items():
        lo, hi = rep.wilson_95
        lines.append(
            f"{mode:<8} {rep.wins:>6} {rep.win_rate:>9.4f} "
            f"[{lo:.4f}, {hi:.4f}]"
        )
    lines.append("")
    for d in report.deltas:
        lines.append(
            f"{d.mode_a} - {d.mode_b}: delta {d.delta:+.4f}  se {d.std_err:.4f}  "
            f"z {d.z_score:.2f}  p(one-sided) {d.p_one_sided:.2e}"
        )
    return "\n".join(lines) + "\n"


def format_ablation_csv(report: AblationReport) -> str:
    modes = list(report.reports)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["seed"] + [f"won_{m}" for m in modes])
    for rows in zip(*(report.reports[m].per_game for m in modes)):
        writer.writerow([rows[0].seed] + [int(r.won) for r in rows])
    return buf.getvalue()
