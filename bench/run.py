#!/usr/bin/env python3
"""Fixed-seed serial benchmark for minesolve.

Run from the repository root:

    python3 bench/run.py --workload simple-full --seed 0 --seconds 45 --trace 0

One process plays whole games one after another through the public API
(new_board, next_move, reveal) from the sources under src/, until
--seconds have passed; the game in progress then finishes. Every move is
checked, and the last line of stdout is one JSON object with the
metrics. --trace 0 prints the end-to-end metrics, with every time scaled
to a reference host speed (see speed.py). --trace 1 plays a
fixed number of games, scaled by --seconds, with every call
minesolve.policy makes wrapped in a span (see spans.py), prints
per-layer metrics, and replays each game untraced to report the tracing
overhead and to check the win/loss sequence is unchanged.

Game i of a run uses board seed 5000 + 1_000_000 * seed + i, so seed 0
replays the boards 5000, 5001, ... of the ROADMAP baseline.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from hashlib import blake2b
from itertools import count, islice
from pathlib import Path
from time import perf_counter

from spans import LAYERS, Tracer
from speed import REF_PROBE_MS, sample_ms, scaled

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

BUDGET_MS = 5000.0
BASE_SEED = 5000
SEED_STRIDE = 1_000_000
SETUP_REPEATS = 7


@dataclass(frozen=True)
class Workload:
    width: int
    height: int
    mines: int
    mode: str
    # traced runs play this many games per --seconds, about half the
    # untraced rate at the baseline, since each game is also replayed
    # untraced: a fixed count makes the count metrics repeat
    traced_games_per_s: float


WORKLOADS = {
    # most time is in sample_group: shows counting changes, hides
    # constraint changes
    "simple-full": Workload(8, 8, 10, "full", 10),
    # the sampler never runs and extract+reduce dominate: the bypass case
    # for counting changes
    "hard-exact": Workload(30, 16, 99, "exact", 3),
}

END_TO_END_UNITS = {
    "move_ms_p50": "ms",
    "move_ms_p90": "ms",
    "guess_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def load_minesolve():
    """Import minesolve from this checkout's src/, never from elsewhere."""
    if not (SRC / "minesolve" / "__init__.py").is_file():
        sys.exit(f"error: minesolve sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import minesolve
    import minesolve.policy
    if Path(minesolve.__file__).resolve().parent != SRC / "minesolve":
        sys.exit(f"error: imported minesolve from {minesolve.__file__}, not {SRC}")
    return minesolve


@dataclass
class Game:
    seed: int
    outcome: str = "E"  # W, L, or E when the game raised
    move_ms: list[float] = field(default_factory=list)
    guess_at: list[int] = field(default_factory=list)  # indices into move_ms
    # speed samples (speed.py) before each move and after the last one
    probe_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed_moves: int = 0
    problems: list[str] = field(default_factory=list)


def play_game(ms, spec, config, tracer=None, probe_speed=False) -> Game:
    """One game, each move timed around next_move + reveal and checked.

    A move fails if it raises, exceeds the budget, or is a forced reveal
    that hits a mine. A game that raises counts one failed move and keeps
    its board text; the caller goes on with the next game. With
    probe_speed, host speed is sampled between moves, outside the timing.
    """
    policy = ms.policy  # names looked up per call so trace wrappers apply
    game = Game(spec.seed)
    state = None
    try:
        if tracer is not None:
            tracer.move = (spec.seed, -1)
        state = policy.new_board(spec)
        while state.status is ms.GameStatus.IN_PROGRESS:
            move = len(game.move_ms)
            game.attempted += 1
            if move >= spec.cells:  # every reveal opens at least one cell
                game.failed_moves += 1
                game.problems.append(f"no end after {move} moves")
                break
            if tracer is not None:
                tracer.move = (spec.seed, move)
            if probe_speed:
                game.probe_ms.append(sample_ms())
            t0 = perf_counter()
            decision = policy.next_move(state, BUDGET_MS, config)
            outcome = policy.reveal(state, decision.cell)
            move_ms = (perf_counter() - t0) * 1000.0
            game.move_ms.append(move_ms)
            if decision.kind is ms.MoveKind.GUESS:
                game.guess_at.append(move)
            bad = []
            if move_ms > BUDGET_MS:
                bad.append(f"move {move} took {move_ms:.1f} ms")
            if outcome.mine and decision.kind is ms.MoveKind.REVEAL_SAFE:
                bad.append(f"forced move {move} at {tuple(decision.cell)} hit a mine")
            if bad:
                game.failed_moves += 1
                game.problems.extend(bad)
        if state.status is ms.GameStatus.WON:
            game.outcome = "W"
        elif state.status is ms.GameStatus.LOST:
            game.outcome = "L"
    except Exception:
        game.outcome = "E"
        game.attempted = max(game.attempted, 1)  # new_board counts as a move
        game.failed_moves += 1
        board = ms.render_board(state) if state is not None else "(no board)\n"
        game.problems.append(f"raised:\n{traceback.format_exc()}{board}")
    if probe_speed:
        game.probe_ms.append(sample_ms())
    return game


def board(ms, workload: Workload, board_seed: int):
    return ms.BoardSpec(workload.width, workload.height, workload.mines, seed=board_seed)


def boards(ms, workload: Workload, seed: int):
    """The run's inputs: board seeds first, first + 1, ... for this --seed."""
    first = BASE_SEED + SEED_STRIDE * seed
    for i in count():
        yield board(ms, workload, first + i)


def play_games(ms, workload: Workload, seed: int, seconds: float) -> tuple[list[Game], float]:
    """Games in board order until `seconds` have passed."""
    config = ms.SolverConfig(budget_ms=BUDGET_MS, mode=workload.mode)
    games: list[Game] = []
    start = perf_counter()
    for spec in boards(ms, workload, seed):
        if perf_counter() - start >= seconds:
            break
        games.append(play_game(ms, spec, config, probe_speed=True))
    return games, perf_counter() - start


def warm_up(ms, workload: Workload) -> None:
    """Fill lazy caches (neighbor tables, numpy code paths) before timing:
    play the boards with fixed seeds 0, 1, ... until one game has guessed."""
    config = ms.SolverConfig(budget_ms=BUDGET_MS, mode=workload.mode)
    for seed in range(100):
        if play_game(ms, board(ms, workload, seed), config).guess_at:
            return


def outcome_hash(games: list[Game]) -> str:
    """Digest of the (board seed, W/L/E) sequence; equal runs, equal hash."""
    h = blake2b(digest_size=8)
    for game in games:
        h.update(f"{game.seed}:{game.outcome};".encode())
    return h.hexdigest()


def setup_probe(workload_name: str) -> None:
    """Child process body: time the import plus the warm-up, print seconds."""
    start = perf_counter()
    ms = load_minesolve()
    warm_up(ms, WORKLOADS[workload_name])
    print(perf_counter() - start)


def measure_setup_s(workload_name: str) -> float:
    """Median over fresh interpreters of import + warm-up time. Not scaled:
    the import is one block of work, and speed samples at its ends miss
    the spells inside it (see README.md)."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload_name],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


@dataclass
class Summary:
    games: int
    attempted: int
    failed: int
    wins: int
    games_per_s: float
    hash: str

    @property
    def win_rate(self) -> float:
        return self.wins / self.games

    @property
    def move_fail_rate(self) -> float:
        return self.failed / self.attempted


def summarize(games: list[Game], elapsed: float) -> Summary:
    return Summary(
        games=len(games),
        attempted=sum(g.attempted for g in games),
        failed=sum(g.failed_moves for g in games),
        wins=sum(g.outcome == "W" for g in games),
        games_per_s=len(games) / elapsed,
        hash=outcome_hash(games),
    )


def report_problems(games: list[Game]) -> None:
    for game in games:
        for problem in game.problems:
            print(f"FAILED board seed {game.seed}: {problem}")


def print_table(rows: list[tuple[str, float, str]]) -> None:
    width = max(len(name) for name, _, _ in rows)
    for name, value, unit in rows:
        print(f"  {name:<{width}}  {value:>14.6g}  {unit}")


def time_metrics(games: list[Game], scale: bool) -> dict[str, float]:
    """Move time percentiles over every move, scaled to the reference host
    speed or as timed."""
    moves, guesses = [], []
    for game in games:
        times = scaled(game.move_ms, game.probe_ms) if scale else game.move_ms
        moves.extend(times)
        guesses.extend(times[i] for i in game.guess_at)
    return {
        "move_ms_p50": statistics.median(moves),
        "move_ms_p90": statistics.quantiles(moves, n=10)[-1],
        "guess_ms_p50": statistics.median(guesses),
    }


def run_untraced(ms, name: str, workload: Workload, seed: int, seconds: float) -> dict:
    setup_s = measure_setup_s(name)
    warm_up(ms, workload)
    games, elapsed = play_games(ms, workload, seed, seconds)
    s = summarize(games, elapsed)
    n_moves = sum(len(g.move_ms) for g in games)
    n_guesses = sum(len(g.guess_at) for g in games)
    probes = [p for g in games for p in g.probe_ms]
    metrics = {
        **time_metrics(games, scale=True),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = time_metrics(games, scale=False)
    report_problems(games)
    print(f"{name} seed {seed}: {len(games)} boards, {n_moves} moves, "
          f"{n_guesses} guesses in {elapsed:.2f} s; speed samples: median "
          f"{statistics.median(probes):.4f} ms against {REF_PROBE_MS} ms")
    print_table([
        ("games_per_s", s.games_per_s, "1/s"),
        ("move_ms_p50", metrics["move_ms_p50"], "ms"),
        ("move_ms_p90", metrics["move_ms_p90"], "ms"),
        ("guess_ms_p50", metrics["guess_ms_p50"], "ms"),
        ("win_rate", s.win_rate, "ratio"),
        ("move_fail_rate", s.move_fail_rate, "ratio"),
        ("setup_s", metrics["setup_s"], "s"),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB"),
        ("unscaled.move_ms_p50", raw["move_ms_p50"], "ms"),
        ("unscaled.move_ms_p90", raw["move_ms_p90"], "ms"),
        ("unscaled.guess_ms_p50", raw["guess_ms_p50"], "ms"),
    ])
    print(f"win/loss hash {name} seed {seed}: {s.hash}")
    return {
        "correct": s.failed == 0,
        "attempted": s.attempted,
        "failed": s.failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
    }


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def run_traced(ms, name: str, workload: Workload, seed: int, seconds: float) -> dict:
    warm_up(ms, workload)
    config = ms.SolverConfig(budget_ms=BUDGET_MS, mode=workload.mode)
    tracer = Tracer(ms.policy)
    traced, replay = [], []
    traced_s = replay_s = 0.0
    # each board is played traced, then replayed untraced, so that drift in
    # machine speed over the run cancels out of the overhead ratio
    start = perf_counter()
    n_games = max(1, round(workload.traced_games_per_s * seconds))
    for spec in islice(boards(ms, workload, seed), n_games):
        t0 = perf_counter()
        with tracer.installed():
            traced.append(play_game(ms, spec, config, tracer))
        t1 = perf_counter()
        replay.append(play_game(ms, spec, config))
        traced_s += t1 - t0
        replay_s += perf_counter() - t1
    st, su = summarize(traced, traced_s), summarize(replay, replay_s)
    spans_path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl.gz"
    tracer.write(spans_path, start)

    calls, incl, c, err = tracer.calls(), tracer.inclusive_s(), tracer.counts, tracer.errors
    self_s = tracer.self_s_by_layer()
    rows = [
        ("engine.new_board.s", incl["new_board"], "s"),
        ("engine.reveal.calls", calls["reveal"], "count"),
        ("engine.reveal.s", incl["reveal"], "s"),
        ("constraints.extract.calls", calls["extract_constraints"], "count"),
        ("constraints.extract.s", incl["extract_constraints"], "s"),
        ("constraints.extract.constraints", c["constraints.extract.constraints"], "count"),
        ("constraints.reduce.calls", calls["reduce_system"], "count"),
        ("constraints.reduce.s", incl["reduce_system"], "s"),
        ("constraints.reduce.steps", c["constraints.reduce.steps"], "count"),
        ("constraints.reduce.safe_found", c["constraints.reduce.safe_found"], "count"),
        ("grouping.partition.calls", calls["partition"], "count"),
        ("grouping.partition.s", incl["partition"], "s"),
        ("grouping.partition.groups", c["grouping.partition.groups"], "count"),
        ("grouping.partition.group_vars_max", c["grouping.partition.group_vars_max"], "count"),
        ("exact.enumerate.calls", calls["enumerate_group"], "count"),
        ("exact.enumerate.s", incl["enumerate_group"], "s"),
        ("exact.enumerate.nodes_visited", c["exact.enumerate.nodes_visited"], "count"),
        ("exact.enumerate.too_large", err["enumerate_group", "GroupTooLargeError"], "count"),
        ("exact.success_ratio",
         ratio(c["exact.enumerate.tallies"], calls["enumerate_group"]), "ratio"),
        ("sampling.sample.calls", calls["sample_group"], "count"),
        ("sampling.sample.s", incl["sample_group"], "s"),
        ("sampling.sample.draws", c["sampling.sample.draws"], "count"),
        ("sampling.sample.starved", err["sample_group", "SamplingStarvedError"], "count"),
        ("combine.calls", calls["combine"], "count"),
        ("combine.s", incl["combine"], "s"),
        ("combine.infeasible", err["combine", "CombineInfeasibleError"]
         + err["combine", "InconsistentGroupError"], "count"),
        ("policy.next_move.calls", calls["next_move"], "count"),
        ("policy.next_move.s", incl["next_move"], "s"),
        *[(f"policy.moves.{k}", c[f"policy.moves.{k}"], "count")
          for k in ("first", "safe", "guess")],
        *[(f"policy.depth.{k}", c[f"policy.depth.{k}"], "count")
          for k in ("logic", "exact", "sampled", "fallback")],
        ("policy.safe_used_ratio",
         ratio(c["policy.moves.safe"], c["constraints.reduce.safe_found"]), "ratio"),
        *[(f"{layer}.self_s", self_s[layer], "s") for layer in LAYERS],
        ("share.sampling", 100.0 * incl["sample_group"] / traced_s, "%"),
        ("share.extract_reduce",
         100.0 * (incl["extract_constraints"] + incl["reduce_system"]) / traced_s, "%"),
        ("games.count", st.games, "count"),
        ("games.win_rate", st.win_rate, "ratio"),
        ("games.move_fail_rate", st.move_fail_rate, "ratio"),
        ("trace.games_per_s", st.games_per_s, "1/s"),
        ("untraced.games_per_s", su.games_per_s, "1/s"),
        ("trace.overhead", traced_s / replay_s, "ratio"),
        ("trace.uncalled", len(tracer.uncalled()), "count"),
        ("trace.spans", len(tracer.spans), "count"),
    ]

    report_problems(traced + replay)
    print(f"{name} seed {seed}: {st.games} games, {traced_s:.2f} s traced, "
          f"{replay_s:.2f} s replayed untraced; spans in {spans_path.relative_to(ROOT)}")
    print_table(rows)
    print(f"never called: {', '.join(tracer.uncalled()) or '(none)'}")
    print(f"win/loss hash {name} seed {seed}: traced {st.hash}, untraced {su.hash}")
    if st.hash != su.hash:
        print("FAILED: tracing changed the win/loss sequence")
    return {
        "correct": st.failed == 0 and su.failed == 0 and st.hash == su.hash,
        "attempted": st.attempted + su.attempted,
        "failed": st.failed + su.failed,
        "metrics": {metric: {"value": value, "unit": unit} for metric, value, unit in rows},
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="Fixed-seed serial minesolve benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="input seed, >= 0")
    parser.add_argument("--seconds", type=float, default=45.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload)
        return
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    ms = load_minesolve()
    run = run_traced if args.trace else run_untraced
    result = run(ms, args.workload, WORKLOADS[args.workload], args.seed, args.seconds)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
