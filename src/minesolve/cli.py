"""Command-line benchmark runner.

    minesolve play --difficulty simple --games 1000 --seed 0 --out report.json
    minesolve play --width 9 --height 9 --mines 12 --games 50 --format text
    minesolve ablate --difficulty intermediate --games 500
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .engine import BoardConfigError, BoardSpec, DIFFICULTIES, difficulty_spec
from .harness import (
    format_ablation_csv,
    format_ablation_text,
    format_report_csv,
    format_report_text,
    run_ablation,
    run_batch,
)
from .policy import MODES, SolverConfig


def _add_board_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--difficulty", choices=sorted(DIFFICULTIES),
                        help="preset board (overrides width/height/mines)")
    parser.add_argument("--width", type=int)
    parser.add_argument("--height", type=int)
    parser.add_argument("--mines", type=int)
    parser.add_argument("--first-click-safe", action="store_true",
                        help="exclude the opening cell from mine placement")
    parser.add_argument("--games", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed; game i uses seed+i")
    parser.add_argument("--budget-ms", type=float, default=5000.0)
    parser.add_argument("--out", type=Path, help="write the report here")
    parser.add_argument("--format", choices=("json", "text", "csv"),
                        default="text")


def _board_from_args(args: argparse.Namespace) -> BoardSpec:
    if args.difficulty:
        return difficulty_spec(args.difficulty, first_click_safe=args.first_click_safe)
    if None in (args.width, args.height, args.mines):
        raise BoardConfigError(
            "specify --difficulty or all of --width/--height/--mines"
        )
    return BoardSpec(width=args.width, height=args.height, mine_count=args.mines,
                     first_click_safe=args.first_click_safe)


def _emit(body: str, out: Optional[Path]) -> None:
    if out is None:
        sys.stdout.write(body)
    else:
        out.write_text(body)
        print(f"wrote {out}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minesolve",
        description="Minesweeper solver benchmarks (MINESOLVE_THREADS "
                    "overrides the worker count)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    play = sub.add_parser("play", help="run a batch of games in one mode")
    _add_board_args(play)
    play.add_argument("--mode", choices=MODES, default="full")
    play.add_argument("--replay-dir", type=Path,
                      help="write a JSON move log for every lost game")

    ablate = sub.add_parser("ablate", help="compare modes over paired seeds")
    _add_board_args(ablate)
    ablate.add_argument("--modes", default="logic,exact,full",
                        help="comma-separated subset of logic,exact,full")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        board = _board_from_args(args)
        if args.out is not None:
            if not args.out.parent.is_dir():
                raise ValueError(f"--out directory {args.out.parent} does not exist")
            if args.out.is_dir():
                raise ValueError(f"--out {args.out} is a directory")
        config = SolverConfig(budget_ms=args.budget_ms,
                              mode=getattr(args, "mode", "full"))
        if args.command == "play":
            if args.replay_dir is not None:
                try:
                    args.replay_dir.mkdir(parents=True, exist_ok=True)
                except OSError as exc:
                    raise ValueError(
                        f"--replay-dir {args.replay_dir}: {exc.strerror}") from None
            report = run_batch(
                board, args.games, base_seed=args.seed, config=config,
                replay_dir=args.replay_dir,
            )
            body = {
                "json": lambda: json.dumps(report.to_dict(), indent=2) + "\n",
                "text": lambda: format_report_text(report),
                "csv": lambda: format_report_csv(report),
            }[args.format]()
            failed = report.failed
        else:
            modes = tuple(m.strip() for m in args.modes.split(",") if m.strip())
            report = run_ablation(
                board, args.games, base_seed=args.seed, modes=modes,
                config=config,
            )
            body = {
                "json": lambda: json.dumps(report.to_dict(), indent=2) + "\n",
                "text": lambda: format_ablation_text(report),
                "csv": lambda: format_ablation_csv(report),
            }[args.format]()
            failed = [f for r in report.reports.values() for f in r.failed]
        _emit(body, args.out)
        for game in failed:
            error = game.traceback.rstrip().splitlines()[-1]
            print(f"failed: game seed {game.seed} raised {error}", file=sys.stderr)
        return 1 if failed else 0
    except (BoardConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
