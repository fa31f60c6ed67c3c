"""Minesweeper engine, probabilistic solver, and benchmark harness."""

from .combine import (
    BoardContext,
    CombineInfeasibleError,
    combine,
    combine_by_enumeration,
)
from .constraints import (
    Constraint,
    ConstraintSystem,
    ContradictionError,
    deductions,
    extract_constraints,
    reduce_system,
)
from .engine import (
    BoardConfigError,
    BoardFormatError,
    BoardSpec,
    Cell,
    GameState,
    GameStatus,
    InvalidMoveError,
    RevealOutcome,
    difficulty_spec,
    neighbors,
    new_board,
    parse_board,
    render_board,
    reveal,
)
from .exact import (
    EXACT_VAR_LIMIT,
    GroupTally,
    GroupTooLargeError,
    InconsistentGroupError,
    enumerate_group,
)
from .grouping import Group, partition
from .policy import (
    GameRecord,
    MoveDecision,
    MoveKind,
    SolverConfig,
    first_move,
    next_move,
    play_game,
)
from .sampling import SamplingStarvedError, sample_group

# The harness and the oracle load on first access (PEP 562): play needs
# neither, and importing them eagerly (the harness pulls in
# concurrent.futures and multiprocessing) nearly doubled the benchmark's
# import-plus-warm-up time, 0.024 -> 0.044 s on hard-exact and
# 0.027 -> 0.057 s on simple-full (medians of 15 fresh interpreters).
_LAZY = {
    "AblationReport": "harness",
    "BatchReport": "harness",
    "run_ablation": "harness",
    "run_batch": "harness",
    "wilson_interval": "harness",
    "exact_board_probabilities": "oracle",
    "exact_view_probabilities": "oracle",
}

__all__ = sorted({name for name in dir() if not name.startswith("_")} | set(_LAZY))


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return __all__
