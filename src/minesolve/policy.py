"""Move selection: run the pipeline under a per-move time budget.

Each call works from the visible board alone: extract equations, reduce
them, and reveal a forced-safe cell if one exists. A reduction usually
proves several cells safe at once; the smallest is returned and the rest
are queued against the game, so later calls on the same game reveal them
without solving again. Only when logic is stuck does the probabilistic
stage run: exact tallies for small groups and sampling for oversized
ones with whatever time is left, all fused with the mine budget by
`combine`. The move is the minimum-probability covered cell. If no
probability map can be built in time, a cheap per-constraint estimate
picks the guess instead. The modes truncate this pipeline: `exact` is
`full` without the sampler, so a guess with an oversized group takes the
estimate, and `logic` always takes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from hashlib import blake2b
from operator import itemgetter
from time import monotonic
from typing import Mapping, Optional, Union

from .combine import BoardContext, CombineInfeasibleError, combine
from .constraints import (
    ConstraintSystem,
    deductions,
    extract_constraints,
    reduce_system,
)
from .engine import (
    BoardSpec,
    Cell,
    GameState,
    GameStatus,
    InvalidMoveError,
    cell_table,
    new_board,
    reveal,
)
from .exact import GroupTooLargeError, enumerate_group
from .grouping import Group, partition
from .sampling import SamplingStarvedError, sample_group

MODES = ("full", "exact", "logic")

# reserved for assembling the move out of tallies and the final argmin; at
# most a quarter of the budget, so counting still gets time at small budgets
_BUDGET_RESERVE_S = 0.15


@dataclass
class _SafeQueue:
    """Cells proven safe for one game that may still be covered; kept in
    that game's `GameState.solver_memo`.

    Valid while the game's move log extends the log the cells were deduced
    from: a growing view never makes a proven-safe cell unsafe.
    """

    moves_seen: int
    last_move: Optional[tuple]
    cells: list[Cell]  # descending, so the smallest is last


def _queued_safe(state: GameState) -> Optional[Cell]:
    """Smallest still-covered queued cell, or None (dropping the queue)
    when it is used up or the move log diverged. The cell stays queued
    until it is revealed, so asking twice without a reveal gives the same
    answer."""
    queue = state.solver_memo
    if not isinstance(queue, _SafeQueue):
        return None
    n, moves = queue.moves_seen, state.moves
    if len(moves) >= n and (n == 0 or moves[n - 1] is queue.last_move):
        spec, revealed, cells = state.spec, state.revealed, queue.cells
        while cells:
            if not revealed[spec.index(cells[-1])]:
                return cells[-1]
            cells.pop()
    state.solver_memo = None
    return None


def _queue_safe(state: GameState, safe: set[Cell]) -> Cell:
    """Queue every safe cell for the following calls; return the smallest."""
    moves = state.moves
    queue = _SafeQueue(len(moves), moves[-1] if moves else None,
                       sorted(safe, reverse=True))
    state.solver_memo = queue
    return queue.cells[-1]


def _view_seed(revealed: list[bool]) -> int:
    """Digest of the revealed mask: a sampler seed that depends only on
    what the solver can see, not on how many moves led there."""
    return int.from_bytes(blake2b(bytes(revealed), digest_size=8).digest(), "big")


class MoveKind(Enum):
    FIRST_MOVE = "first_move"
    REVEAL_SAFE = "reveal_safe"
    GUESS = "guess"


def _checked_budget(budget_ms: float) -> float:
    """budget_ms itself, or ValueError unless it is positive (NaN is not)."""
    if not budget_ms > 0:
        raise ValueError(f"budget_ms must be positive, got {budget_ms!r}")
    return budget_ms


@dataclass(frozen=True)
class SolverConfig:
    budget_ms: float = 5000.0
    mode: str = "full"
    first_move: Union[str, tuple[int, int]] = "center"

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        _checked_budget(self.budget_ms)


@dataclass(frozen=True)
class MoveDecision:
    kind: MoveKind
    cell: Cell
    prob: float
    elapsed_ms: float
    pipeline_depth: str


@dataclass(frozen=True)
class MoveRecord:
    cell: Cell
    kind: str
    pipeline_depth: str
    prob: float
    move_ms: float
    result: object  # revealed value, or "boom"


@dataclass
class GameRecord:
    spec: BoardSpec
    seed: int
    won: bool
    loss_on_first_move: bool
    moves: list[MoveRecord] = field(default_factory=list)

    def move_times_ms(self) -> list[float]:
        return [m.move_ms for m in self.moves]


def first_move(spec: BoardSpec) -> Cell:
    """Deterministic opening: the board center."""
    return Cell(spec.height // 2, spec.width // 2)


def derive_seed(*parts: int) -> int:
    """Stable 64-bit seed from integer parts (same on every platform)."""
    h = blake2b(digest_size=8)
    for p in parts:
        h.update(int(p).to_bytes(16, "big", signed=True))
    return int.from_bytes(h.digest(), "big")


def argmin_cell(probs: Mapping[Cell, float]) -> tuple[Cell, float]:
    """Lowest-probability cell; ties go to the lowest row-major index."""
    cell, prob = min(probs.items(), key=itemgetter(1, 0))
    return cell, prob


def _opening_cell(spec: BoardSpec, config: SolverConfig) -> Cell:
    choice = config.first_move
    if choice == "center":
        return first_move(spec)
    if choice == "corner":
        return Cell(0, 0)
    if isinstance(choice, str):
        try:
            r, c = (int(x) for x in choice.split(","))
        except ValueError:
            raise ValueError(f"bad first_move {choice!r}") from None
    else:
        r, c = choice
    cell = Cell(r, c)
    if not spec.in_bounds(cell):
        raise ValueError(f"first_move {cell} out of bounds")
    return cell


def _heuristic_probs(system: ConstraintSystem, sea_size: int,
                     remaining_mines: int) -> tuple[dict[Cell, float], float]:
    """(probs, sea_prob) estimated without counting: a group cell gets the
    mean rhs/|vars| over the constraints containing it, and every sea cell
    the uniform share of the remaining mines."""
    sums: dict[Cell, float] = {}
    hits: dict[Cell, int] = {}
    for constraint in system.constraints:
        density = constraint.rhs / len(constraint.vars)
        for cell in constraint.vars:
            sums[cell] = sums.get(cell, 0.0) + density
            hits[cell] = hits.get(cell, 0) + 1
    probs = {cell: sums[cell] / hits[cell] for cell in sums}
    if not sea_size:
        return probs, 0.0
    return probs, min(1.0, max(0.0, remaining_mines / sea_size))


def next_move(state: GameState, budget_ms: Optional[float] = None,
              config: Optional[SolverConfig] = None) -> MoveDecision:
    """Decide one move for the current position within the time budget
    (`budget_ms` if given, else `config.budget_ms`; either must be
    positive)."""
    t0 = monotonic()
    config = config or SolverConfig()
    budget_s = (config.budget_ms if budget_ms is None
                else _checked_budget(budget_ms)) / 1000.0
    if state.status is not GameStatus.IN_PROGRESS:
        raise InvalidMoveError("game is over")
    spec = state.spec

    def done(kind: MoveKind, cell: Cell, prob: float, depth: str) -> MoveDecision:
        return MoveDecision(kind, cell, prob, (monotonic() - t0) * 1000.0, depth)

    if state.revealed_count() == 0:
        cell = _opening_cell(spec, config)
        prob = 0.0 if spec.first_click_safe else spec.mine_count / spec.cells
        return done(MoveKind.FIRST_MOVE, cell, prob, "logic")

    queued = _queued_safe(state)
    if queued is not None:
        return done(MoveKind.REVEAL_SAFE, queued, 0.0, "logic")

    reduced = reduce_system(extract_constraints(state))
    safe, found_mines = deductions(reduced)
    if safe:
        return done(MoveKind.REVEAL_SAFE, _queue_safe(state, safe), 0.0, "logic")

    remaining = spec.mine_count - len(found_mines)
    # the sea: covered cells that are neither assigned nor in any group
    placed = reduced.variables()
    placed.update(reduced.known)
    sea_size = spec.cells - state.revealed_count() - len(placed)

    fused: Optional[tuple[dict[Cell, float], float]] = None
    depth = "fallback"
    if config.mode != "logic":
        fused, depth = _probability_map(
            reduced, sea_size, remaining, config.mode,
            deadline=t0 + budget_s - min(_BUDGET_RESERVE_S, budget_s / 4),
            revealed=state.revealed,
        )
    if fused is None:
        fused = _heuristic_probs(reduced, sea_size, remaining)
    probs, sea_prob = fused
    if sea_size:
        # every sea cell shares sea_prob, so only the lowest row-major one
        # can win the argmin's tie rule
        table = cell_table(spec.width, spec.height)
        sea_cell = next(c for c, seen in zip(table, state.revealed)
                        if not seen and c not in placed)
        probs[sea_cell] = sea_prob
    cell, prob = argmin_cell(probs)
    return done(MoveKind.GUESS, cell, prob, depth)


def _probability_map(reduced: ConstraintSystem, sea_size: int,
                     remaining_mines: int, mode: str,
                     deadline: float, revealed: list[bool],
                     ) -> tuple[Optional[tuple[dict[Cell, float], float]], str]:
    """Tally every group and fuse the tallies with the mine budget through
    `combine`. Returns ((probs, sea_prob), depth), or (None, "fallback")
    when no usable map exists.

    `full` mode samples the groups too large to count with whatever time
    is left, seeded from the `revealed` mask. `exact` mode is `full`
    without the sampler: an oversized group leaves it without a map."""
    tallies = []
    oversized: list[tuple[int, Group]] = []
    for idx, group in enumerate(partition(reduced)):
        try:
            tallies.append(enumerate_group(group, deadline=deadline))
        except GroupTooLargeError:
            if mode == "exact":
                return None, "fallback"
            oversized.append((idx, group))

    for n_left, (idx, group) in enumerate(oversized):
        share = (deadline - monotonic()) / (len(oversized) - n_left)
        if share <= 0:
            return None, "fallback"
        try:
            tallies.append(sample_group(
                group, deadline=monotonic() + share,
                rng=derive_seed(_view_seed(revealed), idx),
            ))
        except SamplingStarvedError:
            return None, "fallback"
    try:
        fused = combine(tallies, BoardContext(remaining_mines, sea_size))
    except CombineInfeasibleError:
        return None, "fallback"
    return fused, "sampled" if oversized else "exact"


def play_game(spec: BoardSpec, config: Optional[SolverConfig] = None,
              seed: Optional[int] = None) -> GameRecord:
    """Play one full game; every move and its wall time are recorded."""
    config = config or SolverConfig()
    if seed is not None:
        spec = replace(spec, seed=seed)
    opening = _opening_cell(spec, config)
    state = new_board(spec, opening if spec.first_click_safe else None)
    record = GameRecord(spec=spec, seed=spec.seed, won=False,
                        loss_on_first_move=False)
    while state.status is GameStatus.IN_PROGRESS:
        t0 = monotonic()
        decision = next_move(state, config=config)
        outcome = reveal(state, decision.cell)
        record.moves.append(MoveRecord(
            cell=decision.cell,
            kind=decision.kind.value,
            pipeline_depth=decision.pipeline_depth,
            prob=decision.prob,
            move_ms=(monotonic() - t0) * 1000.0,
            result="boom" if outcome.mine else outcome.value,
        ))
    record.won = state.status is GameStatus.WON
    record.loss_on_first_move = not record.won and len(record.moves) == 1
    return record
