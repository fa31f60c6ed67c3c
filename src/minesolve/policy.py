"""Move selection: run the pipeline under a per-move time budget.

Each call works from the visible board alone: extract equations, reduce
them, and reveal a forced-safe cell if one exists. A reduction usually
proves several cells safe at once; the smallest is returned and the rest
are queued against the game with their ready decisions, so later calls
on the same game return them without solving again. Only when logic is
stuck does the probabilistic stage run: exact tallies for small groups
and sampling for oversized ones with whatever time is left, all fused
with the mine budget by `combine`. The move is the minimum-probability
covered cell. If no probability map can be built in time, a cheap
per-constraint estimate picks the guess instead. The modes truncate this
pipeline: `exact` is `full` without the sampler, so a guess with an
oversized group takes the estimate, and `logic` always takes it.

Guess positions repeat in structure, so the fused maps of the
`exact.MEMO_LIMIT` most recently used ones are kept process-wide, keyed
by every group's `BoxPlan.structure`, the remaining mines and the sea
size, which fix every count and so every fused float. A kept position
is answered without counting or combining, while the count memo still
holds each of its groups' structures; those are marked as used, so the
count memo ages as if they had been counted. The memo is read only
before the deadline and only when every group is small enough to count,
and written only from a map fused from counted groups alone: a sampled
group, an infeasible fusion or a deadline refusal keeps nothing.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace
from enum import Enum
from hashlib import blake2b
from operator import itemgetter
from time import monotonic
from typing import Mapping, NamedTuple, Optional

from .combine import CombineInfeasibleError, combine
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
    new_board,
    reveal,
)
from . import exact
from .exact import BoxPlan, GroupTooLargeError, enumerate_group, partition
from .sampling import SamplingStarvedError, sample_group

MODES = ("full", "exact", "logic")

# reserved for assembling the move out of tallies and the final argmin; at
# most a quarter of the budget, so counting still gets time at small budgets
_BUDGET_RESERVE_S = 0.15

# fused maps of recently guessed positions, least recently used first:
# (each group's box posteriors in plan order, sea_prob) by (the groups'
# structures, remaining mines, sea size)
_fused: OrderedDict[tuple, tuple[list[tuple[float, ...]], float]] = OrderedDict()


@dataclass
class _SafeQueue:
    """Cells proven safe for one game that may still be covered, each with
    the ready `MoveDecision` that reveals it; kept in that game's
    `GameState.solver_memo`, so serving one builds nothing.

    Valid while the game's move log extends the log the cells were deduced
    from: a growing view never makes a proven-safe cell unsafe.
    """

    moves_seen: int
    last_move: Optional[tuple]
    indices: list[int]  # flat indices, descending, so the smallest is last
    decisions: list[MoveDecision]  # the move for each index, in step


def _queue_safe(state: GameState, safe: set[Cell]) -> MoveDecision:
    """Queue every safe cell and its decision for the following calls;
    return the smallest cell's decision."""
    spec, moves, cells = state.spec, state.moves, state.cell_table
    indices = sorted((spec.index(c) for c in safe), reverse=True)
    decisions = [MoveDecision(_REVEAL_SAFE, cells[i], 0.0, "logic")
                 for i in indices]
    state.solver_memo = _SafeQueue(len(moves), moves[-1] if moves else None,
                                   indices, decisions)
    return decisions[-1]


def _sampler_seed(revealed: list[bool], group: int) -> int:
    """64-bit seed for sampling the position's group at index `group`: a
    digest of the revealed mask and that index, so it depends only on what
    the solver can see, not on how many moves led there, and is the same
    on every platform."""
    view = int.from_bytes(blake2b(bytes(revealed), digest_size=8).digest(), "big")
    key = view.to_bytes(16, "big") + group.to_bytes(16, "big")
    return int.from_bytes(blake2b(key, digest_size=8).digest(), "big")


class MoveKind(Enum):
    FIRST_MOVE = "first_move"
    REVEAL_SAFE = "reveal_safe"
    GUESS = "guess"


# read on every forced move; an Enum member read through its class costs
# more than a module global (see engine._IN_PROGRESS)
_IN_PROGRESS = GameStatus.IN_PROGRESS
_REVEAL_SAFE = MoveKind.REVEAL_SAFE


def _checked_budget(budget_ms: float) -> None:
    """ValueError unless budget_ms is positive (NaN is not)."""
    if not budget_ms > 0:
        raise ValueError(f"budget_ms must be positive, got {budget_ms!r}")


@dataclass(frozen=True)
class SolverConfig:
    budget_ms: float = 5000.0
    mode: str = "full"

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        _checked_budget(self.budget_ms)


# used when no config is given; frozen, so one instance serves every call
_DEFAULT_CONFIG = SolverConfig()


class MoveDecision(NamedTuple):
    """One move: what to reveal, why, and the pipeline depth that chose
    it. An immutable record: every field is read-only."""

    kind: MoveKind
    cell: Cell
    prob: float
    pipeline_depth: str


class MoveRecord(NamedTuple):
    """One played move and its wall time. An immutable record: every field
    is read-only."""

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


def argmin_cell(probs: Mapping[Cell, float]) -> tuple[Cell, float]:
    """Lowest-probability cell; ties go to the lowest row-major index."""
    cell, prob = min(probs.items(), key=itemgetter(1, 0))
    return cell, prob


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
    positive).

    After the budget and game-over checks, a cell still queued by an
    earlier solve of this game is returned before any other work: the
    ready decision of the smallest one still covered, while the move log
    extends the log it was deduced from. It stays queued until revealed,
    so asking twice without a reveal returns the same object. A used-up
    or diverged queue is dropped."""
    if budget_ms is not None and not budget_ms > 0:
        _checked_budget(budget_ms)
    if state.status is not _IN_PROGRESS:
        raise InvalidMoveError("game is over")
    queue = state.solver_memo
    if queue is not None:
        n, moves = queue.moves_seen, state.moves
        if len(moves) >= n and (n == 0 or moves[n - 1] is queue.last_move):
            revealed, indices = state.revealed, queue.indices
            decisions = queue.decisions
            while indices:
                if not revealed[indices[-1]]:
                    return decisions[-1]
                indices.pop()
                decisions.pop()
        state.solver_memo = None

    t0 = monotonic()
    config = config or _DEFAULT_CONFIG
    budget_s = (config.budget_ms if budget_ms is None else budget_ms) / 1000.0
    spec = state.spec
    if state.revealed_count() == 0:
        prob = 0.0 if spec.first_click_safe else spec.mine_count / spec.cells
        return MoveDecision(MoveKind.FIRST_MOVE, first_move(spec), prob, "logic")

    reduced = reduce_system(extract_constraints(state))
    safe, found_mines = deductions(reduced)
    if safe:
        return _queue_safe(state, safe)

    remaining = spec.mine_count - len(found_mines)
    # the sea: covered cells that are neither assigned nor in any group
    placed = reduced.variables()
    placed.update(reduced.derived)
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
        sea_cell = next(c for c, seen in zip(state.cell_table, state.revealed)
                        if not seen and c not in placed)
        probs[sea_cell] = sea_prob
    cell, prob = argmin_cell(probs)
    return MoveDecision(MoveKind.GUESS, cell, prob, depth)


def _probability_map(reduced: ConstraintSystem, sea_size: int,
                     remaining_mines: int, mode: str,
                     deadline: float, revealed: list[bool],
                     ) -> tuple[Optional[tuple[dict[Cell, float], float]], str]:
    """Tally every group and fuse the tallies with the mine budget through
    `combine`. Returns ((probs, sea_prob), depth), or (None, "fallback")
    when no usable map exists.

    `full` mode samples the groups too large to count with whatever time
    is left, seeded from the `revealed` mask. `exact` mode is `full`
    without the sampler: an oversized group leaves it without a map. A
    position the fused-map memo holds (see the module docstring) is
    answered from it, at depth "exact"."""
    plans = partition(reduced)
    key = None
    if monotonic() <= deadline and all(
            len(plan.vars) <= exact.EXACT_VAR_LIMIT for plan in plans):
        structures = tuple(plan.structure for plan in plans)
        key = (structures, remaining_mines, sea_size)
        kept = _fused.get(key)
        if kept is not None:
            _fused.move_to_end(key)
            # served only while every group's counts are kept too, which
            # it marks as used: the count memo then keeps and drops the
            # structures it would if they were counted
            if exact.counts_kept(structures):
                box_probs, sea_prob = kept
                probs: dict[Cell, float] = {}
                for plan, plan_probs in zip(plans, box_probs):
                    for box, p in zip(plan.boxes, plan_probs):
                        for cell in box:
                            probs[cell] = p
                return (probs, sea_prob), "exact"

    tallies = []
    oversized: list[tuple[int, BoxPlan]] = []
    for idx, group in enumerate(plans):
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
                rng=_sampler_seed(revealed, idx),
            ))
        except SamplingStarvedError:
            return None, "fallback"
    try:
        fused = combine(tallies, remaining_mines, sea_size)
    except CombineInfeasibleError:
        return None, "fallback"
    if oversized:
        return fused, "sampled"
    if key is not None:
        probs = fused[0]
        _fused[key] = ([tuple(probs[box[0]] for box in plan.boxes) for plan in plans],
                       fused[1])
        if len(_fused) > exact.MEMO_LIMIT:
            _fused.popitem(last=False)
    return fused, "exact"


def seeded_board(spec: BoardSpec, seed: Optional[int] = None) -> GameState:
    """The board `play_game(spec, seed=seed)` starts from: mines placed
    from `seed` (else spec.seed), clear of the first move on a
    first-click-safe board."""
    if seed is not None:
        spec = replace(spec, seed=seed)
    return new_board(spec, first_move(spec) if spec.first_click_safe else None)


def play_game(spec: BoardSpec, config: Optional[SolverConfig] = None,
              seed: Optional[int] = None) -> GameRecord:
    """Play one full game; every move and its wall time are recorded."""
    config = config or _DEFAULT_CONFIG
    state = seeded_board(spec, seed)
    spec = state.spec
    record = GameRecord(spec=spec, seed=spec.seed, won=False,
                        loss_on_first_move=False)
    while state.status is _IN_PROGRESS:
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
