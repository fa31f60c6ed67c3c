"""Minesweeper board generation, reveal mechanics, and text serialization."""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterator, NamedTuple, Optional


class Cell(NamedTuple):
    """Board coordinate. Tuple ordering gives row-major sorting for free."""

    row: int
    col: int


class GameStatus(Enum):
    IN_PROGRESS = "in_progress"
    WON = "won"
    LOST = "lost"


class BoardConfigError(ValueError):
    """Board parameters that cannot produce a valid game."""


# an Enum member read through its class costs ~0.1 µs on CPython 3.11, a
# module global ~0.01 µs; the per-move paths compare against this alias
_IN_PROGRESS = GameStatus.IN_PROGRESS


class InvalidMoveError(ValueError):
    """Reveal of an ineligible cell, or any move after the game ended."""


class BoardFormatError(ValueError):
    """Malformed board text passed to parse_board."""


@dataclass(frozen=True)
class BoardSpec:
    width: int
    height: int
    mine_count: int
    first_click_safe: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise BoardConfigError(
                f"board must be at least 1x1, got {self.width}x{self.height}"
            )
        limit = self.cells - 1 if self.first_click_safe else self.cells
        if not 0 <= self.mine_count <= limit:
            raise BoardConfigError(
                f"mine_count={self.mine_count} out of range for "
                f"{self.width}x{self.height} board"
                f"{' with first_click_safe' if self.first_click_safe else ''}"
            )

    @property
    def cells(self) -> int:
        return self.width * self.height

    def index(self, cell: Cell) -> int:
        return cell[0] * self.width + cell[1]

    def cell(self, index: int) -> Cell:
        return Cell(*divmod(index, self.width))

    def in_bounds(self, cell: Cell) -> bool:
        return 0 <= cell[0] < self.height and 0 <= cell[1] < self.width


@lru_cache(maxsize=None)
def neighbor_table(width: int, height: int) -> tuple[tuple[int, ...], ...]:
    """Flat-index neighbor lists for every cell of a width x height board."""
    table = []
    for r in range(height):
        for c in range(width):
            idxs = []
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    if dr == 0 and dc == 0:
                        continue
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < height and 0 <= cc < width:
                        idxs.append(rr * width + cc)
            table.append(tuple(idxs))
    return tuple(table)


@lru_cache(maxsize=None)
def cell_table(width: int, height: int) -> tuple[Cell, ...]:
    """The Cell at every flat index of a width x height board."""
    return tuple(Cell(r, c) for r in range(height) for c in range(width))


class RevealOutcome(NamedTuple):
    """Result of one reveal: a mine hit, or a value plus the cells opened.
    An immutable record: every field is read-only."""

    mine: bool
    value: Optional[int]
    opened: frozenset[Cell]


class GameState:
    """Hidden mine layout plus revealed mask, move log, and game status.

    Single-writer: reveal() mutates the state in place. Snapshots for
    concurrent readers should be taken via parse/render or copy().
    `solver_memo` is scratch the solver keeps between calls on this very
    object; the engine never reads it, and copies start without it.
    `cell_table` and `neighbor_table` are the board's shared tables, held
    here so a move reads them without a cache lookup.
    """

    __slots__ = ("spec", "mines", "values", "revealed", "status", "moves",
                 "solver_memo", "cell_table", "neighbor_table",
                 "_revealed_count", "_safe_total")

    def __init__(self, spec: BoardSpec, mines: list[bool],
                 revealed: Optional[list[bool]] = None) -> None:
        if len(mines) != spec.cells:
            raise BoardConfigError("mine grid size does not match spec")
        if sum(mines) != spec.mine_count:
            raise BoardConfigError(
                f"mine grid has {sum(mines)} mines, spec says {spec.mine_count}"
            )
        self.spec = spec
        self.mines = mines
        self.revealed = revealed if revealed is not None else [False] * spec.cells
        if len(self.revealed) != spec.cells:
            raise BoardConfigError("revealed mask size does not match spec")
        self.cell_table = cell_table(spec.width, spec.height)
        self.neighbor_table = table = neighbor_table(spec.width, spec.height)
        self.values = [sum(mines[j] for j in table[i]) for i in range(spec.cells)]
        self.moves: list[tuple[Cell, object]] = []
        self.solver_memo: object = None
        self._safe_total = spec.cells - spec.mine_count
        self._revealed_count = sum(self.revealed)
        if any(m and r for m, r in zip(self.mines, self.revealed)):
            self.status = GameStatus.LOST
        elif self._revealed_count == self._safe_total:
            self.status = GameStatus.WON
        else:
            self.status = GameStatus.IN_PROGRESS

    def copy(self) -> "GameState":
        clone = GameState(self.spec, list(self.mines), list(self.revealed))
        clone.status = self.status
        clone.moves = list(self.moves)
        return clone

    def revealed_clues(self) -> Iterator[tuple[int, int]]:
        """(flat index, value) for every revealed cell. Read from the
        visible board alone: in a game still in progress no revealed cell
        is a mine."""
        revealed, values = self.revealed, self.values
        for i in range(self.spec.cells):
            if revealed[i]:
                yield i, values[i]

    def revealed_count(self) -> int:
        return self._revealed_count


def new_board(spec: BoardSpec, first_click: Optional[Cell] = None) -> GameState:
    """Place mines uniformly at random; deterministic for a given spec.seed.

    In first_click_safe mode the given first_click cell is excluded from
    mine placement; otherwise mines land anywhere and the first reveal can
    lose the game.
    """
    if spec.first_click_safe:
        if first_click is None:
            raise BoardConfigError("first_click_safe board needs a first_click")
        if not spec.in_bounds(first_click):
            raise BoardConfigError(f"first_click {first_click} out of bounds")
    rng = random.Random(spec.seed)
    eligible = list(range(spec.cells))
    if spec.first_click_safe:
        eligible.remove(spec.index(first_click))
    if spec.mine_count > len(eligible):
        raise BoardConfigError("mine_count exceeds eligible cells")
    mines = [False] * spec.cells
    for i in rng.sample(eligible, spec.mine_count):
        mines[i] = True
    return GameState(spec, mines)


def reveal(state: GameState, cell: Cell) -> RevealOutcome:
    """Open a covered cell. A numbered cell is opened alone, directly; only
    a zero-valued cell starts the cascade to its neighbors."""
    if state.status is not _IN_PROGRESS:
        raise InvalidMoveError("game is over")
    spec = state.spec
    width, height = spec.width, spec.height
    row, col = cell[0], cell[1]
    if not (0 <= row < height and 0 <= col < width):
        raise InvalidMoveError(f"cell {cell} out of bounds")
    start = row * width + col
    revealed = state.revealed
    if revealed[start]:
        raise InvalidMoveError(f"cell {cell} is already revealed")

    if state.mines[start]:
        revealed[start] = True
        state._revealed_count += 1
        state.status = GameStatus.LOST
        state.moves.append((cell, "boom"))
        return RevealOutcome(True, None, frozenset((cell,)))

    cells, values = state.cell_table, state.values
    value = values[start]
    revealed[start] = True
    if value:
        state._revealed_count += 1
        if state._revealed_count == state._safe_total:
            state.status = GameStatus.WON
        state.moves.append((cell, value))
        return RevealOutcome(False, value, frozenset((cells[start],)))

    table = state.neighbor_table
    flipped = [cells[start]]
    stack = [start]
    while stack:
        i = stack.pop()
        for j in table[i]:
            if not revealed[j]:
                revealed[j] = True
                flipped.append(cells[j])
                if values[j] == 0:
                    stack.append(j)
    opened = frozenset(flipped)
    state._revealed_count += len(opened)
    if state._revealed_count == state._safe_total:
        state.status = GameStatus.WON
    state.moves.append((cell, value))
    return RevealOutcome(False, value, opened)


def render_board(state: GameState) -> str:
    """Canonical text form: header, mine grid, blank line, revealed mask."""
    spec = state.spec
    lines = [f"{spec.width} {spec.height} {spec.mine_count}"]
    for r in range(spec.height):
        base = r * spec.width
        lines.append("".join(
            "*" if state.mines[base + c] else "." for c in range(spec.width)
        ))
    lines.append("")
    for r in range(spec.height):
        base = r * spec.width
        lines.append("".join(
            "R" if state.revealed[base + c] else "#" for c in range(spec.width)
        ))
    return "\n".join(lines) + "\n"


def parse_board(text: str) -> GameState:
    """Inverse of render_board. Status is derived from the two grids."""
    lines = text.splitlines()
    if not lines:
        raise BoardFormatError("empty board text")
    header = lines[0].split()
    if len(header) != 3:
        raise BoardFormatError(f"bad header {lines[0]!r}, want 'width height mines'")
    try:
        width, height, mine_count = (int(x) for x in header)
    except ValueError as exc:
        raise BoardFormatError(f"non-integer header {lines[0]!r}") from exc
    expected = 1 + height + 1 + height
    if len(lines) != expected:
        raise BoardFormatError(
            f"expected {expected} lines for a {width}x{height} board, got {len(lines)}"
        )
    if lines[1 + height] != "":
        raise BoardFormatError("missing blank separator between grids")

    def read_grid(rows: list[str], chars: dict[str, bool], what: str) -> list[bool]:
        flat: list[bool] = []
        for row in rows:
            if len(row) != width:
                raise BoardFormatError(f"ragged {what} row {row!r}, want width {width}")
            for ch in row:
                if ch not in chars:
                    raise BoardFormatError(f"bad character {ch!r} in {what} grid")
                flat.append(chars[ch])
        return flat

    mines = read_grid(lines[1:1 + height], {"*": True, ".": False}, "mine")
    revealed = read_grid(lines[2 + height:], {"R": True, "#": False}, "mask")
    if sum(mines) != mine_count:
        raise BoardFormatError(
            f"header says {mine_count} mines, grid has {sum(mines)}"
        )
    spec = BoardSpec(width=width, height=height, mine_count=mine_count)
    return GameState(spec, mines, revealed)


DIFFICULTIES: dict[str, tuple[int, int, int]] = {
    "simple": (8, 8, 10),
    "intermediate": (16, 16, 40),
    "hard": (30, 16, 99),
}


def difficulty_spec(name: str, first_click_safe: bool = False, seed: int = 0) -> BoardSpec:
    """BoardSpec for a named difficulty preset (width, height, mines)."""
    try:
        width, height, mines = DIFFICULTIES[name]
    except KeyError:
        raise BoardConfigError(
            f"unknown difficulty {name!r}, want one of {sorted(DIFFICULTIES)}"
        ) from None
    return BoardSpec(width=width, height=height, mine_count=mines,
                     first_click_safe=first_click_safe, seed=seed)
