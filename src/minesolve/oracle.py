"""Ground-truth probabilities by brute force, for small positions.

Deliberately shares no machinery with the solving pipeline: it tries
every placement of the remaining mines over the covered cells, keeps those
that give each clue the mined neighbours it still needs, and reports exact
per-cell mine frequencies as rationals. Plain Python and slow on purpose;
it exists to check the pipeline, not to play.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Mapping, Optional

from .engine import Cell, GameState

MAX_OPEN_CELLS = 25


class OracleLimitError(ValueError):
    """Too many covered cells for brute-force enumeration."""


class NoConsistentPlacementError(ValueError):
    """No mine placement matches the revealed values."""


def exact_view_probabilities(width: int, height: int,
                             clues: Mapping[Cell, int],
                             covered: set[Cell],
                             total_mines: int,
                             known: Optional[Mapping[Cell, int]] = None,
                             ) -> dict[Cell, Fraction]:
    """Exact mine probability for every covered, unassigned cell of a view.

    clues maps each revealed cell to its displayed value. known maps cells
    to 0 (safe) or 1 (mine) and is honored in every placement.
    """
    known = dict(known) if known else {}
    open_cells = sorted(c for c in covered if c not in known)
    remaining = total_mines - sum(v for v in known.values() if v == 1)
    if len(open_cells) > MAX_OPEN_CELLS:
        raise OracleLimitError(
            f"{len(open_cells)} covered cells exceeds limit {MAX_OPEN_CELLS}"
        )
    if remaining < 0 or remaining > len(open_cells):
        raise NoConsistentPlacementError(
            f"{remaining} mines cannot be placed on {len(open_cells)} cells"
        )

    def around(cell: Cell) -> list[Cell]:
        out = []
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                if dr == 0 and dc == 0:
                    continue
                rr, cc = cell.row + dr, cell.col + dc
                if 0 <= rr < height and 0 <= cc < width:
                    out.append(Cell(rr, cc))
        return out

    pos = {cell: i for i, cell in enumerate(open_cells)}
    # each clue: which open cells it touches, and how many of them must be mines
    clue_rows = []
    for cell, value in clues.items():
        touch = set()
        want = value
        for nb in around(cell):
            if nb in pos:
                touch.add(pos[nb])
            elif known.get(nb) == 1:
                want -= 1
        clue_rows.append((touch, want))

    hits = [0] * len(open_cells)
    consistent = 0
    for placement in combinations(range(len(open_cells)), remaining):
        if all(len(touch.intersection(placement)) == want
               for touch, want in clue_rows):
            consistent += 1
            for i in placement:
                hits[i] += 1

    if consistent == 0:
        raise NoConsistentPlacementError("no placement matches the clues")
    return {cell: Fraction(hits[i], consistent) for i, cell in enumerate(open_cells)}


def exact_board_probabilities(state: GameState,
                              known: Optional[Mapping[Cell, int]] = None,
                              ) -> dict[Cell, Fraction]:
    """Exact probabilities for a live game, from its visible side only."""
    spec = state.spec
    clues: dict[Cell, int] = {}
    covered: set[Cell] = set()
    for i in range(spec.cells):
        cell = spec.cell(i)
        if state.revealed[i]:
            clues[cell] = state.values[i]
        else:
            covered.add(cell)
    return exact_view_probabilities(
        spec.width, spec.height, clues, covered, spec.mine_count, known
    )
