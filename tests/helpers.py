"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import random
from itertools import product

from minesolve.combine import BoardContext, combine
from minesolve.constraints import (
    Constraint,
    ConstraintSystem,
    extract_constraints,
    reduce_system,
)
from minesolve.engine import BoardSpec, Cell, GameState, GameStatus, new_board, reveal
from minesolve.exact import enumerate_group
from minesolve.grouping import Group, partition

ONE_TWO_ONE_TEXT = "3 2 2\n*.*\n...\n\n###\nRRR\n"
A, B, C = Cell(0, 0), Cell(0, 1), Cell(0, 2)


def cells(*pairs: tuple[int, int]) -> list[Cell]:
    return [Cell(r, c) for r, c in pairs]


def con(vars_, rhs: int) -> Constraint:
    return Constraint(frozenset(vars_), rhs)


def system(*constraints: Constraint) -> ConstraintSystem:
    return ConstraintSystem(frozenset(constraints), {})


def tally_dict(tally) -> dict[tuple[Cell, int], float]:
    """A tally's per-cell counts keyed by (cell, k), for every k its rows hold."""
    return {(cell, k): x for cell, row in zip(tally.cells, tally.cell_counts)
            for k, x in enumerate(row)}


def marginals(tally) -> dict[Cell, float]:
    """Per-cell mine probability within one group, ignoring the global mine
    budget: the cell's share of the group's solutions."""
    total = sum(tally.counts)
    return {cell: sum(row) / total for cell, row in zip(tally.cells, tally.cell_counts)}


def brute_force_solutions(constraints, variables) -> list[dict[Cell, int]]:
    """All satisfying 0/1 assignments, by trying every combination."""
    variables = sorted(variables)
    out = []
    for bits in product((0, 1), repeat=len(variables)):
        assign = dict(zip(variables, bits))
        if all(sum(assign[v] for v in c.vars) == c.rhs for c in constraints):
            out.append(assign)
    return out


def random_consistent_system(rng: random.Random, n_vars: int,
                             n_constraints: int) -> ConstraintSystem:
    """Constraints generated as true sums of a hidden assignment, so the
    system is satisfiable by construction."""
    variables = [Cell(0, i) for i in range(n_vars)]
    hidden = {v: rng.randint(0, 1) for v in variables}
    constraints = set()
    for _ in range(50 * n_constraints):
        if len(constraints) >= n_constraints:
            break
        size = rng.randint(1, min(5, n_vars))
        chosen = rng.sample(variables, size)
        constraints.add(con(chosen, sum(hidden[v] for v in chosen)))
    return ConstraintSystem(frozenset(constraints), {})


def random_connected_group(rng: random.Random, n_vars: int,
                           n_constraints: int) -> Group:
    """A consistent group whose constraints chain over shared variables."""
    variables = [Cell(0, i) for i in range(n_vars)]
    hidden = {v: rng.randint(0, 1) for v in variables}
    for _ in range(100):
        constraints: set[Constraint] = set()
        uncovered = set(variables)
        for _ in range(100 * n_constraints):
            if len(constraints) >= n_constraints and not uncovered:
                break
            size = rng.randint(2, min(6, n_vars))
            start = rng.randrange(n_vars)
            chosen = [variables[(start + i) % n_vars] for i in range(size)]
            constraints.add(con(chosen, sum(hidden[v] for v in chosen)))
            uncovered -= set(chosen)
        groups = partition(ConstraintSystem(frozenset(constraints), {}))
        if len(groups) == 1 and not uncovered:
            return groups[0]
    raise AssertionError("could not generate a connected group")


def random_position(rng: random.Random, width: int = 5, height: int = 5,
                    mines: tuple[int, int] = (3, 6),
                    max_reveals: int = 6) -> GameState | None:
    """A mid-game state reached by revealing random safe cells, or None if
    the random playout finished the game."""
    spec = BoardSpec(width, height, rng.randint(*mines), seed=rng.getrandbits(32))
    state = new_board(spec)
    safe = [spec.cell(i) for i in range(spec.cells) if not state.mines[i]]
    rng.shuffle(safe)
    for cell in safe[:rng.randint(1, max_reveals)]:
        if state.status is not GameStatus.IN_PROGRESS:
            break
        if not state.is_revealed(cell):
            reveal(state, cell)
    if state.status is not GameStatus.IN_PROGRESS:
        return None
    return state


class PipelineResult:
    def __init__(self, probs: dict[Cell, float], unassigned_mass: float,
                 known: dict[Cell, int], remaining_mines: int) -> None:
        self.probs = probs
        self.unassigned_mass = unassigned_mass
        self.known = known
        self.remaining_mines = remaining_mines


def pipeline_probability_map(state: GameState) -> PipelineResult:
    """Full-board probabilities via reduce -> partition -> enumerate ->
    combine, with reduction-derived cells reported as 0/1."""
    reduced = reduce_system(extract_constraints(state))
    found_mines = sum(1 for v in reduced.known.values() if v == 1)
    remaining = state.spec.mine_count - found_mines
    covered = [c for c in state.covered_cells() if c not in reduced.known]
    group_vars = reduced.variables()
    sea = [c for c in covered if c not in group_vars]
    tallies = [enumerate_group(g) for g in partition(reduced)]
    pmap, sea_prob = combine(tallies, BoardContext(remaining, len(sea)))
    pmap.update(dict.fromkeys(sea, sea_prob))
    probs = dict(pmap)
    for cell, value in reduced.known.items():
        probs[cell] = float(value)
    return PipelineResult(probs, sum(pmap.values()), dict(reduced.known), remaining)
