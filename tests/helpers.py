"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product

from minesolve.combine import CombineInfeasibleError, _check_inputs, combine
from minesolve.constraints import (
    Constraint,
    ConstraintSystem,
    extract_constraints,
    reduce_system,
)
from minesolve.engine import BoardSpec, Cell, GameState, GameStatus, new_board, reveal
from minesolve.exact import BoxPlan, enumerate_group, partition
from minesolve.policy import play_game

ONE_TWO_ONE_TEXT = "3 2 2\n*.*\n...\n\n###\nRRR\n"
A, B, C = Cell(0, 0), Cell(0, 1), Cell(0, 2)


def cells(*pairs: tuple[int, int]) -> list[Cell]:
    return [Cell(r, c) for r, c in pairs]


def con(vars_, rhs: int) -> Constraint:
    return Constraint(frozenset(vars_), rhs)


def system(*constraints: Constraint) -> ConstraintSystem:
    return ConstraintSystem(frozenset(constraints))


def group_of(*constraints: Constraint) -> BoxPlan:
    """The plan of the one group the constraints form."""
    groups = partition(system(*constraints))
    assert len(groups) == 1
    return groups[0]


def tally_dict(tally) -> dict[tuple[Cell, int], int]:
    """A tally's per-cell counts keyed by (cell, k), for every k its rows
    hold: each box's mine total over the box size."""
    return {(cell, k): x // len(box)
            for box, row in zip(tally.boxes, tally.box_mines)
            for k, x in enumerate(row) for cell in box}


def marginals(tally) -> dict[Cell, float]:
    """Per-cell mine probability within one group, ignoring the global mine
    budget: the cell's share of the group's solutions."""
    total = sum(tally.counts)
    return {cell: sum(row) / (total * len(box))
            for box, row in zip(tally.boxes, tally.box_mines) for cell in box}


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
    return ConstraintSystem(frozenset(constraints))


def random_connected_group(rng: random.Random, n_vars: int,
                           n_constraints: int) -> BoxPlan:
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
        groups = partition(ConstraintSystem(frozenset(constraints)))
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
        if not state.revealed[spec.index(cell)]:
            reveal(state, cell)
    if state.status is not GameStatus.IN_PROGRESS:
        return None
    return state


class PipelineResult:
    def __init__(self, probs: dict[Cell, float], unassigned_mass: float,
                 derived: dict[Cell, int], remaining_mines: int) -> None:
        self.probs = probs
        self.unassigned_mass = unassigned_mass
        self.derived = derived
        self.remaining_mines = remaining_mines


def pipeline_probability_map(state: GameState) -> PipelineResult:
    """Full-board probabilities via reduce -> partition -> enumerate ->
    combine, with reduction-derived cells reported as 0/1."""
    reduced = reduce_system(extract_constraints(state))
    found_mines = sum(1 for v in reduced.derived.values() if v == 1)
    remaining = state.spec.mine_count - found_mines
    covered = [c for c, seen in zip(state.cell_table, state.revealed)
               if not seen and c not in reduced.derived]
    group_vars = reduced.variables()
    sea = [c for c in covered if c not in group_vars]
    tallies = [enumerate_group(g) for g in partition(reduced)]
    pmap, sea_prob = combine(tallies, remaining, len(sea))
    pmap.update(dict.fromkeys(sea, sea_prob))
    probs = dict(pmap)
    for cell, value in reduced.derived.items():
        probs[cell] = float(value)
    return PipelineResult(probs, sum(pmap.values()), dict(reduced.derived), remaining)


def combine_by_enumeration(tallies, remaining_mines: int,
                           sea_size: int) -> tuple[dict[Cell, float], float]:
    """Reference for `combine`: enumerate every mine-count vector.

    Exponential in the number of groups; the oracle the convolution path
    is checked against. It runs in integer and rational arithmetic.
    """
    _check_inputs(tallies, remaining_mines, sea_size)
    m, u = remaining_mines, sea_size

    w_total = 0
    numer = [[0] * len(t.boxes) for t in tallies]  # per group, per box
    sea_numer = 0
    for vector in product(*(range(len(t.counts)) for t in tallies)):
        leftover = m - sum(vector)
        if leftover < 0 or leftover > u:
            continue
        weight = math.comb(u, leftover)
        for tally, k in zip(tallies, vector):
            weight *= tally.counts[k]
        if weight == 0:
            continue
        w_total += weight
        sea_numer += weight * leftover
        for tally, k, box_numer in zip(tallies, vector, numer):
            partial = weight // tally.counts[k]
            for b, row in enumerate(tally.box_mines):
                box_numer[b] += partial * row[k]
    if w_total == 0:
        raise CombineInfeasibleError(
            f"no assignment places {m} mines over these groups and {u} sea cells"
        )

    probs = {cell: float(Fraction(v, w_total * len(box)))
             for tally, box_numer in zip(tallies, numer)
             for box, v in zip(tally.boxes, box_numer) for cell in box}
    return probs, float(Fraction(sea_numer, w_total * u)) if u else 0.0


def raising_on_seed(bad_seed: int):
    """A stand-in for `play_game` that raises on one seed and plays the
    others."""

    def play(spec, config=None, seed=None):
        if seed == bad_seed:
            raise RuntimeError(f"planted failure on seed {seed}")
        return play_game(spec, config=config, seed=seed)

    return play


def all_played(report):
    """`report` (a BatchReport or an AblationReport) once no game in it
    raised; a game that did fails the calling test with its traceback."""
    batches = report.reports.values() if hasattr(report, "reports") else [report]
    for batch in batches:
        assert not batch.failed, batch.failed[0].traceback
    return report
