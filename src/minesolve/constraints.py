"""Linear 0/1 constraints over covered cells and their reduction to a fixpoint.

Every revealed clue becomes an equation: its covered neighbors sum to the
clue value. The equations are read off the visible board alone. Reduction
rewrites the equation set with two rules until nothing changes:

  * subset subtraction - when one equation's variables nest strictly inside
    another's, the larger is replaced by the difference;
  * unit propagation - rhs == 0 forces every variable safe, rhs == |vars|
    forces every variable mine; forced values are substituted everywhere.

Both rules preserve the satisfying-assignment set over the original
variables, so downstream counting sees an equivalent, smaller system.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .engine import Cell, GameState

SAFE = 0
MINE = 1


class ContradictionError(Exception):
    """The system admits no satisfying assignment.

    On engine-generated boards this signals a bug; it is a real error only
    for malformed external inputs.
    """


@dataclass(frozen=True)
class Constraint:
    """vars sum to rhs, each variable being 0 (safe) or 1 (mine)."""

    vars: frozenset[Cell]
    rhs: int

    def __post_init__(self) -> None:
        if not self.vars:
            raise ContradictionError("constraint with no variables")
        if not 0 <= self.rhs <= len(self.vars):
            raise ContradictionError(
                f"rhs={self.rhs} impossible for {len(self.vars)} variables"
            )

    def sort_key(self) -> tuple:
        return (len(self.vars), tuple(sorted(self.vars)), self.rhs)


@dataclass
class ConstraintSystem:
    """Deduplicated constraints plus the assignments already substituted out.

    `derived` holds every cell that reduction has forced safe or mine since
    extraction; it is empty on a freshly extracted system. `steps` counts
    rewrite events and is excluded from equality so reduce stays idempotent.
    """

    constraints: frozenset[Constraint]
    derived: dict[Cell, int] = field(default_factory=dict)
    steps: int = field(default=0, compare=False)

    def variables(self) -> set[Cell]:
        out: set[Cell] = set()
        for c in self.constraints:
            out |= c.vars
        return out


def extract_constraints(state: GameState) -> ConstraintSystem:
    """Read one equation off every revealed clue that still borders covered
    cells: the clue's covered neighbors sum to its value."""
    spec = state.spec
    table = state.neighbor_table
    revealed = state.revealed
    constraints: set[Constraint] = set()
    for i, value in state.revealed_clues():
        cells = []
        for j in table[i]:
            if not revealed[j]:
                cells.append(spec.cell(j))
        if cells:
            constraints.add(Constraint(frozenset(cells), value))
    return ConstraintSystem(frozenset(constraints))


def _size_order(vars_: frozenset[Cell]) -> tuple:
    """Reduction snapshot order: smaller constraints first, then by cells."""
    return (len(vars_), tuple(sorted(vars_)))


def reduce_system(system: ConstraintSystem) -> ConstraintSystem:
    """Rewrite to a fixpoint of subtraction, unit propagation, substitution
    and duplicate merging. Raises ContradictionError on conflict."""
    derived = dict(system.derived)
    # vars -> rhs; the dict both deduplicates and detects conflicts
    active: dict[frozenset[Cell], int] = {}
    steps = 0

    def assign(cell: Cell, value: int) -> None:
        old = derived.get(cell)
        if old is not None:
            if old != value:
                raise ContradictionError(f"{cell} forced both safe and mine")
            return
        derived[cell] = value
        pending_cells.append(cell)

    # the one contradiction check for every constraint the reduction
    # stores; an emptied constraint with rhs 0 is dropped
    def insert(vars_: frozenset[Cell], rhs: int) -> None:
        nonlocal steps
        if not vars_:
            if rhs != 0:
                raise ContradictionError(f"empty constraint left with rhs={rhs}")
            return
        if not 0 <= rhs <= len(vars_):
            raise ContradictionError(f"rhs={rhs} impossible for {sorted(vars_)}")
        old = active.get(vars_)
        if old is not None:
            if old != rhs:
                raise ContradictionError(
                    f"duplicate constraints disagree on {sorted(vars_)}"
                )
            steps += 1  # merged a duplicate
            return
        active[vars_] = rhs

    pending_cells: list[Cell] = []
    for c in sorted(system.constraints, key=Constraint.sort_key):
        insert(c.vars, c.rhs)

    changed = True
    while changed:
        changed = False

        # substitute any assignments made since the last pass
        while pending_cells:
            cell = pending_cells.pop()
            value = derived[cell]
            for vars_ in [v for v in active if cell in v]:
                insert(vars_ - {cell}, active.pop(vars_) - value)
            changed = True

        # unit propagation: all-safe / all-mine constraints force values
        for vars_ in sorted(active, key=_size_order):
            rhs = active.get(vars_)
            if rhs is None:
                continue
            if rhs == 0 or rhs == len(vars_):
                del active[vars_]
                steps += 1
                value = SAFE if rhs == 0 else MINE
                for cell in vars_:
                    assign(cell, value)
                changed = True
        if pending_cells:
            continue

        # subset subtraction: replace each strict superset by the difference.
        # The snapshot and index go stale as entries are rewritten; stale
        # hits are filtered with active.get, and anything inserted here is
        # picked up by the next outer pass.
        by_var: dict[Cell, list[frozenset[Cell]]] = {}
        for vars_ in active:
            for cell in vars_:
                by_var.setdefault(cell, []).append(vars_)
        for small in sorted(active, key=_size_order):
            rhs_small = active.get(small)
            if rhs_small is None:
                continue
            anchor = next(iter(small))
            for big in by_var.get(anchor, []):
                if big is small or len(big) <= len(small):
                    continue
                rhs_big = active.get(big)
                if rhs_big is None or not small < big:
                    continue
                del active[big]
                steps += 1
                insert(big - small, rhs_big - rhs_small)
                changed = True

    constraints = frozenset(Constraint(v, r) for v, r in active.items())
    return ConstraintSystem(constraints, derived, steps)


def deductions(system: ConstraintSystem) -> tuple[set[Cell], set[Cell]]:
    """Forced (safe, mine) cells discovered since extraction."""
    safe = {c for c, v in system.derived.items() if v == SAFE}
    mines = {c for c, v in system.derived.items() if v == MINE}
    return safe, mines
