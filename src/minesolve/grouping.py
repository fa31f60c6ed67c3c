"""Partition a reduced constraint system into variable-disjoint groups.

Constraints that share a variable must be counted together; constraints in
different connected components are independent and can be tallied
separately. Components are found by one walk from cell to constraint to
cell over a cell -> constraints index, with an explicit stack, and are
ordered deterministically by their smallest cell.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constraints import Constraint, ConstraintSystem
from .engine import Cell


@dataclass(frozen=True)
class Group:
    """One connected component: its constraints and ordered variable list."""

    constraints: tuple[Constraint, ...]
    vars: tuple[Cell, ...]


def partition(system: ConstraintSystem) -> list[Group]:
    """Split into variable-disjoint groups, ordered by smallest cell."""
    touching: dict[Cell, list[Constraint]] = {}
    for constraint in system.constraints:
        for cell in constraint.vars:
            touching.setdefault(cell, []).append(constraint)
    seen: set[Cell] = set()
    taken: set[Constraint] = set()
    groups = []
    for start in sorted(touching):
        if start in seen:
            continue
        seen.add(start)
        stack, cells, constraints = [start], [], []
        while stack:
            cell = stack.pop()
            cells.append(cell)
            for constraint in touching[cell]:
                if constraint in taken:
                    continue
                taken.add(constraint)
                constraints.append(constraint)
                for other in constraint.vars:
                    if other not in seen:
                        seen.add(other)
                        stack.append(other)
        groups.append(Group(
            constraints=tuple(sorted(constraints, key=Constraint.sort_key)),
            vars=tuple(sorted(cells)),
        ))
    return groups
