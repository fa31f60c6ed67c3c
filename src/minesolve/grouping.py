"""Partition a reduced constraint system into variable-disjoint groups.

Constraints that share a variable must be counted together; constraints in
different connected components are independent and can be tallied
separately. Components are found by one walk from cell to constraint to
cell over a cell -> constraint indices map, with an explicit stack, and
are ordered deterministically by their smallest cell.
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
    # constraints in sort-key order, so each group's ascending indices
    # list its constraints in that order too
    constraints = sorted(system.constraints, key=Constraint.sort_key)
    touching: dict[Cell, list[int]] = {}
    for ci, constraint in enumerate(constraints):
        for cell in constraint.vars:
            touching.setdefault(cell, []).append(ci)
    seen: set[Cell] = set()
    taken = [False] * len(constraints)
    groups = []
    for start in sorted(touching):
        if start in seen:
            continue
        seen.add(start)
        stack, cells, taking = [start], [], []
        while stack:
            cell = stack.pop()
            cells.append(cell)
            for ci in touching[cell]:
                if taken[ci]:
                    continue
                taken[ci] = True
                taking.append(ci)
                for other in constraints[ci].vars:
                    if other not in seen:
                        seen.add(other)
                        stack.append(other)
        taking.sort()
        groups.append(Group(
            constraints=tuple(constraints[ci] for ci in taking),
            vars=tuple(sorted(cells)),
        ))
    return groups
