"""Partition a reduced constraint system into variable-disjoint groups.

Constraints that share a variable must be counted together; constraints in
different connected components are independent and can be tallied
separately. Components are found with a disjoint-set structure and ordered
deterministically by their smallest cell.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constraints import Constraint, ConstraintSystem
from .engine import Cell


class DisjointSet:
    """Union-find with path compression and union by size."""

    def __init__(self, items) -> None:
        self.parent = {x: x for x in items}
        self.size = {x: 1 for x in self.parent}

    def find(self, x):
        root = x
        parent = self.parent
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]


@dataclass(frozen=True)
class Group:
    """One connected component: its constraints and ordered variable list."""

    constraints: tuple[Constraint, ...]
    vars: tuple[Cell, ...]


def link_constraint_vars(system: ConstraintSystem) -> DisjointSet:
    """Union every constraint's variables; roots identify the components."""
    dsu = DisjointSet(system.variables())
    for constraint in system.constraints:
        it = iter(constraint.vars)
        first = next(it)
        for other in it:
            dsu.union(first, other)
    return dsu


def partition(system: ConstraintSystem) -> list[Group]:
    """Split into variable-disjoint groups, ordered by smallest cell."""
    dsu = link_constraint_vars(system)
    members: dict[Cell, list[Constraint]] = {}
    for constraint in system.constraints:
        root = dsu.find(next(iter(constraint.vars)))
        members.setdefault(root, []).append(constraint)
    groups = []
    for constraints in members.values():
        cells: set[Cell] = set()
        for c in constraints:
            cells |= c.vars
        groups.append(Group(
            constraints=tuple(sorted(constraints, key=Constraint.sort_key)),
            vars=tuple(sorted(cells)),
        ))
    groups.sort(key=lambda g: g.vars[0])
    return groups
