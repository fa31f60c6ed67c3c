"""Exhaustive per-group model counting, tallied by mine count and by cell.

A group's tally records N(k), the number of satisfying assignments placing
exactly k mines, and C(cell, k), the number of those in which a given cell
is the mine. Groups are small (the reduction and decomposition stages keep
them that way), so a pruned depth-first search is exact and fast. It is
plain Python: exact-mode play never loads numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import monotonic

from .engine import Cell
from .grouping import Group

# Past ~22 variables exact counting stops paying for itself within the move
# budget; callers should fall back to sampling.
EXACT_VAR_LIMIT = 22

# Hard cap on search-tree branch points, so a loosely constrained group is
# given up in bounded time (a few seconds) even without a deadline.
MAX_NODES = 1 << 21
# branch points between deadline and node-cap checks
CHECK_EVERY_NODES = 4096


class GroupTooLargeError(ValueError):
    """Group exceeds the exact-enumeration threshold; sample it instead."""


class InconsistentGroupError(ValueError):
    """No assignment satisfies the group - an upstream bug."""


@dataclass
class GroupTally:
    """Satisfying-assignment counts for one group.

    counts[k] is N(k); cell_counts[(cell, k)] is C(cell, k). Exact tallies
    hold integers; sampled tallies hold importance weights (floats) that
    estimate the same quantities up to one common scale factor.
    """

    group_id: int
    cells: tuple[Cell, ...]
    counts: dict[int, float]
    cell_counts: dict[tuple[Cell, int], float]
    exact: bool
    samples_used: int = 0
    nodes_visited: int = 0

    def total(self) -> float:
        return sum(self.counts.values())

    def marginals(self) -> dict[Cell, float]:
        """Per-cell mine probability within the group, ignoring any global
        mine-budget coupling."""
        total = self.total()
        return {
            cell: sum(self.cell_counts.get((cell, k), 0) for k in self.counts) / total
            for cell in self.cells
        }

    def expected_mines(self) -> float:
        total = self.total()
        return sum(k * n for k, n in self.counts.items()) / total


def _static_order(group: Group) -> list[Cell]:
    # most-constrained variable first; ties broken by cell order
    degree: dict[Cell, int] = {cell: 0 for cell in group.vars}
    for constraint in group.constraints:
        for cell in constraint.vars:
            degree[cell] += 1
    return sorted(group.vars, key=lambda cell: (-degree[cell], cell))


def enumerate_group(group: Group, group_id: int = 0,
                    deadline: float | None = None) -> GroupTally:
    """Count every satisfying assignment of the group exactly.

    Variables are assigned depth-first in `_static_order`; a branch
    survives only while each constraint's running sum can still reach its
    rhs. nodes_visited counts terminal states (dead ends plus solutions),
    which never exceeds 2^n. `deadline` is an optional time.monotonic()
    cutoff, checked on entry and every CHECK_EVERY_NODES branch points;
    passing it, or MAX_NODES branch points, raises GroupTooLargeError so
    the caller can sample.
    """
    n = len(group.vars)
    if n == 0:
        raise InconsistentGroupError("empty group")
    if n > EXACT_VAR_LIMIT:
        raise GroupTooLargeError(f"{n} variables exceeds limit {EXACT_VAR_LIMIT}")
    if deadline is not None and monotonic() > deadline:
        raise GroupTooLargeError("exact enumeration ran past its deadline")
    max_nodes = MAX_NODES

    order = _static_order(group)
    pos = {cell: i for i, cell in enumerate(order)}
    members: list[list[int]] = [[] for _ in range(n)]
    unassigned = []
    for ci, constraint in enumerate(group.constraints):
        for cell in constraint.vars:
            members[pos[cell]].append(ci)
        unassigned.append(len(constraint.vars))
    # checks[step]: (constraint, rhs, least sum that keeps rhs reachable
    # once this step's variable is assigned) for each member constraint
    checks: list[list[tuple[int, int, int]]] = []
    for step in range(n):
        row = []
        for ci in members[step]:
            unassigned[ci] -= 1
            rhs = group.constraints[ci].rhs
            row.append((ci, rhs, rhs - unassigned[ci]))
        checks.append(row)

    sums = [0] * len(group.constraints)
    mines: list[int] = []  # steps currently assigned 1
    counts = [0] * (n + 1)
    per_cell = [[0] * (n + 1) for _ in range(n)]
    dead_ends = 0
    nodes = 0

    def visit(step: int) -> None:
        nonlocal dead_ends, nodes
        if step == n:
            # every constraint ended with no unassigned variables and a
            # reachable rhs, hence sum == rhs
            k = len(mines)
            counts[k] += 1
            for i in mines:
                per_cell[i][k] += 1
            return
        nodes += 1
        if nodes % CHECK_EVERY_NODES == 0:
            if nodes > max_nodes:
                raise GroupTooLargeError(f"search exceeded {max_nodes} nodes")
            if deadline is not None and monotonic() > deadline:
                raise GroupTooLargeError("exact enumeration ran past its deadline")
        check = checks[step]
        # value 1 needs sum+1 <= rhs; value 0 needs rhs still reachable
        can0 = can1 = True
        for ci, rhs, least in check:
            s = sums[ci]
            if s >= rhs:
                can1 = False
            if s < least:
                can0 = False
        if can0:
            visit(step + 1)
        if can1:
            for ci, _, _ in check:
                sums[ci] += 1
            mines.append(step)
            visit(step + 1)
            mines.pop()
            for ci, _, _ in check:
                sums[ci] -= 1
        if not (can0 or can1):
            dead_ends += 1

    visit(0)
    ks = [k for k in range(n + 1) if counts[k]]
    if not ks:
        raise InconsistentGroupError(
            f"group over {n} cells has no satisfying assignment"
        )
    return GroupTally(
        group_id=group_id,
        cells=tuple(sorted(group.vars)),
        counts={k: counts[k] for k in ks},
        cell_counts={
            (cell, k): per_cell[i][k] for k in ks for i, cell in enumerate(order)
        },
        exact=True,
        nodes_visited=dead_ends + sum(counts),
    )
