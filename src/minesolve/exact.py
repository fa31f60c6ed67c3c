"""Split a reduced system into groups and count each group exactly,
tallied by mine count and by box.

Constraints that share a variable must be counted together; constraints
in different connected components are independent and can be tallied
separately. `partition` finds the components by one walk from cell to
constraint to cell and emits each as a `BoxPlan`: cells in exactly the
same constraints form a box, and the plan orders the boxes for both the
exact search here and the sampler. A group's tally records N(k), the
number of satisfying assignments placing exactly k mines, and per box
the total number of mines those assignments put in it. Groups are small
(the reduction and decomposition stages keep them that way), so a pruned
depth-first search over the boxes is exact and fast.

Most groups met in play repeat a box structure counted earlier in the
process (the same boxes, sizes and right-hand sides on other cells), so
the counts of the MEMO_LIMIT most recently used structures are kept and
reused. A structure fixes every count, so a reused tally is the one a
fresh search would give. `partition` computes each plan's structure key
once, as `BoxPlan.structure`; this memo and the policy's memo of fused
maps both key on it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from time import monotonic
from typing import NamedTuple

from .constraints import Constraint, ConstraintSystem, ContradictionError
from .engine import Cell

# Larger groups are refused: `full` mode samples such a group, and `exact`
# mode takes the density estimate for the guess. The limit is not a cost
# bound: ROADMAP item 2 counted every group of thousands of games, up to
# 55 cells in 7.5 ms. It stays until that item lifts it.
EXACT_VAR_LIMIT = 22

# Hard cap on search-tree branch points, so a loosely constrained group is
# given up in bounded time (a few seconds) even without a deadline.
MAX_NODES = 1 << 21
# branch points between deadline and node-cap checks
CHECK_EVERY_NODES = 4096

# box structures whose counts are kept: (counts, mine totals per box) by
# structure, least recently used first
MEMO_LIMIT = 256
_memo: OrderedDict[tuple, tuple[list[int], list[list[int]]]] = OrderedDict()


class GroupTooLargeError(ValueError):
    """Group exceeds the exact-enumeration threshold or its budget; `full`
    mode samples it instead, `exact` mode takes the density estimate."""


@dataclass
class GroupTally:
    """Satisfying-assignment counts for one group, as integer tables.

    boxes holds the group's boxes (the cells of each) in plan order.
    counts[k] is N(k) for k up to the largest mine count with N(k) > 0;
    box_mines[b][k] is the total number of mines that the assignments
    with k mines put in boxes[b], over the same k, so each cell of the
    box is the mine in box_mines[b][k] / len(boxes[b]) of them. Counted
    tallies hold the exact numbers; sampled tallies hold summed path
    weights, integers that estimate the same quantities up to one common
    scale factor.
    """

    boxes: tuple[tuple[Cell, ...], ...]
    counts: list[int]
    box_mines: list[list[int]]
    samples_used: int = 0
    nodes_visited: int = 0


@lru_cache(maxsize=None)
def _binomials(size: int) -> tuple[int, ...]:
    """C(size, j) for j = 0..size: the ways to place j mines in a box of
    `size` cells."""
    return tuple(comb(size, j) for j in range(size + 1))


class BoxPlan(NamedTuple):
    """One group: its boxes in the order they are assigned, each with its
    key, the ascending indices into `constraints` of the constraints its
    cells are in. Boxes go most-constrained first, ties in cell order.
    `constraints` are in `Constraint.sort_key` order and `vars` holds the
    group's cells in row-major order.

    `structure` is what the group's counts depend on and nothing more:
    each box's (key, size) in plan order, then every constraint's rhs in
    order. Plans with equal structures have equal counts and box rows, so
    it keys the count memo here and the policy's memo of fused maps."""

    boxes: tuple[tuple[Cell, ...], ...]
    keys: list[tuple[int, ...]]
    constraints: tuple[Constraint, ...]
    vars: tuple[Cell, ...]
    structure: tuple[tuple[tuple[tuple[int, ...], int], ...], tuple[int, ...]]

    def steps(self) -> list[tuple[list[tuple[int, int, int]], tuple[int, ...],
                                  tuple[int, ...], int]]:
        """Per box, in order: its checks, constraint indices, binomials and
        size. A check is (constraint index, rhs, least sum that keeps the
        rhs reachable once the box is assigned), so the box can take j
        mines for j from the largest `least - sum` to the smallest
        `rhs - sum`, within [0, size]."""
        constraints = self.constraints
        unassigned = [len(constraint.vars) for constraint in constraints]
        steps = []
        for key, box in zip(self.keys, self.boxes):
            size = len(box)
            check = []
            for ci in key:
                unassigned[ci] -= size
                rhs = constraints[ci].rhs
                check.append((ci, rhs, rhs - unassigned[ci]))
            steps.append((check, key, _binomials(size), size))
        return steps

    def tally(self, counts: list[int], box_mines: list[list[int]],
              **fields: int) -> GroupTally:
        """The tally of N(k) `counts` and each box's mine totals, cut to
        len(counts), in fresh lists."""
        top = len(counts)
        return GroupTally(self.boxes, counts[:],
                          [row[:top] for row in box_mines], **fields)


def partition(system: ConstraintSystem) -> list[BoxPlan]:
    """Split into variable-disjoint groups, ordered by smallest cell, each
    as the plan its count and its samples walk."""
    # constraints in sort-key order, so each group's ascending indices
    # list its constraints in that order too
    constraints = sorted(system.constraints, key=Constraint.sort_key)
    touching: dict[Cell, list[int]] = {}
    for ci, constraint in enumerate(constraints):
        for cell in constraint.vars:
            touching.setdefault(cell, []).append(ci)
    seen: set[Cell] = set()
    taken = [False] * len(constraints)
    plans = []
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
        cells.sort()
        # a box is the cells touching the same constraints; the sorted
        # global indices map in order onto the group's local ones
        boxes: dict[tuple[int, ...], list[Cell]] = {}
        for cell in cells:
            boxes.setdefault(tuple(touching[cell]), []).append(cell)
        local = {ci: i for i, ci in enumerate(taking)}
        # most-constrained first; the sort is stable, so ties keep cell order
        order = sorted(boxes, key=len, reverse=True)
        plan_boxes = tuple(tuple(boxes[key]) for key in order)
        keys = [tuple(local[ci] for ci in key) for key in order]
        plan_constraints = tuple(constraints[ci] for ci in taking)
        plans.append(BoxPlan(
            plan_boxes, keys, plan_constraints, tuple(cells),
            (tuple(zip(keys, map(len, plan_boxes))),
             tuple(constraint.rhs for constraint in plan_constraints)),
        ))
    return plans


def enumerate_group(plan: BoxPlan, deadline: float | None = None) -> GroupTally:
    """Count every satisfying assignment of the group exactly.

    The plan's boxes are assigned depth-first, in plan order, each taking
    j mines at once with weight C(size, j); a branch survives only while
    each constraint's running sum can still reach its rhs. nodes_visited
    counts terminal states (dead ends plus box-level leaves, each standing
    for one or more solutions), which never exceeds 2^n. `deadline` is an
    optional time.monotonic() cutoff, checked on entry and every
    CHECK_EVERY_NODES branch points; passing it, or MAX_NODES branch
    points, raises GroupTooLargeError so the caller can fall back. A group
    with no satisfying assignment raises ContradictionError.

    A plan whose `structure` is among the MEMO_LIMIT most recently
    counted ones is not searched again: its tally is built from the kept
    counts and reports nodes_visited 0.
    """
    n = len(plan.vars)
    if n == 0:
        raise ValueError("cannot count an empty group")
    if n > EXACT_VAR_LIMIT:
        raise GroupTooLargeError(f"{n} variables exceeds limit {EXACT_VAR_LIMIT}")
    if deadline is not None and monotonic() > deadline:
        raise GroupTooLargeError("exact enumeration ran past its deadline")

    structure = plan.structure
    kept = _memo.get(structure)
    if kept is None:
        counts, box_totals, nodes = _search(plan, n, deadline)
        kept = _memo[structure] = (counts, box_totals)
        if len(_memo) > MEMO_LIMIT:
            _memo.popitem(last=False)
    else:
        nodes = 0
        _memo.move_to_end(structure)
    return plan.tally(*kept, nodes_visited=nodes)


def counts_kept(structures: tuple[tuple, ...]) -> bool:
    """Whether the counts of every one of `structures` are kept. If they
    are, each is marked as just used, in order, as `enumerate_group`
    marks one it reuses, so the kept counts age alike whether or not the
    caller goes on to ask for the tallies."""
    if not all(structure in _memo for structure in structures):
        return False
    for structure in structures:
        _memo.move_to_end(structure)
    return True


def _search(plan: BoxPlan, n: int,
            deadline: float | None) -> tuple[list[int], list[list[int]], int]:
    """(N(k) list, mine totals per box of the plan, terminal states
    visited) over the plan's n cells: the depth-first count behind
    enumerate_group."""
    max_nodes = MAX_NODES
    steps = plan.steps()
    # per box: sum over leaves with k mines of weight * mines in the box
    box_totals = [[0] * (n + 1) for _ in steps]

    nb = len(steps)
    sums = [0] * len(plan.constraints)
    counts = [0] * (n + 1)
    held: list[tuple[list[int], int]] = []  # (totals, j) per box given j > 0 mines
    dead_ends = leaves = nodes = 0

    def visit(step: int, weight: int, k: int) -> None:
        nonlocal dead_ends, leaves, nodes
        if step == nb:
            # every constraint ended with no unassigned cells and a
            # reachable rhs, hence sum == rhs
            leaves += 1
            counts[k] += weight
            for totals, j in held:
                totals[k] += weight * j
            return
        nodes += 1
        if nodes % CHECK_EVERY_NODES == 0:
            if nodes > max_nodes:
                raise GroupTooLargeError(f"search exceeded {max_nodes} nodes")
            if deadline is not None and monotonic() > deadline:
                raise GroupTooLargeError("exact enumeration ran past its deadline")
        check, cis, binom, hi = steps[step]
        lo = 0
        for ci, rhs, least in check:
            s = sums[ci]
            if s + hi > rhs:
                hi = rhs - s
            if s + lo < least:
                lo = least - s
        if lo > hi:
            dead_ends += 1
            return
        if lo == 0:
            visit(step + 1, weight, k)
            lo = 1
        totals = box_totals[step]
        for j in range(lo, hi + 1):
            for ci in cis:
                sums[ci] += j
            held.append((totals, j))
            visit(step + 1, weight * binom[j], k + j)
            held.pop()
            for ci in cis:
                sums[ci] -= j

    visit(0, 1, 0)
    while counts and not counts[-1]:
        counts.pop()
    if not counts:
        raise ContradictionError(
            f"group over {n} cells has no satisfying assignment"
        )
    return counts, box_totals, dead_ends + leaves
