"""Exhaustive per-group model counting, tallied by mine count and by cell.

A group's tally records N(k), the number of satisfying assignments placing
exactly k mines, and C(cell, k), the number of those in which a given cell
is the mine. Groups are small (the reduction and decomposition stages keep
them that way), so a pruned depth-first search over boxes of cells with
the same constraints is exact and fast. It is plain Python: exact-mode
play never loads numpy.

Most groups met in play repeat a box structure counted earlier in the
process (the same boxes, sizes and right-hand sides on other cells), so
the counts of the MEMO_LIMIT most recently used structures are kept and
reused. A structure fixes every count, so a reused tally is the one a
fresh search would give.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from math import comb
from time import monotonic

from .constraints import Constraint, ContradictionError
from .engine import Cell
from .grouping import Group

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

# _BINOMIALS[s][j] = C(s, j): the ways to place j mines in a box of s cells
_BINOMIALS = [[comb(s, j) for j in range(s + 1)] for s in range(EXACT_VAR_LIMIT + 1)]

# box structures whose counts are kept: (counts, one row per box) by
# structure, least recently used first
MEMO_LIMIT = 256
_memo: OrderedDict[tuple, tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]] = OrderedDict()


class GroupTooLargeError(ValueError):
    """Group exceeds the exact-enumeration threshold or its budget; `full`
    mode samples it instead, `exact` mode takes the density estimate."""


@dataclass
class GroupTally:
    """Satisfying-assignment counts for one group, as integer tables.

    counts[k] is N(k) for k up to the largest mine count with N(k) > 0;
    cell_counts[i][k] is C(cells[i], k) over the same k, one row per cell
    (cells of one box may share a row). Counted tallies hold the exact
    numbers; sampled tallies hold summed importance weights, integers that
    estimate the same quantities up to one common scale factor.
    """

    cells: tuple[Cell, ...]
    counts: list[int]
    cell_counts: list[list[int]]
    samples_used: int = 0
    nodes_visited: int = 0


def enumerate_group(group: Group, deadline: float | None = None) -> GroupTally:
    """Count every satisfying assignment of the group exactly.

    Cells that belong to exactly the same constraints form a box. Boxes
    are assigned depth-first, most-constrained first, each taking j mines
    at once with weight C(size, j); a branch survives only while each
    constraint's running sum can still reach its rhs. A cell's count is
    its box's weighted mine total divided by the box size, which is exact
    because C(s, j) * j / s = C(s - 1, j - 1). nodes_visited counts
    terminal states (dead ends plus box-level leaves, each standing for
    one or more solutions), which never exceeds 2^n. `deadline` is an
    optional time.monotonic() cutoff, checked on entry and every
    CHECK_EVERY_NODES branch points; passing it, or MAX_NODES branch
    points, raises GroupTooLargeError so the caller can fall back. A
    group with no satisfying assignment raises ContradictionError.

    The structure key is each box's constraint indices and size, in
    search order, plus every constraint's rhs. A structure found among
    the MEMO_LIMIT most recently counted ones is not searched again: its
    tally is built from the kept counts and reports nodes_visited 0.
    """
    n = len(group.vars)
    if n == 0:
        raise ValueError("cannot count an empty group")
    if n > EXACT_VAR_LIMIT:
        raise GroupTooLargeError(f"{n} variables exceeds limit {EXACT_VAR_LIMIT}")
    if deadline is not None and monotonic() > deadline:
        raise GroupTooLargeError("exact enumeration ran past its deadline")

    # a cell's constraint indices; cells with equal indices form a box
    constraints = group.constraints
    member = {cell: [] for cell in group.vars}
    for ci, constraint in enumerate(constraints):
        for cell in constraint.vars:
            member[cell].append(ci)
    cells = tuple(sorted(group.vars))
    boxes: dict[tuple[int, ...], list[Cell]] = {}
    for cell in cells:
        member[cell] = key = tuple(member[cell])
        boxes.setdefault(key, []).append(cell)
    # most-constrained first; the sort is stable, so ties keep cell order
    order = sorted(boxes, key=len, reverse=True)
    sizes = [len(boxes[key]) for key in order]

    structure = (tuple(zip(order, sizes)), tuple(c.rhs for c in constraints))
    kept = _memo.get(structure)
    if kept is None:
        counts, box_rows, nodes = _search(constraints, order, sizes, n, deadline)
        kept = _memo[structure] = (tuple(counts), tuple(map(tuple, box_rows)))
        if len(_memo) > MEMO_LIMIT:
            _memo.popitem(last=False)
    else:
        nodes = 0
        _memo.move_to_end(structure)
    # fresh lists, so a caller editing this tally cannot edit a kept one
    rows = {key: list(row) for key, row in zip(order, kept[1])}
    return GroupTally(
        cells=cells,
        counts=list(kept[0]),
        cell_counts=[rows[member[cell]] for cell in cells],
        nodes_visited=nodes,
    )


def _search(constraints: tuple[Constraint, ...], order: list[tuple[int, ...]],
            sizes: list[int], n: int,
            deadline: float | None) -> tuple[list[int], list[list[int]], int]:
    """(N(k) list, one per-cell count row per box of `order`, terminal
    states visited): the depth-first count behind enumerate_group."""
    max_nodes = MAX_NODES
    unassigned = [len(constraint.vars) for constraint in constraints]
    # plan[step]: the box's (constraint, rhs, least sum that keeps rhs
    # reachable once the box is assigned) checks, its constraints, its
    # totals (sum over leaves with k mines of weight * mines in the box),
    # its binomials and its size
    plan = []
    for key, size in zip(order, sizes):
        check = []
        for ci in key:
            unassigned[ci] -= size
            rhs = constraints[ci].rhs
            check.append((ci, rhs, rhs - unassigned[ci]))
        plan.append((check, key, [0] * (n + 1), _BINOMIALS[size], size))

    nb = len(order)
    sums = [0] * len(constraints)
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
        check, cis, totals, binom, hi = plan[step]
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
    top = len(counts)
    box_rows = [
        totals[:top] if size == 1 else [x // size for x in totals[:top]]
        for _, _, totals, _, size in plan
    ]
    return counts, box_rows, dead_ends + leaves
