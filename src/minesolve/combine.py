"""Fuse per-group tallies with the global mine budget into cell probabilities.

This is the one fusion path: every guess built from counted or sampled
tallies goes through `combine`, in `full` and in `exact` mode alike.

Groups are variable-disjoint, so a joint assignment is a choice of one
satisfying assignment per group plus a placement of the leftover mines in
the unconstrained "sea". Writing k_g for the mines a group receives, each
mine-count vector carries weight

    prod_g N_g(k_g) * C(|U|, M - sum_g k_g)

which is zero whenever the leftover is negative or exceeds the sea - that
zeroing is what rules out impossible per-group mine counts. Cell marginals
under these weights come from prefix and suffix convolutions of the
groups' mine-count lists rather than from enumerating vectors; the tests
check that the two agree against an explicit enumerator. The
cells of a box share one posterior, the box's weighted mine total over
its size, and so do the sea cells: the sea is one size in and one
probability out. Its binomials, over the window of mine counts the groups
leave feasible, take one `math.comb` and then an exact integer step each.

Tallies are integer tables, counted or sampled alike, so the weights are
Python integers and each posterior is one integer division: it is
correctly rounded, and equal posteriors come out as equal floats.
"""

from __future__ import annotations

import math
from typing import Sequence

from .engine import Cell
from .exact import GroupTally


class CombineInfeasibleError(ValueError):
    """No joint assignment is consistent with the global mine count."""


def _conv(a: list, b: list, n: int) -> list:
    """The first n coefficients of the product of polynomials a and b."""
    out = [0] * min(len(a) + len(b) - 1, n)
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[:n - i]):
                out[i + j] += x * y
    return out


def _coef(a: list, b: list, t: int):
    """Coefficient t of the product of polynomials a and b."""
    return sum(a[i] * b[t - i]
               for i in range(max(0, t - len(b) + 1), min(len(a), t + 1)))


def _check_inputs(tallies: Sequence[GroupTally], remaining_mines: int,
                  sea_size: int) -> None:
    """ValueError unless the budget and the sea are non-negative and no
    two groups share a cell."""
    if remaining_mines < 0:
        raise ValueError("remaining_mines must be >= 0")
    if sea_size < 0:
        raise ValueError("sea_size must be >= 0")
    seen: set[Cell] = set()
    for tally in tallies:
        cells = set().union(*tally.boxes)
        overlap = seen & cells
        if overlap:
            raise ValueError(f"groups share cells: {sorted(overlap)}")
        seen |= cells


def _binomial_window(u: int, lo: int, hi: int) -> list[int]:
    """C(u, j) for j = lo..hi (empty when lo > hi): one math.comb, then
    each next one exactly from the last, C(u, j + 1) = C(u, j) * (u - j)
    // (j + 1)."""
    if lo > hi:
        return []
    c = math.comb(u, lo)
    out = [c]
    for j in range(lo, hi):
        c = c * (u - j) // (j + 1)
        out.append(c)
    return out


def combine(tallies: Sequence[GroupTally], remaining_mines: int,
            sea_size: int) -> tuple[dict[Cell, float], float]:
    """(probs, sea_prob): the posterior mine probability of every group
    cell, and the one posterior shared by every sea cell (0.0 when the sea
    is empty), from group tallies plus the mine budget. remaining_mines is
    the total minus the mines already known; sea_size counts the covered
    cells that are unassigned and in no group.

    These are the exact posteriors under the joint weights above; the
    group cells' probabilities plus sea_size * sea_prob sum to
    remaining_mines.
    """
    _check_inputs(tallies, remaining_mines, sea_size)
    m, u = remaining_mines, sea_size
    weights = [tally.counts[:m + 1] for tally in tallies]
    # the groups take at most sum(len(w) - 1) mines, so the sea takes at
    # least lo; sea[i] counts placements of lo + i mines in it, and every
    # list index is a mine count minus lo, up to hi = m - lo
    lo = max(0, m - sum(len(w) - 1 for w in weights))
    hi = m - lo
    sea = _binomial_window(u, lo, min(u, m))

    # prefix[g]: the sea and groups before g; suffix[g]: groups g onwards
    prefix = [sea]
    for w in weights[:-1]:
        prefix.append(_conv(prefix[-1], w, hi + 1))
    suffix = [[1]]
    for w in reversed(weights):
        suffix.append(_conv(w, suffix[-1], hi + 1))
    suffix.reverse()

    w_total = _coef(sea, suffix[0], hi)
    if not w_total:
        raise CombineInfeasibleError(
            f"no assignment places {m} mines over these groups and {u} sea cells"
        )

    probs: dict[Cell, float] = {}
    for g, tally in enumerate(tallies):
        # weight of every assignment in which this group takes k mines
        kw = [(k, x) for k, w in enumerate(weights[g])
              if w and (x := _coef(prefix[g], suffix[g + 1], hi - k))]
        for box, row in zip(tally.boxes, tally.box_mines):
            p = sum(row[k] * x for k, x in kw) / (w_total * len(box))
            for cell in box:
                probs[cell] = p

    if not u:
        return probs, 0.0
    sea_mines = [(lo + i) * x for i, x in enumerate(sea)]
    return probs, _coef(sea_mines, suffix[0], hi) / (w_total * u)
