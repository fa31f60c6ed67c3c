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
groups' mine-count lists rather than from enumerating vectors; the two
agree exactly, and the explicit enumerator is kept as a cross-check. Every
sea cell has the same posterior, so the sea is one size in and one
probability out.

Tallies are integer tables, counted or sampled alike, so the weights are
Python integers and each posterior is one integer division: it is
correctly rounded, and equal posteriors come out as equal floats. It is
plain Python: a guess whose groups are all counted exactly never loads
numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

from .engine import Cell
from .exact import GroupTally


class CombineInfeasibleError(ValueError):
    """No joint assignment is consistent with the global mine count."""


@dataclass(frozen=True)
class BoardContext:
    """remaining_mines is the total minus mines already known; sea_size
    counts the covered cells that are unassigned and in no group."""

    remaining_mines: int
    sea_size: int

    def __post_init__(self) -> None:
        if self.remaining_mines < 0:
            raise ValueError("remaining_mines must be >= 0")
        if self.sea_size < 0:
            raise ValueError("sea_size must be >= 0")


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


def _check_disjoint(tallies: Sequence[GroupTally]) -> None:
    seen: set[Cell] = set()
    for tally in tallies:
        overlap = seen.intersection(tally.cells)
        if overlap:
            raise ValueError(f"groups share cells: {sorted(overlap)}")
        seen.update(tally.cells)


def combine(tallies: Sequence[GroupTally],
            ctx: BoardContext) -> tuple[dict[Cell, float], float]:
    """(probs, sea_prob): the posterior mine probability of every group
    cell, and the one posterior shared by every sea cell (0.0 when the sea
    is empty), from group tallies plus the mine budget.

    These are the exact posteriors under the joint weights above; the
    group cells' probabilities plus sea_size * sea_prob sum to
    remaining_mines.
    """
    _check_disjoint(tallies)
    m, u = ctx.remaining_mines, ctx.sea_size
    weights = [tally.counts[:m + 1] for tally in tallies]
    # the groups take at most sum(len(w) - 1) mines, so the sea takes at
    # least lo; sea[i] counts placements of lo + i mines in it, and every
    # list index is a mine count minus lo, up to hi = m - lo
    lo = max(0, m - sum(len(w) - 1 for w in weights))
    hi = m - lo
    sea = [math.comb(u, j) for j in range(lo, min(u, m) + 1)]

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
        # cells of one box share a row object, so each row is fused once
        fused: dict[int, float] = {}
        for cell, row in zip(tally.cells, tally.cell_counts):
            p = fused.get(id(row))
            if p is None:
                p = fused[id(row)] = sum(row[k] * x for k, x in kw) / w_total
            probs[cell] = p

    if not u:
        return probs, 0.0
    sea_mines = [(lo + i) * x for i, x in enumerate(sea)]
    return probs, _coef(sea_mines, suffix[0], hi) / (w_total * u)


def combine_by_enumeration(tallies: Sequence[GroupTally],
                           ctx: BoardContext) -> tuple[dict[Cell, float], float]:
    """Reference implementation: enumerate every mine-count vector.

    Exponential in the number of groups; retained as the oracle the
    convolution path is checked against. It runs in integer and rational
    arithmetic.
    """
    _check_disjoint(tallies)
    m, u = ctx.remaining_mines, ctx.sea_size

    w_total = 0
    numer = {cell: 0 for t in tallies for cell in t.cells}
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
        for tally, k in zip(tallies, vector):
            partial = weight // tally.counts[k]
            for cell, row in zip(tally.cells, tally.cell_counts):
                numer[cell] += partial * row[k]
    if w_total == 0:
        raise CombineInfeasibleError(
            f"no assignment places {m} mines over these groups and {u} sea cells"
        )

    probs = {cell: float(Fraction(v, w_total)) for cell, v in numer.items()}
    return probs, float(Fraction(sea_numer, w_total * u)) if u else 0.0
