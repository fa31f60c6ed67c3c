"""Fuse per-group tallies with the global mine budget into cell probabilities.

Groups are variable-disjoint, so a joint assignment is a choice of one
satisfying assignment per group plus a placement of the leftover mines in
the unconstrained "sea". Writing k_g for the mines a group receives, each
mine-count vector carries weight

    prod_g N_g(k_g) * C(|U|, M - sum_g k_g)

which is zero whenever the leftover is negative or exceeds the sea - that
zeroing is what rules out impossible per-group mine counts. Cell marginals
under these weights come from prefix and suffix convolutions of the
groups' mine-count lists rather than from enumerating vectors; the two
agree exactly, and the explicit enumerator is kept as a cross-check.

When every tally is exact the weights are Python integers and each
posterior is one integer division, so it is correctly rounded and equal
posteriors come out as equal floats. With any sampled tally the same
arithmetic runs on floats, with each weight list divided by its maximum so
that sea binomials up to C(480, 240) stay in range. It is plain Python: a
guess whose groups are all counted exactly never loads numpy.
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
    """remaining_mines is the total minus mines already known; unconstrained
    cells are covered, unassigned, and in no group."""

    remaining_mines: int
    unconstrained: frozenset[Cell]

    def __post_init__(self) -> None:
        if self.remaining_mines < 0:
            raise ValueError("remaining_mines must be >= 0")


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


def _check_disjoint(tallies: Sequence[GroupTally], ctx: BoardContext) -> None:
    seen: set[Cell] = set()
    for tally in tallies:
        overlap = seen.intersection(tally.cells)
        if overlap:
            raise ValueError(f"groups share cells: {sorted(overlap)}")
        seen.update(tally.cells)
    overlap = seen & ctx.unconstrained
    if overlap:
        raise ValueError(f"sea cells overlap group cells: {sorted(overlap)}")


def combine(tallies: Sequence[GroupTally], ctx: BoardContext) -> dict[Cell, float]:
    """Posterior mine probability for every covered, unassigned cell, from
    group tallies plus the mine budget.

    The result is the exact posterior under the joint weights above; total
    probability equals remaining_mines.
    """
    _check_disjoint(tallies, ctx)
    m, u = ctx.remaining_mines, len(ctx.unconstrained)
    weights = [
        [tally.counts.get(k, 0) for k in range(min(max(tally.counts), m) + 1)]
        for tally in tallies
    ]
    # the groups take at most sum(len(w) - 1) mines, so the sea takes at
    # least lo; sea[i] counts placements of lo + i mines in it, and every
    # list index is a mine count minus lo, up to hi = m - lo
    lo = max(0, m - sum(len(w) - 1 for w in weights))
    hi = m - lo
    sea = [math.comb(u, j) for j in range(lo, min(u, m) + 1)]
    tops = [1] * len(tallies)
    if not all(tally.exact for tally in tallies):
        # sampled weights have any scale: divide each list by its maximum
        tops = [max(tally.counts.values()) for tally in tallies]
        weights = [[x / top for x in w] for w, top in zip(weights, tops)]
        top = max(sea, default=1)
        sea = [x / top for x in sea]

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
        denom = w_total * tops[g]
        cell_counts = tally.cell_counts
        for cell in tally.cells:
            numer = sum(cell_counts.get((cell, k), 0) * x for k, x in kw)
            probs[cell] = numer / denom

    if u:
        sea_mines = [(lo + i) * x for i, x in enumerate(sea)]
        probs.update(dict.fromkeys(
            ctx.unconstrained, _coef(sea_mines, suffix[0], hi) / (w_total * u)
        ))
    return probs


def combine_by_enumeration(tallies: Sequence[GroupTally],
                           ctx: BoardContext) -> dict[Cell, float]:
    """Reference implementation: enumerate every mine-count vector.

    Exponential in the number of groups; retained as the oracle the
    convolution path is checked against. Exact tallies are combined in
    integer/rational arithmetic.
    """
    _check_disjoint(tallies, ctx)
    m, u = ctx.remaining_mines, len(ctx.unconstrained)
    all_exact = all(t.exact for t in tallies)

    w_total = 0
    numer: dict[Cell, object] = {
        cell: 0 for t in tallies for cell in t.cells
    }
    sea_numer = 0
    k_lists = [sorted(t.counts) for t in tallies]
    for vector in product(*k_lists):
        leftover = m - sum(vector)
        if leftover < 0 or leftover > u:
            continue
        sea_w = math.comb(u, leftover)
        weight = sea_w
        for tally, k in zip(tallies, vector):
            weight = weight * tally.counts[k]
        if weight == 0:
            continue
        w_total += weight
        sea_numer += weight * leftover
        for tally, k in zip(tallies, vector):
            partial = weight / tally.counts[k] if not all_exact else (
                weight // tally.counts[k]
            )
            for cell in tally.cells:
                numer[cell] += partial * tally.cell_counts.get((cell, k), 0)
    if w_total == 0:
        raise CombineInfeasibleError(
            f"no assignment places {m} mines over these groups and {u} sea cells"
        )

    def ratio(a: object, scale: int = 1) -> float:
        if all_exact:
            return float(Fraction(int(a), int(w_total) * scale))
        return a / (w_total * scale)

    probs = {cell: ratio(v) for cell, v in numer.items()}
    if u:
        sea_p = ratio(sea_numer, u)
        for cell in ctx.unconstrained:
            probs[cell] = sea_p
    return probs


def format_grid(probs: dict[Cell, float], width: int, height: int) -> str:
    """Fixed-point grid dump (4 decimals; '------' where no entry)."""
    rows = []
    for r in range(height):
        rows.append(" ".join(
            f"{probs[Cell(r, c)]:.4f}" if Cell(r, c) in probs else "------"
            for c in range(width)
        ))
    return "\n".join(rows)
