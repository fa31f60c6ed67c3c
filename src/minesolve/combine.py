"""Fuse per-group tallies with the global mine budget into cell probabilities.

Groups are variable-disjoint, so a joint assignment is a choice of one
satisfying assignment per group plus a placement of the leftover mines in
the unconstrained "sea". Writing k_g for the mines a group receives, each
mine-count vector carries weight

    prod_g N_g(k_g) * C(|U|, M - sum_g k_g)

which is zero whenever the leftover is negative or exceeds the sea - that
zeroing is what rules out impossible per-group mine counts. Cell marginals
under these weights are computed with a convolution over the groups'
count distributions rather than by enumerating vectors; the two agree
exactly, and the explicit enumerator is kept as a cross-check. Binomial
factors reach C(~480, r), so all weight accumulation runs in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import TYPE_CHECKING, Sequence

from .engine import Cell
from .exact import GroupTally

if TYPE_CHECKING:
    import numpy as np

NEG_INF = float("-inf")


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


def log_comb(n: int, r: int) -> float:
    if r < 0 or r > n:
        return NEG_INF
    if r == 0 or r == n:
        return 0.0
    return math.log(math.comb(n, r))


def _lse(arr: np.ndarray) -> float:
    import numpy as np

    m = arr.max()
    if m == NEG_INF:
        return NEG_INF
    return float(m + np.log(np.exp(arr - m).sum()))


def _log_counts(tally: GroupTally) -> np.ndarray:
    import numpy as np

    ks = tally.counts.keys()
    out = np.full(max(ks) + 1, NEG_INF)
    for k, n in tally.counts.items():
        if n > 0:
            out[k] = math.log(n)
    return out


def _log_conv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    import numpy as np

    out = np.full(len(a) + len(b) - 1, NEG_INF)
    for i, la in enumerate(a):
        if la == NEG_INF:
            continue
        seg = out[i:i + len(b)]
        np.logaddexp(seg, la + b, out=seg)
    return out


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
    import numpy as np  # loaded on first use: exact and logic play never need it

    m, u = ctx.remaining_mines, len(ctx.unconstrained)
    logs = [_log_counts(t) for t in tallies]

    prefix: list[np.ndarray] = [np.zeros(1)]
    for lg in logs:
        prefix.append(_log_conv(prefix[-1], lg))
    suffix: list[np.ndarray] = [np.zeros(1)]
    for lg in reversed(logs):
        suffix.append(_log_conv(suffix[-1], lg))
    suffix.reverse()

    total = prefix[-1]  # log of the k-vector-sum distribution
    log_w = _lse(np.array(
        [total[s] + log_comb(u, m - s) for s in range(len(total))]
    ))
    if log_w == NEG_INF:
        raise CombineInfeasibleError(
            f"no assignment places {m} mines over these groups and {u} sea cells"
        )

    probs: dict[Cell, float] = {}
    for g, tally in enumerate(tallies):
        rest = _log_conv(prefix[g], suffix[g + 1])
        # log weight attached to this group taking exactly k mines
        log_kw = {
            k: _lse(np.array(
                [rest[s] + log_comb(u, m - k - s) for s in range(len(rest))]
            ))
            for k in tally.counts
        }
        for cell in tally.cells:
            terms = [
                math.log(c) + log_kw[k]
                for k in tally.counts
                if (c := tally.cell_counts.get((cell, k), 0)) > 0
                and log_kw[k] > NEG_INF
            ]
            probs[cell] = math.exp(_lse(np.array(terms)) - log_w) if terms else 0.0

    if u:
        terms = [
            total[s] + log_comb(u, m - s) + math.log(m - s)
            for s in range(len(total)) if m - s >= 1
        ]
        sea_p = (
            math.exp(_lse(np.array(terms)) - log_w) / u if terms else 0.0
        )
        for cell in ctx.unconstrained:
            probs[cell] = sea_p
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

    def ratio(a: object) -> float:
        if all_exact:
            return float(Fraction(int(a), int(w_total)))
        return a / w_total

    probs = {cell: ratio(v) for cell, v in numer.items()}
    if u:
        sea_p = ratio(sea_numer) / u
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
