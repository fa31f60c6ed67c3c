"""Approximate tallies for groups too large to enumerate, within a budget.

The sampler draws assignments by walking the variables in a random
order: a variable whose value is forced by the running constraint sums is
set for free, an unforced one is drawn uniformly, and the finished
assignment is weighted by the inverse of its draw probability (2^#free
choices). Every satisfying assignment is reachable under every order, so
the weighted tallies are unbiased estimates of the exact counts up to a
common scale - which is all the combiner needs.
"""

from __future__ import annotations

from time import monotonic
from typing import TYPE_CHECKING, Optional, Union

from .engine import Cell
from .exact import GroupTally
from .grouping import Group

if TYPE_CHECKING:
    import numpy as np

MAX_SAMPLES_DEFAULT = 1 << 18
# draws per vectorized batch; the deadline is checked between batches
BATCH_DRAWS = 1024


class SamplingStarvedError(RuntimeError):
    """No accepted samples within the budget; use the fallback heuristic."""


def sample_group(group: Group,
                 max_samples: int = MAX_SAMPLES_DEFAULT,
                 deadline: Optional[float] = None,
                 rng: Union[np.random.Generator, int, None] = None) -> GroupTally:
    """Estimate a group's tally from up to max_samples candidate draws.

    `deadline` is an optional time.monotonic() cutoff; sampling stops at
    the first batch boundary past it, after at least one batch. Identical
    (group, rng seed, max_samples) inputs give identical tallies when the
    deadline does not cut in.
    """
    if max_samples < 1:
        raise ValueError("max_samples must be >= 1")
    if not group.vars:
        raise ValueError("cannot sample an empty group")
    import numpy as np  # loaded on first use: only sampled guesses need it

    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)

    cells = tuple(sorted(group.vars))
    a, rhs = group_arrays(group, list(cells))
    n = len(cells)

    counts = np.zeros(n + 1, dtype=np.float64)
    cell_counts = np.zeros((n, n + 1), dtype=np.float64)
    draws_done = 0
    while draws_done < max_samples:
        if deadline is not None and monotonic() > deadline and draws_done > 0:
            break
        batch = min(BATCH_DRAWS, max_samples - draws_done)
        vals, weights = _importance_batch(a, rhs, batch, rng)
        draws_done += batch
        if vals.shape[0] == 0:
            continue
        ks = vals.sum(axis=1).astype(np.int64)
        for k in np.unique(ks):
            m = ks == k
            counts[k] += weights[m].sum()
            cell_counts[:, k] += vals[m].T.astype(np.float64) @ weights[m]

    if counts.sum() <= 0.0:
        raise SamplingStarvedError(
            f"no satisfying assignment found in {draws_done} draws"
        )
    ks_present = [int(k) for k in np.flatnonzero(counts)]
    return GroupTally(
        cells=cells,
        counts={k: float(counts[k]) for k in ks_present},
        cell_counts=cell_counts[:, :ks_present[-1] + 1].tolist(),
        exact=False,
        samples_used=draws_done,
    )


def group_arrays(group: Group, order: list[Cell]) -> tuple[np.ndarray, np.ndarray]:
    """(membership matrix, rhs vector) with variables in the given order."""
    import numpy as np

    pos = {cell: i for i, cell in enumerate(order)}
    a = np.zeros((len(group.constraints), len(order)), dtype=np.int16)
    rhs = np.zeros(len(group.constraints), dtype=np.int16)
    for ci, constraint in enumerate(group.constraints):
        for cell in constraint.vars:
            a[ci, pos[cell]] = 1
        rhs[ci] = constraint.rhs
    return a, rhs


def _importance_batch(a: np.ndarray, rhs: np.ndarray, batch: int,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One batch of randomized-order draws; all rows share the batch's
    variable order. Returns (accepted assignments, their weights)."""
    import numpy as np

    n_cons, n = a.shape
    order = rng.permutation(n)
    remaining = a.sum(axis=1).astype(np.int64)
    sums = np.zeros((batch, n_cons), dtype=np.int16)
    vals = np.zeros((batch, n), dtype=np.uint8)
    free_bits = np.zeros(batch, dtype=np.int64)
    alive = np.ones(batch, dtype=bool)

    for v in order:
        member = np.flatnonzero(a[:, v])
        remaining[member] -= 1
        sub = sums[:, member]
        feas1 = (sub < rhs[member]).all(axis=1)
        feas0 = (sub >= rhs[member] - remaining[member]).all(axis=1)
        alive &= feas0 | feas1
        both = feas0 & feas1
        coin = rng.integers(0, 2, size=batch, dtype=np.uint8)
        val = np.where(both, coin, feas1.astype(np.uint8))
        free_bits += both & alive
        vals[:, v] = val
        if member.size:
            sums[:, member] += val[:, None]

    # survivors finish with every constraint met exactly
    vals = vals[alive]
    weights = np.exp2(free_bits[alive].astype(np.float64))
    return vals, weights
