"""Approximate tallies for groups too large to count, within a budget.

Each draw walks the group's `BoxPlan` from `partition`, the plan the
exact search walks, down one random path, as in Knuth's estimator of a
backtrack tree (Math. Comp. 29, 1975): at each box it draws j mines
uniformly from the range [lo, hi] the checks allow and multiplies the
path's weight by C(size, j) * (hi - lo + 1). A dead end (an empty range)
adds nothing. Each weight's expectation is the exact count, and the
weights are integers, so the tallies are integer tables like the exact
ones, scaled by the number of draws - which is all the combiner needs.
"""

from __future__ import annotations

from random import Random
from time import monotonic
from typing import Optional

from .exact import BoxPlan, GroupTally

MAX_SAMPLES_DEFAULT = 1 << 14


class SamplingStarvedError(RuntimeError):
    """No accepted samples within the budget; use the fallback heuristic."""


def sample_group(plan: BoxPlan,
                 max_samples: int = MAX_SAMPLES_DEFAULT,
                 deadline: Optional[float] = None,
                 rng: Optional[int] = None) -> GroupTally:
    """Estimate a group's tally from up to max_samples path draws.

    `deadline` is an optional time.monotonic() cutoff, checked between
    draws; sampling stops at the first check past it, after at least one
    draw. Identical (plan, rng seed, max_samples) inputs give identical
    tallies when the deadline does not cut in.
    """
    if max_samples < 1:
        raise ValueError("max_samples must be >= 1")
    if not plan.vars:
        raise ValueError("cannot sample an empty group")

    steps = plan.steps()
    randrange = Random(rng).randrange
    n_constraints = len(plan.constraints)
    # summed weight per path, a path being the mines given to each box
    paths: dict[tuple[int, ...], int] = {}
    draws = 0
    while draws < max_samples:
        if deadline is not None and draws and monotonic() > deadline:
            break
        draws += 1
        sums = [0] * n_constraints
        weight = 1
        path = []
        for check, cis, binom, hi in steps:
            lo = 0
            for ci, rhs, least in check:
                s = sums[ci]
                if s + hi > rhs:
                    hi = rhs - s
                if s + lo < least:
                    lo = least - s
            if lo > hi:
                break
            width = hi - lo + 1
            j = lo + randrange(width) if width > 1 else lo
            weight *= binom[j] * width
            if j:
                for ci in cis:
                    sums[ci] += j
            path.append(j)
        else:
            # the last box of each constraint met its rhs exactly
            key = tuple(path)
            paths[key] = paths.get(key, 0) + weight

    if not paths:
        raise SamplingStarvedError(f"no satisfying assignment found in {draws} draws")
    counts = [0] * (len(plan.vars) + 1)
    box_totals = [[0] * len(counts) for _ in steps]
    for path, weight in paths.items():
        k = sum(path)
        counts[k] += weight
        for totals, j in zip(box_totals, path):
            totals[k] += weight * j
    while not counts[-1]:
        counts.pop()
    return plan.tally(counts, box_totals, samples_used=draws)
