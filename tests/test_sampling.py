import math
import random
import time

import numpy as np
import pytest

from minesolve.exact import enumerate_group
from minesolve.grouping import Group
from minesolve.sampling import _importance_batch, group_arrays, sample_group

from helpers import A, B, cells, con, random_connected_group, tally_dict


def simple_group(*constraints, variables):
    return Group(constraints=tuple(constraints), vars=tuple(variables))


def test_pair_marginal_converges_to_exact():
    group = simple_group(con([A, B], 1), variables=(A, B))
    exact = enumerate_group(group).marginals()
    assert exact == {A: 0.5, B: 0.5}

    tally = sample_group(group, max_samples=1 << 18, rng=123)
    marginals = tally.marginals()
    assert abs(marginals[A] - 0.5) < 0.01
    assert abs(marginals[B] - 0.5) < 0.01


def test_forced_variable_is_exact():
    group = simple_group(con([A], 1), variables=(A,))
    tally = sample_group(group, max_samples=4096, rng=5)
    assert tally_dict(tally)[(A, 1)] / tally.counts[1] == 1.0


def test_sampled_marginals_close_to_exact():
    rng = random.Random(61)
    for trial in range(4):
        group = random_connected_group(rng, rng.randint(8, 12), rng.randint(3, 6))
        exact = enumerate_group(group).marginals()
        sampled = sample_group(group, max_samples=1 << 18, rng=trial).marginals()
        for cell in exact:
            assert abs(sampled[cell] - exact[cell]) < 0.02


def test_unbiased_within_three_standard_errors():
    # the raw weighted tallies are the unbiased estimators: per draw,
    # E[N_hat(k)] equals the exact N(k). Test replicate means at three
    # standard errors; the normalized marginal (a ratio) gets a small
    # extra allowance for its O(1/draws) ratio bias.
    rng = random.Random(67)
    replicates = 12
    draws = 1 << 12
    for trial in range(20):
        group = random_connected_group(rng, rng.randint(8, 12), rng.randint(3, 6))
        exact_tally = enumerate_group(group)
        reps = [
            sample_group(group, max_samples=draws, rng=2000 + 31 * trial + r)
            for r in range(replicates)
        ]
        for k, n_exact in exact_tally.counts.items():
            values = np.array([r.counts.get(k, 0.0) / draws for r in reps])
            se_mean = values.std(ddof=1) / math.sqrt(replicates)
            assert abs(values.mean() - n_exact) <= 3 * se_mean + 1e-9

        exact_marginals = exact_tally.marginals()
        for cell in exact_marginals:
            values = np.array([r.marginals()[cell] for r in reps])
            se_mean = values.std(ddof=1) / math.sqrt(replicates)
            assert abs(values.mean() - exact_marginals[cell]) <= 3 * se_mean + 2e-3


def test_identical_seed_and_budget_identical_tally():
    rng = random.Random(71)
    group = random_connected_group(rng, 10, 4)
    one = sample_group(group, max_samples=8192, rng=42)
    two = sample_group(group, max_samples=8192, rng=42)
    assert one.counts == two.counts
    assert one.cell_counts == two.cell_counts
    assert one.samples_used == two.samples_used


def test_budget_cap_respected():
    rng = random.Random(73)
    group = random_connected_group(rng, 10, 4)
    tally = sample_group(group, max_samples=3000, rng=1)
    assert tally.samples_used <= 3000
    assert not tally.exact


def test_deadline_stops_early():
    rng = random.Random(79)
    group = random_connected_group(rng, 12, 5)
    start = time.monotonic()
    tally = sample_group(group, max_samples=1 << 22, deadline=start + 0.05, rng=2)
    elapsed = time.monotonic() - start
    assert tally.samples_used < 1 << 22
    assert elapsed < 0.05 + 0.1  # deadline plus one batch of slack


def test_recorded_assignments_satisfy_constraints():
    # every assignment a batch keeps meets each constraint exactly
    rng = random.Random(83)
    group = random_connected_group(rng, 10, 4)
    order = sorted(group.vars)
    a, rhs = group_arrays(group, order)
    vals, weights = _importance_batch(a, rhs, 4096, np.random.default_rng(3))
    assert len(vals) == len(weights) >= 1000
    pos = {cell: i for i, cell in enumerate(order)}
    for row in vals:
        for constraint in group.constraints:
            assert sum(int(row[pos[v]]) for v in constraint.vars) == constraint.rhs


def test_importance_never_starves_on_feasible_group():
    tight = cells(*((0, i) for i in range(20)))
    group = simple_group(con(tight, 20), variables=tight)
    tally = sample_group(group, max_samples=64, rng=7)
    assert tally.counts == {20: 64.0}


def test_bad_arguments_rejected():
    group = simple_group(con([A, B], 1), variables=(A, B))
    with pytest.raises(ValueError):
        sample_group(group, max_samples=0)
    with pytest.raises(ValueError):
        sample_group(simple_group(variables=()))
