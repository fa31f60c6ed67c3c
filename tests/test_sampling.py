import math
import random
import statistics
import time

import pytest

from minesolve.engine import Cell
from minesolve.exact import enumerate_group
from minesolve.grouping import Group
from minesolve.sampling import sample_group

from helpers import A, B, cells, con, marginals, random_connected_group, tally_dict


def simple_group(*constraints, variables):
    return Group(constraints=tuple(constraints), vars=tuple(variables))


def test_pair_marginal_converges_to_exact():
    group = simple_group(con([A, B], 1), variables=(A, B))
    exact = marginals(enumerate_group(group))
    assert exact == {A: 0.5, B: 0.5}

    sampled = marginals(sample_group(group, max_samples=1 << 18, rng=123))
    assert abs(sampled[A] - 0.5) < 0.01
    assert abs(sampled[B] - 0.5) < 0.01


def test_forced_variable_is_exact():
    group = simple_group(con([A], 1), variables=(A,))
    tally = sample_group(group, max_samples=4096, rng=5)
    assert tally_dict(tally)[(A, 1)] / tally.counts[1] == 1.0


def test_sampled_marginals_close_to_exact():
    rng = random.Random(61)
    for trial in range(4):
        group = random_connected_group(rng, rng.randint(8, 12), rng.randint(3, 6))
        exact = marginals(enumerate_group(group))
        sampled = marginals(sample_group(group, max_samples=1 << 18, rng=trial))
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
        for k, n_exact in enumerate(exact_tally.counts):
            values = [(r.counts[k] if k < len(r.counts) else 0) / draws
                      for r in reps]
            se_mean = statistics.stdev(values) / math.sqrt(replicates)
            assert abs(statistics.fmean(values) - n_exact) <= 3 * se_mean + 1e-9

        exact_marginals = marginals(exact_tally)
        for cell in exact_marginals:
            values = [marginals(r)[cell] for r in reps]
            se_mean = statistics.stdev(values) / math.sqrt(replicates)
            assert abs(statistics.fmean(values) - exact_marginals[cell]) \
                <= 3 * se_mean + 2e-3


def test_identical_seed_and_budget_identical_tally():
    rng = random.Random(71)
    group = random_connected_group(rng, 10, 4)
    one = sample_group(group, max_samples=8192, rng=42)
    two = sample_group(group, max_samples=8192, rng=42)
    assert one.counts == two.counts
    assert one.box_mines == two.box_mines
    assert one.samples_used == two.samples_used


def test_tallies_are_python_ints():
    # path weights and box mine totals are integers, so the tallies come
    # out as exact Python ints, trimmed like counted ones
    rng = random.Random(89)
    tally = sample_group(random_connected_group(rng, 10, 4), max_samples=4096, rng=3)
    assert tally.counts[-1] > 0
    for row in [tally.counts, *tally.box_mines]:
        assert len(row) == len(tally.counts)
        assert all(type(x) is int and x >= 0 for x in row)


def test_budget_cap_respected():
    rng = random.Random(73)
    group = random_connected_group(rng, 10, 4)
    tally = sample_group(group, max_samples=3000, rng=1)
    assert tally.samples_used <= 3000


def test_deadline_stops_early():
    rng = random.Random(79)
    group = random_connected_group(rng, 12, 5)
    start = time.monotonic()
    tally = sample_group(group, max_samples=1 << 22, deadline=start + 0.05, rng=2)
    elapsed = time.monotonic() - start
    assert tally.samples_used < 1 << 22
    assert elapsed < 0.05 + 0.1  # deadline plus one draw and scheduling slack


def test_sampler_credits_only_satisfiable_counts():
    # a draw is recorded only when it meets every constraint, so each k
    # and (cell, k) the sampler credits has a positive exact count
    rng = random.Random(83)
    for trial in range(20):
        group = random_connected_group(rng, rng.randint(8, 12), rng.randint(3, 6))
        exact = enumerate_group(group)
        sampled = sample_group(group, max_samples=1024, rng=trial)
        assert sampled.counts[-1] > 0
        for k, n in enumerate(sampled.counts):
            assert n == 0 or (k < len(exact.counts) and exact.counts[k] > 0)
        exact_cells = tally_dict(exact)
        for key, n in tally_dict(sampled).items():
            assert n == 0 or exact_cells.get(key, 0) > 0


def test_all_forced_boxes_are_sampled_exactly():
    # one constraint over 30 cells is one box whose mine count is forced,
    # so every draw takes the one path, weighted by all C(30, 3) placements
    # of the box's 3 mines
    wide = [Cell(0, i) for i in range(30)]
    group = simple_group(con(wide, 3), variables=wide)
    draws = 100
    tally = sample_group(group, max_samples=draws, rng=11)
    assert tally.counts == [0, 0, 0, draws * math.comb(30, 3)]
    assert tally.box_mines == [[0, 0, 0, 3 * draws * math.comb(30, 3)]]


def test_importance_never_starves_on_feasible_group():
    tight = cells(*((0, i) for i in range(20)))
    group = simple_group(con(tight, 20), variables=tight)
    tally = sample_group(group, max_samples=64, rng=7)
    assert tally.counts == [0] * 20 + [64]


def test_bad_arguments_rejected():
    group = simple_group(con([A, B], 1), variables=(A, B))
    with pytest.raises(ValueError):
        sample_group(group, max_samples=0)
    with pytest.raises(ValueError):
        sample_group(simple_group(variables=()))
