import math
import random
import statistics
import time

import pytest

from minesolve.engine import Cell
from minesolve.exact import BoxPlan, enumerate_group
from minesolve.sampling import sample_group

from helpers import A, B, cells, con, group_of, marginals, random_connected_group, tally_dict


def test_pair_marginal_converges_to_exact():
    group = group_of(con([A, B], 1))
    exact = marginals(enumerate_group(group))
    assert exact == {A: 0.5, B: 0.5}

    sampled = marginals(sample_group(group, max_samples=1 << 18, rng=123))
    assert abs(sampled[A] - 0.5) < 0.01
    assert abs(sampled[B] - 0.5) < 0.01


def test_forced_variable_is_exact():
    group = group_of(con([A], 1))
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


def path_moments(plan):
    """Walk every path of the group's box plan, as `sample_group` draws
    them: at each box, j from the range [lo, hi] its checks allow. A draw
    takes a path with probability 1 / prod(width) and scores weight
    W = prod(C(size, j)) * prod(width), so per mine count k, N(k) = sum of
    prod(C(size, j)) and E[W^2] = sum of prod(C(size, j))^2 * prod(width).
    Box b's mine total scores W * j_b. Returns, per k, (first, second)
    moment pairs for N(k) and for each box's mine total."""
    steps = plan.steps()
    n = len(plan.vars) + 1
    counts = [[0, 0] for _ in range(n)]
    box_mines = [[[0, 0] for _ in range(n)] for _ in steps]

    def walk(depth, sums, ways, ways_sq_width, path):
        if depth == len(steps):
            k = sum(path)
            counts[k][0] += ways
            counts[k][1] += ways_sq_width
            for b, j in enumerate(path):
                box_mines[b][k][0] += ways * j
                box_mines[b][k][1] += ways_sq_width * j * j
            return
        check, cis, binom, hi = steps[depth]
        lo = 0
        for ci, rhs, least in check:
            hi = min(hi, rhs - sums[ci])
            lo = max(lo, least - sums[ci])
        width = hi - lo + 1
        for j in range(lo, hi + 1):
            after = list(sums)
            for ci in cis:
                after[ci] += j
            walk(depth + 1, after, ways * binom[j],
                 ways_sq_width * binom[j] ** 2 * width, path + [j])

    walk(0, [0] * len(plan.constraints), 1, 1, [])
    return counts, box_mines


# Every check below bounds a mean of draws * replicates independent path
# weights by Z true standard errors. Z = 5 leaves a two-sided normal tail
# of 5.7e-7 per check, so by Bonferroni the whole test fails by chance
# with probability at most 1e-3 for up to 1745 checks; it makes 1165.
Z = 5.0


def test_unbiased_within_true_standard_errors():
    # the raw weighted tallies are the unbiased estimators: per draw,
    # E[N_hat(k)] equals the exact N(k), and E of a box's mine total its
    # exact total. The true per-draw variance comes from walking every
    # path, so the bound does not lean on an estimated spread, which
    # heavy-tailed path weights make too small.
    rng = random.Random(67)
    replicates = 12
    draws = 1 << 12
    n = draws * replicates
    checks = 0
    for trial in range(20):
        group = random_connected_group(rng, rng.randint(8, 12), rng.randint(3, 6))
        exact_tally = enumerate_group(group)
        counts, box_mines = path_moments(group)
        top = len(exact_tally.counts)
        # the walk's first moments are the exact tally
        assert [first for first, _ in counts[:top]] == exact_tally.counts
        assert [[first for first, _ in row[:top]] for row in box_mines] == \
            exact_tally.box_mines
        reps = [
            sample_group(group, max_samples=draws, rng=2000 + 31 * trial + r)
            for r in range(replicates)
        ]
        sampled = [(counts, [r.counts for r in reps])]
        sampled += [(box_mines[b], [r.box_mines[b] for r in reps])
                    for b in range(len(box_mines))]
        for moments, rows in sampled:
            for k in range(top):
                first, second = moments[k]
                total = sum(row[k] if k < len(row) else 0 for row in rows)
                # integer sums: no rounding in the comparison
                assert abs(total - n * first) <= Z * math.sqrt((second - first ** 2) * n)
                checks += 1
    assert checks * 2 * statistics.NormalDist().cdf(-Z) <= 1e-3


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
    group = group_of(con(wide, 3))
    draws = 100
    tally = sample_group(group, max_samples=draws, rng=11)
    assert tally.counts == [0, 0, 0, draws * math.comb(30, 3)]
    assert tally.box_mines == [[0, 0, 0, 3 * draws * math.comb(30, 3)]]


def test_importance_never_starves_on_feasible_group():
    tight = cells(*((0, i) for i in range(20)))
    group = group_of(con(tight, 20))
    tally = sample_group(group, max_samples=64, rng=7)
    assert tally.counts == [0] * 20 + [64]


def test_bad_arguments_rejected():
    group = group_of(con([A, B], 1))
    with pytest.raises(ValueError):
        sample_group(group, max_samples=0)
    with pytest.raises(ValueError):
        sample_group(BoxPlan((), [], (), (), ((), ())))


def test_sampled_tally_is_pinned():
    # a fixed group through partition: any change to its plan (box order,
    # keys or constraint order) changes the draws and breaks this pin
    group = group_of(
        con(cells((0, 0), (0, 1), (1, 0), (1, 1)), 2),
        con(cells((1, 0), (1, 1), (2, 0), (2, 1)), 1),
        con(cells((0, 1), (0, 2), (1, 2)), 1),
        con(cells((2, 1), (2, 2), (3, 0), (3, 1), (3, 2)), 2),
    )
    tally = sample_group(group, max_samples=4096, rng=2024)
    assert tally.boxes == tuple(tuple(cells(*box)) for box in (
        ((0, 1),), ((1, 0), (1, 1)), ((2, 1),), ((0, 0),), ((0, 2), (1, 2)),
        ((2, 0),), ((2, 2), (3, 0), (3, 1), (3, 2))))
    assert tally.samples_used == 4096
    assert tally.counts == [0, 0, 0, 0, 64320, 123744]
    assert tally.box_mines == [
        [0, 0, 0, 0, 64320, 25680],
        [0, 0, 0, 0, 47232, 98064],
        [0, 0, 0, 0, 17088, 0],
        [0, 0, 0, 0, 17088, 123744],
        [0, 0, 0, 0, 0, 98064],
        [0, 0, 0, 0, 0, 25680],
        [0, 0, 0, 0, 111552, 247488],
    ]
