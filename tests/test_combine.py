import math
import random
from itertools import combinations

import pytest

from minesolve.combine import CombineInfeasibleError, _binomial_window, combine
from minesolve.engine import Cell
from minesolve.exact import enumerate_group
from minesolve.sampling import sample_group

from helpers import (
    A,
    B,
    C,
    cells,
    combine_by_enumeration,
    con,
    group_of,
    pipeline_probability_map,
    random_connected_group,
    random_position,
)


def tally_of(*constraints):
    return enumerate_group(group_of(*constraints))


def brute_force_with_sea(group_cells, constraints, sea, total_mines):
    """Oracle: place mines over group cells plus sea directly."""
    universe = sorted(group_cells) + sorted(sea)
    hits = {c: 0 for c in universe}
    placements = 0
    for chosen in combinations(universe, total_mines):
        assign = {c: int(c in chosen) for c in universe}
        if all(sum(assign[v] for v in c.vars) == c.rhs for c in constraints):
            placements += 1
            for c in chosen:
                hits[c] += 1
    return {c: hits[c] / placements for c in universe}


def mass(fused, sea_size):
    """Total probability: the group cells plus every sea cell."""
    probs, sea_prob = fused
    return sum(probs.values()) + sea_size * sea_prob


SEA2 = cells((5, 0), (5, 1))


def test_one_group_with_sea_matches_direct_enumeration():
    constraints = [con([A, B], 1)]
    expected = brute_force_with_sea([A, B], constraints, SEA2, 2)
    assert expected == {A: 0.5, B: 0.5, Cell(5, 0): 0.5, Cell(5, 1): 0.5}

    fused = combine([tally_of(*constraints)], 2, 2)
    pmap, sea_prob = fused
    assert set(pmap) == {A, B}
    for cell, want in expected.items():
        got = sea_prob if cell in SEA2 else pmap[cell]
        assert got == pytest.approx(want, abs=1e-12)
    assert mass(fused, 2) == pytest.approx(2.0, abs=1e-9)


def test_no_groups_uniform_sea():
    pmap, sea_prob = combine([], 2, 5)
    assert sea_prob == pytest.approx(0.4, abs=1e-12)
    assert pmap == {}


def test_single_triple_group_no_sea():
    pmap, sea_prob = combine(
        [tally_of(con([A, B, C], 2))],
        2, 0,
    )
    assert all(pmap[c] == pytest.approx(2 / 3, abs=1e-12) for c in (A, B, C))
    assert sea_prob == 0.0


def test_two_groups_no_sea_product_weights():
    d, e, f = cells((2, 0), (2, 1), (2, 2))
    t1 = tally_of(con([A, B], 1))
    t2 = tally_of(con([d, e, f], 2))
    expected = brute_force_with_sea(
        [A, B, d, e, f],
        [con([A, B], 1), con([d, e, f], 2)],
        [], 3,
    )
    assert expected[A] == 0.5 and expected[d] == pytest.approx(2 / 3)

    pmap, _ = combine([t1, t2], 3, 0)
    for cell, want in expected.items():
        assert pmap[cell] == pytest.approx(want, abs=1e-12)


def test_impossible_mine_budget_raises():
    d, e, f = cells((2, 0), (2, 1), (2, 2))
    t1 = tally_of(con([A, B], 1))
    t2 = tally_of(con([d, e, f], 2))
    with pytest.raises(CombineInfeasibleError):
        combine([t1, t2], 1, 0)
    with pytest.raises(CombineInfeasibleError):
        combine_by_enumeration([t1, t2], 1, 0)


def test_vector_pruning_drops_infeasible_counts():
    # sea of 1: the pair group must take exactly enough mines that the
    # leftover fits, so k=0 for the pair is impossible with M=3
    d, e = cells((2, 0), (2, 1))
    t1 = tally_of(con([A, B], 1))
    t2 = tally_of(con([d, e], 1))
    fused = combine([t1, t2], 3, 1)
    assert fused[1] == pytest.approx(1.0, abs=1e-12)
    assert mass(fused, 1) == pytest.approx(3.0, abs=1e-9)


def random_tally_cases():
    """(tallies, mine budget, sea size) cases of 1-4 exact groups, a sea of
    0-6 cells and a mine budget that is sometimes infeasible."""
    rng = random.Random(89)
    for _ in range(30):
        tallies = []
        used = 0
        for g in range(rng.randint(1, 4)):
            n = rng.randint(2, 5)
            vs = cells(*((g, used + i) for i in range(n)))
            used += n
            hidden = rng.randint(0, n)
            tallies.append(tally_of(con(vs, hidden)))
        sea_size = rng.randint(0, 6)
        m = rng.randint(0, sum(len(t.counts) - 1 for t in tallies) + sea_size)
        yield tallies, m, sea_size


def test_dp_equals_enumeration_on_random_tallies():
    for tallies, m, u in random_tally_cases():
        try:
            direct = combine_by_enumeration(tallies, m, u)
        except CombineInfeasibleError:
            with pytest.raises(CombineInfeasibleError):
                combine(tallies, m, u)
            continue
        dp, dp_sea = combine(tallies, m, u)
        assert set(dp) == set(direct[0])
        for cell in dp:
            assert dp[cell] == pytest.approx(direct[0][cell], abs=1e-12)
        assert dp_sea == pytest.approx(direct[1], abs=1e-12)


def test_exact_tallies_match_enumeration_bit_for_bit():
    # both sides divide exact integers once, so each posterior is the
    # correctly rounded rational and the floats are identical
    checked = 0
    for tallies, m, u in random_tally_cases():
        try:
            direct = combine_by_enumeration(tallies, m, u)
        except CombineInfeasibleError:
            continue
        assert combine(tallies, m, u) == direct
        checked += 1
    assert checked >= 10


def mixed_tally_cases():
    """(tallies, mine budget, sea size) cases mixing sampled and counted
    groups: a sampled random group on row 0, a counted one-clue group on
    row 1, up to two more one-clue groups either way, a sea of 0-8 cells
    and a mine budget that is mostly feasible."""
    rng = random.Random(103)
    for case in range(16):
        group = random_connected_group(rng, rng.randint(6, 10), rng.randint(2, 4))
        tallies = [sample_group(group, max_samples=1 << 10, rng=case)]
        for g in range(1, rng.randint(2, 4)):
            vs = cells(*((g, i) for i in range(rng.randint(2, 5))))
            group = group_of(con(vs, rng.randint(0, len(vs))))
            if g > 1 and rng.random() < 0.5:
                tallies.append(sample_group(group, max_samples=1 << 8, rng=case))
            else:
                tallies.append(enumerate_group(group))
        sea_size = rng.randint(0, 8)
        fewest = sum(next(k for k, n in enumerate(t.counts) if n) for t in tallies)
        most = sum(len(t.counts) - 1 for t in tallies) + sea_size
        yield tallies, rng.randint(max(0, fewest - 1), most), sea_size


def test_mixed_tallies_match_enumeration_bit_for_bit():
    # sampled tallies are integer tables too, so the same single integer
    # division gives the same floats on both sides
    checked = 0
    for tallies, m, u in mixed_tally_cases():
        try:
            direct = combine_by_enumeration(tallies, m, u)
        except CombineInfeasibleError:
            with pytest.raises(CombineInfeasibleError):
                combine(tallies, m, u)
            continue
        assert combine(tallies, m, u) == direct
        checked += 1
    assert checked >= 10


def test_combine_accepts_sampled_tallies():
    rng = random.Random(97)
    group = random_connected_group(rng, 9, 4)
    sampled = sample_group(group, max_samples=1 << 14, rng=9)
    exact = enumerate_group(group)
    approx, approx_sea = combine([sampled], len(exact.counts), 3)
    truth, truth_sea = combine([exact], len(exact.counts), 3)
    for cell in truth:
        assert approx[cell] == pytest.approx(truth[cell], abs=0.03)
    assert approx_sea == pytest.approx(truth_sea, abs=0.03)


def test_sampled_tally_on_hard_sized_board_stays_in_range():
    # a 30x16-sized context: ~400 sea cells, 90 mines to place, five exact
    # groups and one sampled group whose weights are around 2^56 per draw
    wide = [Cell(20, i) for i in range(58)]
    sampled = sample_group(
        group_of(con(wide[:30], 10), con(wide[28:], 10)),
        max_samples=1 << 12, rng=5,
    )
    assert max(sampled.counts) > 10 ** 17
    tallies = []
    for g in range(5):
        vs = cells(*((g, i) for i in range(4)))
        tallies.append(tally_of(con(vs[:3], 1), con(vs[1:], 2)))
    fused = combine(tallies + [sampled], 90, 400)
    pmap, sea_prob = fused
    assert len(pmap) == 5 * 4 + 58
    for p in [*pmap.values(), sea_prob]:
        assert math.isfinite(p) and 0.0 <= p <= 1.0
    assert mass(fused, 400) == pytest.approx(90, abs=1e-9)


def test_mass_conservation_on_game_positions():
    rng = random.Random(101)
    done = 0
    while done < 40:
        state = random_position(rng)
        if state is None:
            continue
        done += 1
        result = pipeline_probability_map(state)
        # mass over unassigned cells is exactly the remaining mine budget,
        # and adding back the derived mines recovers the full count
        assert result.unassigned_mass == pytest.approx(
            result.remaining_mines, abs=1e-9
        )
        derived_mines = sum(1 for v in result.derived.values() if v == 1)
        assert result.unassigned_mass + derived_mines == pytest.approx(
            state.spec.mine_count, abs=1e-9
        )


def test_marginals_stable_across_mine_budget_sweep():
    d, e, f = cells((2, 0), (2, 1), (2, 2))
    t1 = tally_of(con([A, B], 1))
    t2 = tally_of(con([d, e, f], 1))
    last = None
    for m in range(2, 12):
        fused = combine([t1, t2], m, 10)
        pmap, sea_p = fused
        for p in [*pmap.values(), sea_p]:
            assert 0.0 <= p <= 1.0 and not math.isnan(p)
        assert mass(fused, 10) == pytest.approx(m, abs=1e-9)
        if last is not None:
            assert sea_p >= last - 1e-12  # more mines, wetter sea
        last = sea_p


def test_overlapping_groups_rejected():
    t1 = tally_of(con([A, B], 1))
    t2 = tally_of(con([B, C], 1))
    with pytest.raises(ValueError):
        combine([t1, t2], 2, 0)
    with pytest.raises(ValueError):
        combine([], 2, -1)
    with pytest.raises(ValueError):
        combine([], -1, 2)


@pytest.mark.parametrize("u", [0, 1, 2, 5, 13, 400])
def test_binomial_window_matches_math_comb(u):
    # every window lo..hi with hi <= u, the empty ones (lo > hi) included
    for lo in range(min(u, 20) + 2):
        for hi in [*range(min(u, 20) + 1), u]:
            assert _binomial_window(u, lo, hi) == [
                math.comb(u, j) for j in range(lo, hi + 1)]
