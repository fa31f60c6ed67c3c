import math
import random
from itertools import combinations

import pytest

from minesolve.combine import (
    BoardContext,
    CombineInfeasibleError,
    combine,
    combine_by_enumeration,
    format_grid,
    log_comb,
)
from minesolve.engine import Cell
from minesolve.exact import enumerate_group
from minesolve.grouping import Group
from minesolve.sampling import sample_group

from helpers import (
    A,
    B,
    C,
    cells,
    con,
    pipeline_probability_map,
    random_connected_group,
    random_position,
)


def tally_of(*constraints, variables, group_id=0):
    return enumerate_group(
        Group(constraints=tuple(constraints), vars=tuple(variables)), group_id
    )


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


SEA2 = frozenset(cells((5, 0), (5, 1)))


def test_one_group_with_sea_matches_direct_enumeration():
    constraints = [con([A, B], 1)]
    expected = brute_force_with_sea([A, B], constraints, SEA2, 2)
    assert expected == {A: 0.5, B: 0.5, Cell(5, 0): 0.5, Cell(5, 1): 0.5}

    pmap = combine([tally_of(*constraints, variables=(A, B))], BoardContext(2, SEA2))
    for cell, want in expected.items():
        assert pmap[cell] == pytest.approx(want, abs=1e-12)
    assert sum(pmap.values()) == pytest.approx(2.0, abs=1e-9)


def test_no_groups_uniform_sea():
    sea = frozenset(cells((0, 0), (0, 1), (0, 2), (0, 3), (0, 4)))
    pmap = combine([], BoardContext(2, sea))
    assert all(p == pytest.approx(0.4, abs=1e-12) for p in pmap.values())
    assert len(pmap) == 5


def test_single_triple_group_no_sea():
    pmap = combine(
        [tally_of(con([A, B, C], 2), variables=(A, B, C))],
        BoardContext(2, frozenset()),
    )
    assert all(pmap[c] == pytest.approx(2 / 3, abs=1e-12) for c in (A, B, C))


def test_two_groups_no_sea_product_weights():
    d, e, f = cells((2, 0), (2, 1), (2, 2))
    t1 = tally_of(con([A, B], 1), variables=(A, B), group_id=0)
    t2 = tally_of(con([d, e, f], 2), variables=(d, e, f), group_id=1)
    expected = brute_force_with_sea(
        [A, B, d, e, f],
        [con([A, B], 1), con([d, e, f], 2)],
        frozenset(), 3,
    )
    assert expected[A] == 0.5 and expected[d] == pytest.approx(2 / 3)

    pmap = combine([t1, t2], BoardContext(3, frozenset()))
    for cell, want in expected.items():
        assert pmap[cell] == pytest.approx(want, abs=1e-12)


def test_impossible_mine_budget_raises():
    d, e, f = cells((2, 0), (2, 1), (2, 2))
    t1 = tally_of(con([A, B], 1), variables=(A, B), group_id=0)
    t2 = tally_of(con([d, e, f], 2), variables=(d, e, f), group_id=1)
    with pytest.raises(CombineInfeasibleError):
        combine([t1, t2], BoardContext(1, frozenset()))
    with pytest.raises(CombineInfeasibleError):
        combine_by_enumeration([t1, t2], BoardContext(1, frozenset()))


def test_vector_pruning_drops_infeasible_counts():
    # sea of 1: the pair group must take exactly enough mines that the
    # leftover fits, so k=0 for the pair is impossible with M=3
    d, e = cells((2, 0), (2, 1))
    t1 = tally_of(con([A, B], 1), variables=(A, B), group_id=0)
    t2 = tally_of(con([d, e], 1), variables=(d, e), group_id=1)
    sea = frozenset(cells((5, 0),))
    pmap = combine([t1, t2], BoardContext(3, sea))
    assert pmap[Cell(5, 0)] == pytest.approx(1.0, abs=1e-12)
    assert sum(pmap.values()) == pytest.approx(3.0, abs=1e-9)


def test_dp_equals_enumeration_on_random_tallies():
    rng = random.Random(89)
    for _ in range(30):
        tallies = []
        used = 0
        for g in range(rng.randint(1, 4)):
            n = rng.randint(2, 5)
            vs = cells(*((g, used + i) for i in range(n)))
            used += n
            hidden = rng.randint(0, n)
            tallies.append(tally_of(con(vs, hidden), variables=vs, group_id=g))
        sea = frozenset(cells(*((9, i) for i in range(rng.randint(0, 6)))))
        m = rng.randint(0, sum(max(t.counts) for t in tallies) + len(sea))
        ctx = BoardContext(m, sea)
        try:
            direct = combine_by_enumeration(tallies, ctx)
        except CombineInfeasibleError:
            with pytest.raises(CombineInfeasibleError):
                combine(tallies, ctx)
            continue
        dp = combine(tallies, ctx)
        assert set(dp) == set(direct)
        for cell in dp:
            assert dp[cell] == pytest.approx(direct[cell], abs=1e-12)


def test_combine_accepts_sampled_tallies():
    rng = random.Random(97)
    group = random_connected_group(rng, 9, 4)
    sampled = sample_group(group, max_samples=1 << 14, rng=9)
    exact = enumerate_group(group)
    sea = frozenset(cells((9, 0), (9, 1), (9, 2)))
    ctx = BoardContext(max(exact.counts) + 1, sea)
    approx = combine([sampled], ctx)
    truth = combine([exact], ctx)
    for cell in truth:
        assert approx[cell] == pytest.approx(truth[cell], abs=0.03)


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
        derived_mines = sum(1 for v in result.known.values() if v == 1)
        assert result.unassigned_mass + derived_mines == pytest.approx(
            state.spec.mine_count, abs=1e-9
        )


def test_marginals_stable_across_mine_budget_sweep():
    d, e, f = cells((2, 0), (2, 1), (2, 2))
    t1 = tally_of(con([A, B], 1), variables=(A, B), group_id=0)
    t2 = tally_of(con([d, e, f], 1), variables=(d, e, f), group_id=1)
    sea = frozenset(cells(*((7, i) for i in range(10))))
    last = None
    for m in range(2, 12):
        pmap = combine([t1, t2], BoardContext(m, sea))
        for p in pmap.values():
            assert 0.0 <= p <= 1.0 and not math.isnan(p)
        assert sum(pmap.values()) == pytest.approx(m, abs=1e-9)
        sea_p = pmap[Cell(7, 0)]
        if last is not None:
            assert sea_p >= last - 1e-12  # more mines, wetter sea
        last = sea_p


def test_overlapping_groups_rejected():
    t1 = tally_of(con([A, B], 1), variables=(A, B), group_id=0)
    t2 = tally_of(con([B, C], 1), variables=(B, C), group_id=1)
    with pytest.raises(ValueError):
        combine([t1, t2], BoardContext(2, frozenset()))
    with pytest.raises(ValueError):
        combine([t1], BoardContext(2, frozenset({A})))


def test_log_comb_matches_exact():
    assert log_comb(5, -1) == float("-inf")
    assert log_comb(5, 6) == float("-inf")
    assert log_comb(5, 0) == 0.0
    assert log_comb(480, 240) == pytest.approx(math.log(math.comb(480, 240)))


def test_format_grid_four_decimals():
    probs = {Cell(0, 0): 0.5, Cell(0, 1): 1 / 3}
    out = format_grid(probs, width=3, height=1)
    assert out == "0.5000 0.3333 ------"
