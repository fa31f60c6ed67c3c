import math
import random
import time
from collections import OrderedDict
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minesolve import exact
from minesolve.constraints import ContradictionError
from minesolve.engine import Cell
from minesolve.exact import (
    EXACT_VAR_LIMIT,
    GroupTooLargeError,
    enumerate_group,
)
from minesolve.grouping import Group, partition

from helpers import A, B, C, cells, con, random_connected_group, system, tally_dict


def naive_tally(group):
    """Oracle: test all 2^n assignments directly. Returns the N(k) list,
    trimmed after its last nonzero entry, and C(cell, k) keyed by
    (cell, k)."""
    variables = sorted(group.vars)
    counts, cell_counts = {}, {}
    for bits in product((0, 1), repeat=len(variables)):
        assign = dict(zip(variables, bits))
        if not all(sum(assign[v] for v in c.vars) == c.rhs for c in group.constraints):
            continue
        k = sum(bits)
        counts[k] = counts.get(k, 0) + 1
        for v, bit in assign.items():
            if bit:
                cell_counts[(v, k)] = cell_counts.get((v, k), 0) + 1
    return [counts.get(k, 0) for k in range(max(counts, default=-1) + 1)], cell_counts


def group_of(*constraints) -> Group:
    groups = partition(system(*constraints))
    assert len(groups) == 1
    return groups[0]


def test_pair_group():
    tally = enumerate_group(group_of(con([A, B], 1)))
    assert tally.counts == [0, 2]
    per_cell = tally_dict(tally)
    assert per_cell[(A, 1)] == 1
    assert per_cell[(B, 1)] == 1


def test_triple_choose_two():
    tally = enumerate_group(group_of(con([A, B, C], 2)))
    assert tally.counts == [0, 0, 3]
    assert all(tally_dict(tally)[(v, 2)] == 2 for v in (A, B, C))


ONE_TWO_ONE = (con([A, B], 1), con([A, B, C], 2), con([B, C], 1))


def test_one_two_one_group():
    expected_counts, expected_cells = naive_tally(group_of(*ONE_TWO_ONE))
    assert expected_counts == [0, 0, 1]

    tally = enumerate_group(group_of(*ONE_TWO_ONE))
    assert tally.counts == expected_counts
    per_cell = tally_dict(tally)
    assert per_cell[(A, 2)] == 1
    assert per_cell[(C, 2)] == 1
    assert per_cell[(B, 2)] == 0
    assert {k: v for k, v in per_cell.items() if v} == {
        k: v for k, v in expected_cells.items() if v
    }


def test_one_two_one_prunes_below_eight_nodes():
    tally = enumerate_group(group_of(*ONE_TWO_ONE))
    assert tally.nodes_visited < 8


def test_matches_naive_enumeration_on_random_groups():
    rng = random.Random(41)
    for _ in range(40):
        group = random_connected_group(rng, rng.randint(3, 12), rng.randint(2, 6))
        counts, cell_counts = naive_tally(group)
        tally = enumerate_group(group)
        assert tally.counts == counts
        assert {k: v for k, v in tally_dict(tally).items() if v} == cell_counts


def test_tally_invariants():
    rng = random.Random(43)
    for _ in range(30):
        group = random_connected_group(rng, rng.randint(3, 10), rng.randint(2, 5))
        tally = enumerate_group(group)
        assert tally.counts[-1] >= 1
        for k, n in enumerate(tally.counts):
            per_cell = [row[k] for row in tally.cell_counts]
            assert all(0 <= c <= n for c in per_cell)
            assert sum(per_cell) == k * n


def test_nodes_never_exceed_two_to_the_n():
    rng = random.Random(47)
    for _ in range(30):
        n = rng.randint(3, 12)
        group = random_connected_group(rng, n, rng.randint(2, 6))
        tally = enumerate_group(group)
        assert tally.nodes_visited <= 2 ** len(group.vars)


def test_tally_independent_of_variable_order():
    rng = random.Random(53)
    group = random_connected_group(rng, 9, 4)
    base = enumerate_group(group)
    for _ in range(5):
        shuffled = list(group.vars)
        rng.shuffle(shuffled)
        permuted = Group(constraints=group.constraints, vars=tuple(shuffled))
        tally = enumerate_group(permuted)
        assert tally.counts == base.counts
        assert tally.cell_counts == base.cell_counts


def test_group_above_threshold_rejected():
    big = cells(*((0, i) for i in range(EXACT_VAR_LIMIT + 1)))
    group = group_of(con(big, 3))
    with pytest.raises(GroupTooLargeError):
        enumerate_group(group)


def test_inconsistent_group_rejected():
    # A+B=2 forces both mines, B+C=0 forces B safe
    group = Group(
        constraints=(con([A, B], 2), con([B, C], 0), con([A, C], 1)),
        vars=(A, B, C),
    )
    with pytest.raises(ContradictionError):
        enumerate_group(group)


def test_empty_group_rejected():
    with pytest.raises(ValueError, match="empty group"):
        enumerate_group(Group(constraints=(), vars=()))


@st.composite
def random_groups(draw):
    """Up to 12 variables and 1-6 constraints. Each rhs is the sum of a
    hidden assignment over the constraint's cells, or (sometimes) any
    value in range, so unsatisfiable groups occur too."""
    n = draw(st.integers(1, 12))
    variables = [Cell(0, i) for i in range(n)]
    hidden = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    constraints = {}
    for _ in range(draw(st.integers(1, 6))):
        members = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=min(n, 8)))
        if draw(st.booleans()):
            rhs = sum(hidden[i] for i in members)
        else:
            rhs = draw(st.integers(0, len(members)))
        constraints[frozenset(members)] = rhs
    group_vars = sorted({variables[i] for members in constraints for i in members})
    return Group(
        constraints=tuple(con([variables[i] for i in m], r) for m, r in constraints.items()),
        vars=tuple(group_vars),
    )


@settings(max_examples=300, deadline=None)
@given(random_groups())
def test_matches_brute_force_property(group):
    counts, cell_counts = naive_tally(group)
    if not counts:
        with pytest.raises(ContradictionError):
            enumerate_group(group)
        return
    tally = enumerate_group(group)
    assert tally.counts == counts
    per_cell = tally_dict(tally)
    assert {k: v for k, v in per_cell.items() if v} == cell_counts
    assert set(per_cell) == {(v, k) for v in group.vars for k in range(len(counts))}
    assert tally.nodes_visited <= 2 ** len(group.vars)


def loose_group() -> Group:
    """22 cells under three overlapping 8-cell clues: 49,196 solutions."""
    row = [Cell(0, i) for i in range(22)]
    constraints = (con(row[0:8], 3), con(row[7:15], 3), con(row[14:22], 3))
    return Group(constraints=constraints, vars=tuple(row))


def scattered_group() -> Group:
    """22 cells under 8 seeded clues of 6-12 cells, no two cells in the
    same clues: every box is one cell, and the search needs ~10k nodes."""
    rng = random.Random(1365)
    row = [Cell(0, i) for i in range(22)]
    clues = [rng.sample(row, rng.randint(6, 12)) for _ in range(8)]
    return Group(constraints=tuple(con(c, len(c) // 2) for c in clues), vars=tuple(row))


def test_loose_group_counted_by_boxes():
    # boxes of 7, 1, 6, 1 and 7 cells; b and d are the mines on the two
    # cells shared by neighbouring clues
    group = loose_group()
    r1, r2, r3 = (c.rhs for c in group.constraints)
    expected = {}
    for b, d in product((0, 1), repeat=2):
        k = r1 + r2 + r3 - b - d
        expected[k] = expected.get(k, 0) + (
            math.comb(7, r1 - b) * math.comb(6, r2 - b - d) * math.comb(7, r3 - d))
    assert sum(expected.values()) == 49_196
    tally = enumerate_group(group)
    assert {k: n for k, n in enumerate(tally.counts) if n} == expected
    assert len(tally.counts) == max(expected) + 1
    for k, n in expected.items():
        assert sum(row[k] for row in tally.cell_counts) == k * n
    assert tally.nodes_visited < 100


def test_past_deadline_raises():
    group = group_of(con([A, B], 1))
    with pytest.raises(GroupTooLargeError):
        enumerate_group(group, deadline=time.monotonic() - 1.0)


def test_node_cap_raises(monkeypatch):
    # with one-cell boxes the search branches at most two ways, so it
    # passes at least nodes_visited - 1 branch points: more than
    # 2 * CHECK_EVERY_NODES reaches the second check, past MAX_NODES
    group = scattered_group()
    memberships = {
        frozenset(i for i, c in enumerate(group.constraints) if cell in c.vars)
        for cell in group.vars
    }
    assert len(memberships) == len(group.vars)
    assert enumerate_group(group).nodes_visited > 2 * exact.CHECK_EVERY_NODES
    monkeypatch.setattr(exact, "MAX_NODES", exact.CHECK_EVERY_NODES)
    monkeypatch.setattr(exact, "_memo", OrderedDict())  # search, not reuse
    start = time.monotonic()
    with pytest.raises(GroupTooLargeError):
        enumerate_group(group)
    assert time.monotonic() - start < 1.0


def relabelled(group: Group, relabel) -> Group:
    """The group with every cell renamed by `relabel`."""
    return group_of(*(con([relabel(v) for v in c.vars], c.rhs) for c in group.constraints))


def cold_count(group: Group):
    exact._memo.clear()
    return enumerate_group(group)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(-5, 5), st.integers(-5, 5))
def test_kept_structure_gives_the_cold_tally(seed, width, dr, dc):
    # renaming cell (0, i) to (dr + i // width, dc + i % width) keeps the
    # cells' row-major order, so the copy has the same box structure
    rng = random.Random(seed)
    group = random_connected_group(rng, rng.randint(3, 12), rng.randint(2, 6))
    copy = relabelled(group, lambda v: Cell(dr + v.col // width, dc + v.col % width))
    cold = cold_count(copy)
    assert cold.nodes_visited > 0
    enumerate_group(group)
    hit = enumerate_group(copy)
    assert hit.nodes_visited == 0
    assert hit.cells == cold.cells
    assert hit.counts == cold.counts
    assert hit.cell_counts == cold.cell_counts

    # any other renaming: reused or searched, the tally is the cold one
    order = list(range(len(group.vars)))
    rng.shuffle(order)
    shuffled = relabelled(group, lambda v: Cell(0, order[v.col]))
    cold = cold_count(shuffled)
    enumerate_group(group)
    tally = enumerate_group(shuffled)
    assert tally_dict(tally) == tally_dict(cold)
    assert tally.counts == cold.counts


def test_memo_holds_at_most_its_limit(monkeypatch):
    monkeypatch.setattr(exact, "MEMO_LIMIT", 3)
    rng = random.Random(59)
    for _ in range(40):
        enumerate_group(random_connected_group(rng, rng.randint(3, 10), rng.randint(2, 5)))
        assert len(exact._memo) <= 3
    assert len(exact._memo) == 3


def test_editing_a_tally_leaves_later_tallies_alone():
    group = group_of(*ONE_TWO_ONE)
    first = cold_count(group)
    expected = (list(first.counts), [list(row) for row in first.cell_counts])
    exact._memo.clear()
    for _ in range(2):  # the searched tally, then a reused one
        tally = enumerate_group(group)
        tally.counts[1] = 99
        tally.counts.append(7)
        for row in tally.cell_counts:
            row[0] = 99
            row.append(7)
        again = enumerate_group(group)
        assert again.nodes_visited == 0
        assert (again.counts, again.cell_counts) == expected
