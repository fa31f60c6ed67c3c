"""`partition`: its groups are the connected components of the
shared-variable graph, and each comes out as the box plan that counting
and sampling walk."""

import random
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from minesolve.constraints import ConstraintSystem
from minesolve.engine import Cell
from minesolve.exact import partition

from helpers import cells, con, random_consistent_system, system

a, b, c, d, e, f = cells((0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (0, 5))


def bfs_components(constraints):
    """Independent oracle: connected components of the shared-variable graph."""
    adjacency = {}
    for constraint in constraints:
        vs = sorted(constraint.vars)
        for v in vs:
            adjacency.setdefault(v, set()).update(u for u in vs if u != v)
    seen = set()
    components = []
    for start in sorted(adjacency):
        if start in seen:
            continue
        queue, comp = deque([start]), set()
        seen.add(start)
        while queue:
            v = queue.popleft()
            comp.add(v)
            for u in adjacency[v]:
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
        components.append(frozenset(comp))
    return sorted(components, key=min)


def check_plan(plan):
    """The plan's boxes, keys, constraints and vars agree: each box's cells
    lie in exactly the constraints its ascending key names, boxes go
    most-constrained first with ties in row-major order, constraints are
    in sort-key order, and vars is the sorted union of the boxes."""
    assert len(plan.boxes) == len(plan.keys)
    for box, key in zip(plan.boxes, plan.keys):
        assert list(key) == sorted(set(key))
        for cell in box:
            assert tuple(ci for ci, c in enumerate(plan.constraints)
                         if cell in c.vars) == key
        assert list(box) == sorted(box)
    assert len(set(plan.keys)) == len(plan.keys)
    order = [(-len(key), box[0]) for box, key in zip(plan.boxes, plan.keys)]
    assert order == sorted(order)
    assert list(plan.constraints) == sorted(plan.constraints, key=lambda c: c.sort_key())
    assert list(plan.vars) == sorted(plan.vars)
    assert sorted(cell for box in plan.boxes for cell in box) == list(plan.vars)


def test_plans_on_random_systems():
    rng = random.Random(29)
    for _ in range(200):
        sys_ = random_consistent_system(rng, rng.randint(1, 16), rng.randint(1, 10))
        for plan in partition(sys_):
            check_plan(plan)


def test_plan_of_one_two_one():
    # A+B=1, A+B+C=2, B+C=1: boxes {A}, {B}, {C}; B is in all three
    plan, = partition(system(con([a, b], 1), con([a, b, c], 2), con([b, c], 1)))
    assert [c.sort_key() for c in plan.constraints] == [
        con([a, b], 1).sort_key(), con([b, c], 1).sort_key(),
        con([a, b, c], 2).sort_key()]
    assert plan.boxes == ((b,), (a,), (c,))
    assert plan.keys == [(0, 1, 2), (0, 2), (1, 2)]
    assert plan.vars == (a, b, c)


def test_partition_disjoint_constraints():
    groups = partition(system(con([a, b], 1), con([c, d], 1)))
    assert len(groups) == 2
    assert [g.vars for g in groups] == [(a, b), (c, d)]


def test_partition_shared_variable_joins():
    groups = partition(system(con([a, b], 1), con([b, c], 1)))
    assert len(groups) == 1
    assert groups[0].vars == (a, b, c)


def test_partition_two_chains():
    sys_ = system(con([a, b], 1), con([b, c], 1), con([d, e], 2), con([e, f], 1))
    expected = bfs_components(sys_.constraints)
    assert expected == [frozenset({a, b, c}), frozenset({d, e, f})]

    groups = partition(sys_)
    assert [frozenset(g.vars) for g in groups] == expected
    assert [len(g.vars) for g in groups] == [3, 3]


def test_partition_matches_bfs_on_random_systems():
    rng = random.Random(17)
    for _ in range(50):
        sys_ = random_consistent_system(rng, rng.randint(3, 14), rng.randint(2, 9))
        groups = partition(sys_)
        assert [frozenset(g.vars) for g in groups] == bfs_components(sys_.constraints)
        # each constraint lands in exactly one group
        assert sorted(
            (c for g in groups for c in g.constraints),
            key=lambda c: c.sort_key(),
        ) == sorted(sys_.constraints, key=lambda c: c.sort_key())


def test_group_vars_cover_system_and_stay_disjoint():
    rng = random.Random(23)
    for _ in range(50):
        sys_ = random_consistent_system(rng, rng.randint(3, 14), rng.randint(2, 9))
        groups = partition(sys_)
        union = set()
        for g in groups:
            assert not union & set(g.vars)
            union |= set(g.vars)
        assert union == sys_.variables()


def test_groups_ordered_by_smallest_cell():
    sys_ = system(con([e, f], 1), con([a, b], 1), con([c, d], 2))
    groups = partition(sys_)
    assert [g.vars[0] for g in groups] == [a, c, e]


@st.composite
def random_systems(draw):
    """Up to 30 cells over a 6-wide grid and up to 20 constraints; the rhs
    is any value in range, since grouping ignores it."""
    n = draw(st.integers(1, 30))
    variables = [Cell(i // 6, i % 6) for i in range(n)]
    constraints = set()
    for _ in range(draw(st.integers(1, 20))):
        members = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=min(n, 8)))
        constraints.add(con([variables[i] for i in members],
                            draw(st.integers(0, len(members)))))
    return ConstraintSystem(frozenset(constraints))


@settings(max_examples=300, deadline=None)
@given(random_systems())
def test_partition_property(sys_):
    groups = partition(sys_)
    assert [frozenset(g.vars) for g in groups] == bfs_components(sys_.constraints)
    placed = [c for g in groups for c in g.constraints]
    assert len(placed) == len(sys_.constraints)
    assert set(placed) == sys_.constraints
    for g in groups:
        check_plan(g)
        assert all(c.vars <= set(g.vars) for c in g.constraints)
    firsts = [g.vars[0] for g in groups]
    assert firsts == sorted(firsts)


def test_long_chain_is_one_group_without_recursion():
    # 10,000 cells far exceed the default recursion limit of 1000, so a
    # recursive walk would raise RecursionError here
    chain = [Cell(i // 100, i % 100) for i in range(10_000)]
    sys_ = system(*(con([u, v], 1) for u, v in zip(chain, chain[1:])))
    groups = partition(sys_)
    assert len(groups) == 1
    assert groups[0].vars == tuple(sorted(chain))
    assert len(groups[0].constraints) == len(chain) - 1
