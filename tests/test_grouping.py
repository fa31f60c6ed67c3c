import random
from collections import Counter, deque

from minesolve.grouping import DisjointSet, partition

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


def test_union_find_operations_stay_linear_in_total_vars(monkeypatch):
    calls = Counter()
    for name in ("union", "find"):
        def counted(self, *args, _name=name, _real=getattr(DisjointSet, name)):
            calls[_name] += 1
            return _real(self, *args)

        monkeypatch.setattr(DisjointSet, name, counted)
    rng = random.Random(31)
    for _ in range(25):
        sys_ = random_consistent_system(rng, rng.randint(3, 14), rng.randint(2, 9))
        total_vars = sum(len(c.vars) for c in sys_.constraints)
        calls.clear()
        partition(sys_)
        # every union makes two find calls of its own; count only the others
        outside_finds = calls["find"] - 2 * calls["union"]
        assert calls["union"] + outside_finds <= 2 * total_vars


def test_disjoint_set_merges():
    dsu = DisjointSet([1, 2, 3, 4])
    dsu.union(1, 2)
    dsu.union(3, 4)
    assert dsu.find(1) == dsu.find(2)
    assert dsu.find(3) == dsu.find(4)
    assert dsu.find(1) != dsu.find(3)


def test_groups_ordered_by_smallest_cell():
    sys_ = system(con([e, f], 1), con([a, b], 1), con([c, d], 2))
    groups = partition(sys_)
    assert [g.vars[0] for g in groups] == [a, c, e]
