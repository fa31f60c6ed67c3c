import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minesolve.constraints import (
    MINE,
    SAFE,
    Constraint,
    ConstraintSystem,
    ContradictionError,
    deductions,
    extract_constraints,
    reduce_system,
)
from minesolve.engine import BoardSpec, Cell, new_board, parse_board, reveal

from helpers import (
    A,
    B,
    C,
    ONE_TWO_ONE_TEXT,
    brute_force_solutions,
    con,
    random_consistent_system,
    random_position,
    system,
)


def test_extract_clue_with_three_covered_neighbors():
    # the revealed 2 at (1,1) sees exactly the three covered top-row cells
    state = parse_board("3 2 2\n**.\n...\n\n###\nRRR\n")
    sys_ = extract_constraints(state)
    assert con([A, B, C], 2) in sys_.constraints


def test_extract_after_cascade_has_no_zero_clues():
    state = new_board(BoardSpec(3, 3, 0, seed=0))
    reveal(state, Cell(1, 1))
    assert extract_constraints(state).constraints == frozenset()


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_extracted_equations_are_the_clues_of_the_board(rng):
    # every equation is one revealed clue's covered neighbours summing to
    # the mines among them, and every clue that borders a covered cell
    # gives one
    state = random_position(rng)
    if state is None:
        return
    spec, table = state.spec, state.neighbor_table
    clues = {}
    for i, _ in state.revealed_clues():
        covered = frozenset(spec.cell(j) for j in table[i] if not state.revealed[j])
        if covered:
            clues[covered] = sum(state.mines[spec.index(c)] for c in covered)
    extracted = extract_constraints(state).constraints
    for c in extracted:
        assert c.vars
        assert clues.get(c.vars) == c.rhs
    assert {c.vars for c in extracted} == set(clues)


def test_reduce_one_two_one_resolves_everything():
    constraints = [con([A, B], 1), con([A, B, C], 2), con([B, C], 1)]
    solutions = brute_force_solutions(constraints, [A, B, C])
    assert solutions == [{A: 1, B: 0, C: 1}]

    reduced = reduce_system(system(*constraints))
    assert reduced.constraints == frozenset()
    assert reduced.derived == {A: MINE, B: SAFE, C: MINE}


def test_reduce_zero_rhs_forces_safe():
    reduced = reduce_system(system(con([A, B], 0)))
    assert reduced.derived == {A: SAFE, B: SAFE}


def test_reduce_subset_subtraction_example():
    reduced = reduce_system(system(con([A, B, C], 2), con([B, C], 1)))
    assert reduced.derived == {A: MINE}
    assert reduced.constraints == frozenset({con([B, C], 1)})


def test_deductions_read_derived_assignments():
    reduced = reduce_system(system(con([A, B], 1), con([A, B, C], 2), con([B, C], 1)))
    assert deductions(reduced) == ({B}, {A, C})
    assert deductions(reduce_system(system(con([A, B], 1)))) == (set(), set())
    assert deductions(reduce_system(system(con([A], 1)))) == (set(), {A})


def test_reduce_preserves_solution_set():
    rng = random.Random(7)
    for _ in range(60):
        sys_ = random_consistent_system(rng, rng.randint(3, 12), rng.randint(2, 8))
        before = brute_force_solutions(sys_.constraints, sys_.variables())

        reduced = reduce_system(sys_)
        remaining_vars = sorted(sys_.variables() - set(reduced.derived))
        extended = []
        for assign in brute_force_solutions(reduced.constraints, remaining_vars):
            full = dict(reduced.derived)
            full.update(assign)
            extended.append({v: full[v] for v in sorted(sys_.variables())})
        key = lambda a: tuple(sorted(a.items()))
        assert sorted(extended, key=key) == sorted(before, key=key)


@st.composite
def random_systems(draw):
    """Up to 12 variables and 1-8 constraints. Each rhs is the sum of a
    hidden assignment over the constraint's cells, or (sometimes) any
    value in range, so unsatisfiable systems and duplicate constraints
    that disagree occur too."""
    n = draw(st.integers(1, 12))
    variables = [Cell(0, i) for i in range(n)]
    hidden = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    constraints = set()
    for _ in range(draw(st.integers(1, 8))):
        members = draw(st.sets(st.sampled_from(variables), min_size=1, max_size=min(n, 8)))
        if draw(st.booleans()):
            rhs = sum(hidden[v.col] for v in members)
        else:
            rhs = draw(st.integers(0, len(members)))
        constraints.add(con(members, rhs))
    return ConstraintSystem(frozenset(constraints))


@settings(max_examples=300, deadline=None)
@given(random_systems())
def test_reduce_matches_brute_force_property(sys_):
    variables = sorted(sys_.variables())
    solutions = brute_force_solutions(sys_.constraints, variables)
    try:
        reduced = reduce_system(sys_)
    except ContradictionError:
        # reduction is incomplete, so a system it accepts may still have
        # no solution; a system it rejects never has one
        assert not solutions
        return

    def satisfies(assign):
        return (all(assign[cell] == v for cell, v in reduced.derived.items())
                and all(sum(assign[v] for v in c.vars) == c.rhs
                        for c in reduced.constraints))

    assignments = (dict(zip(variables, bits))
                   for bits in product((0, 1), repeat=len(variables)))
    assert [a for a in assignments if satisfies(a)] == solutions
    for cell, value in reduced.derived.items():
        assert all(s[cell] == value for s in solutions)


def test_reduce_is_idempotent():
    rng = random.Random(13)
    for _ in range(30):
        sys_ = random_consistent_system(rng, rng.randint(3, 10), rng.randint(2, 6))
        once = reduce_system(sys_)
        assert reduce_system(once) == once


def test_reduce_deductions_sound_on_game_positions():
    rng = random.Random(3)
    checked = 0
    positions = 0
    while positions < 1000:
        state = random_position(rng, width=6, height=6, mines=(4, 8))
        if state is None:
            continue
        positions += 1
        reduced = reduce_system(extract_constraints(state))
        safe, mines = deductions(reduced)
        for cell in safe:
            assert not state.mines[state.spec.index(cell)]
        for cell in mines:
            assert state.mines[state.spec.index(cell)]
        checked += len(safe) + len(mines)
    assert checked > 500  # the sweep actually exercised deductions


def test_reduce_step_counter_bounded():
    rng = random.Random(29)
    for _ in range(40):
        n_vars = rng.randint(4, 12)
        sys_ = random_consistent_system(rng, n_vars, rng.randint(2, 8))
        reduced = reduce_system(sys_)
        assert reduced.steps <= n_vars * n_vars


def test_duplicate_constraints_merge_or_conflict():
    merged = reduce_system(system(con([A, B], 1), con([A, B], 1)))
    assert merged.constraints == frozenset({con([A, B], 1)})
    with pytest.raises(ContradictionError):
        reduce_system(system(con([A, B], 1), con([B, A], 2)))


def test_constraint_rhs_out_of_range_rejected():
    with pytest.raises(ContradictionError):
        Constraint(frozenset([A, B]), 3)
    with pytest.raises(ContradictionError):
        Constraint(frozenset([A]), -1)
    with pytest.raises(ContradictionError):
        Constraint(frozenset(), 0)


def test_reduce_detects_forced_conflict():
    # A+B=2 forces both mines, then A+C=0 forces A safe
    with pytest.raises(ContradictionError):
        reduce_system(system(con([A, B], 2), con([A, C], 0)))


D, E, F = Cell(0, 3), Cell(0, 4), Cell(0, 5)


@pytest.mark.parametrize("constraints, message", [
    # subset subtraction leaves D = -1
    ((con([A, B, C], 2), con([A, B, C, D], 1)), "rhs=-1 impossible"),
    # subset subtraction leaves D + E = 3
    ((con([A, B, C], 1), con([A, B, C, D, E], 4)), "rhs=3 impossible"),
    # A, B and C are mines, so substitution empties A + B = 1 with rhs -1
    ((con([A, B, C], 3), con([A, B], 1)), "empty constraint left with rhs=-1"),
    # A is a mine and D safe, so substitution leaves B + C = 1 and B + C = 2
    ((con([A, E], 2), con([D, F], 0), con([A, B, C], 2), con([B, C, D], 2)),
     "duplicate constraints disagree"),
])
def test_rewritten_constraint_contradictions_raise(constraints, message):
    with pytest.raises(ContradictionError, match=message):
        reduce_system(system(*constraints))


def test_extraction_of_full_position_matches_visible_clues():
    state = parse_board(ONE_TWO_ONE_TEXT)
    got = {(tuple(sorted(c.vars)), c.rhs) for c in extract_constraints(state).constraints}
    assert got == {
        ((A, B), 1),
        ((A, B, C), 2),
        ((B, C), 1),
    }
