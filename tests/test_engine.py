import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minesolve.engine import (
    BoardConfigError,
    BoardFormatError,
    BoardSpec,
    Cell,
    GameStatus,
    InvalidMoveError,
    difficulty_spec,
    neighbor_table,
    new_board,
    parse_board,
    render_board,
    reveal,
)

from helpers import ONE_TWO_ONE_TEXT


def test_new_board_places_exact_mine_count():
    state = new_board(BoardSpec(8, 8, 10, seed=1))
    assert sum(state.mines) == 10
    assert state.status is GameStatus.IN_PROGRESS


def test_zero_mine_board_wins_on_first_reveal():
    state = new_board(BoardSpec(2, 2, 0, seed=0))
    outcome = reveal(state, Cell(0, 0))
    assert not outcome.mine
    assert len(outcome.opened) == 4
    assert state.status is GameStatus.WON


def test_first_click_safe_never_mines_first_cell():
    for seed in range(100):
        spec = BoardSpec(8, 8, 10, first_click_safe=True, seed=seed)
        state = new_board(spec, first_click=Cell(0, 0))
        assert not state.mines[0]


def test_first_click_safe_requires_first_click():
    with pytest.raises(BoardConfigError):
        new_board(BoardSpec(8, 8, 10, first_click_safe=True))


def test_neighbors_interior_corner_edge():
    table = neighbor_table(8, 8)
    assert len(table[4 * 8 + 4]) == 8
    assert sorted(table[0]) == [1, 8, 9]
    assert len(table[3]) == 5


def _board_with_center_mine() -> str:
    return "3 3 1\n...\n.*.\n...\n\n###\n###\n###\n"


def test_reveal_counts_adjacent_mines():
    state = parse_board(_board_with_center_mine())
    outcome = reveal(state, Cell(0, 0))
    assert outcome.value == 1
    assert outcome.opened == frozenset({Cell(0, 0)})
    for name in ("mine", "value", "opened"):
        with pytest.raises(AttributeError):
            setattr(outcome, name, None)
    assert outcome == (False, 1, frozenset({Cell(0, 0)}))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_reveal_opens_exactly_the_cells_it_flips(data):
    width, height = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
    spec = BoardSpec(width, height, data.draw(st.integers(0, width * height)),
                     seed=data.draw(st.integers(0, 2**32 - 1)))
    state = new_board(spec)
    for i in data.draw(st.permutations(range(spec.cells))):
        if state.status is not GameStatus.IN_PROGRESS:
            break
        cell = spec.cell(i)
        if state.revealed[i]:
            with pytest.raises(InvalidMoveError):
                reveal(state, cell)
            continue
        before = list(state.revealed)
        outcome = reveal(state, cell)
        flipped = {spec.cell(j) for j in range(spec.cells)
                   if state.revealed[j] and not before[j]}
        assert outcome.mine == state.mines[i]
        assert outcome.opened == flipped
        if outcome.mine:
            assert flipped == {cell} and outcome.value is None
        else:
            assert outcome.value == state.values[i]
        assert state.moves[-1] == (cell, "boom" if outcome.mine else outcome.value)
        assert state.revealed_count() == sum(state.revealed)


def test_reveal_cascades_through_zero_cells():
    state = new_board(BoardSpec(3, 3, 0))
    outcome = reveal(state, Cell(1, 1))
    assert len(outcome.opened) == 9
    assert state.status is GameStatus.WON


def test_reveal_mine_loses():
    state = parse_board(_board_with_center_mine())
    outcome = reveal(state, Cell(1, 1))
    assert outcome.mine
    assert state.status is GameStatus.LOST
    assert state.moves[-1] == (Cell(1, 1), "boom")


def test_reveal_twice_rejected():
    state = parse_board(_board_with_center_mine())
    reveal(state, Cell(0, 0))
    with pytest.raises(InvalidMoveError):
        reveal(state, Cell(0, 0))


def test_reveal_after_game_over_rejected():
    state = parse_board(_board_with_center_mine())
    reveal(state, Cell(1, 1))
    with pytest.raises(InvalidMoveError):
        reveal(state, Cell(0, 0))


def test_mine_count_out_of_range_rejected():
    with pytest.raises(BoardConfigError):
        BoardSpec(2, 2, 5)
    with pytest.raises(BoardConfigError):
        BoardSpec(2, 2, 4, first_click_safe=True)
    BoardSpec(2, 2, 4)  # boundary: full board allowed when unprotected


def test_render_parse_round_trip():
    assert render_board(parse_board(ONE_TWO_ONE_TEXT)) == ONE_TWO_ONE_TEXT
    state = new_board(BoardSpec(5, 4, 6, seed=9))
    reveal(state, Cell(0, 0))
    text = render_board(state)
    again = parse_board(text)
    assert render_board(again) == text
    assert again.status is state.status


def test_parse_small_board():
    state = parse_board("2 2 1\n*.\n..\n\n##\n##\n")
    assert sum(state.mines) == 1
    assert state.mines[0]


def test_parse_rejects_ragged_rows():
    with pytest.raises(BoardFormatError):
        parse_board("2 2 1\n*.\n...\n\n##\n##\n")


@pytest.mark.parametrize("text", [
    "",
    "2 2\n*.\n..\n\n##\n##\n",
    "2 2 1\n*.\nx.\n\n##\n##\n",
    "2 2 2\n*.\n..\n\n##\n##\n",  # header mine count mismatch
    "2 2 1\n*.\n..\n##\n##\n",    # missing blank separator
])
def test_parse_rejects_malformed(text):
    with pytest.raises(BoardFormatError):
        parse_board(text)


def test_parse_derives_status():
    won = parse_board("2 2 1\n*.\n..\n\n#R\nRR\n")
    assert won.status is GameStatus.WON
    lost = parse_board("2 2 1\n*.\n..\n\nR#\n##\n")
    assert lost.status is GameStatus.LOST


def test_same_seed_same_layout_different_seeds_differ():
    base = new_board(BoardSpec(8, 8, 10, seed=42)).mines
    assert new_board(BoardSpec(8, 8, 10, seed=42)).mines == base
    assert any(
        new_board(BoardSpec(8, 8, 10, seed=s)).mines != base
        for s in range(100)
    )


def test_revealed_values_count_adjacent_mines():
    rng = random.Random(5)
    table = neighbor_table(6, 6)
    for _ in range(25):
        spec = BoardSpec(6, 6, rng.randint(1, 10), seed=rng.getrandbits(32))
        state = new_board(spec)
        safe = [i for i in range(spec.cells) if not state.mines[i]]
        reveal(state, spec.cell(rng.choice(safe)))
        for i in range(spec.cells):
            if state.revealed[i] and not state.mines[i]:
                assert state.values[i] == sum(state.mines[j] for j in table[i])


def test_cascade_is_closed_over_zero_cells():
    # every revealed zero cell must have all neighbors revealed already
    rng = random.Random(11)
    for _ in range(25):
        spec = BoardSpec(7, 7, 5, seed=rng.getrandbits(32))
        state = new_board(spec)
        safe = [i for i in range(spec.cells) if not state.mines[i]]
        reveal(state, spec.cell(rng.choice(safe)))
        table = neighbor_table(7, 7)
        for i in range(spec.cells):
            if state.revealed[i] and state.values[i] == 0:
                assert all(state.revealed[j] for j in table[i])


def test_status_never_leaves_terminal_states():
    state = new_board(BoardSpec(4, 4, 3, seed=2))
    while state.status is GameStatus.IN_PROGRESS:
        reveal(state, state.spec.cell(state.revealed.index(False)))
    final = state.status
    with pytest.raises(InvalidMoveError):
        reveal(state, state.spec.cell(state.revealed.index(False)))
    assert state.status is final


def test_difficulty_presets():
    assert difficulty_spec("simple").cells == 64
    assert difficulty_spec("intermediate").mine_count == 40
    hard = difficulty_spec("hard")
    assert (hard.width, hard.height, hard.mine_count) == (30, 16, 99)
    with pytest.raises(BoardConfigError):
        difficulty_spec("nightmare")
