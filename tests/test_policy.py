import random
from collections import OrderedDict
from time import monotonic

import pytest

from minesolve import exact, policy
from minesolve.combine import combine
from minesolve.constraints import (
    deductions,
    extract_constraints,
    reduce_system,
)
from minesolve.engine import (
    BoardSpec,
    Cell,
    GameState,
    GameStatus,
    InvalidMoveError,
    neighbor_table,
    new_board,
    parse_board,
    render_board,
    reveal,
)
from minesolve.exact import enumerate_group, partition
from minesolve.oracle import exact_board_probabilities
from minesolve.policy import (
    MoveDecision,
    MoveKind,
    SolverConfig,
    argmin_cell,
    first_move,
    next_move,
    play_game,
)

from helpers import (
    A,
    B,
    ONE_TWO_ONE_TEXT,
    cells,
    con,
    group_of,
    pipeline_probability_map,
    random_position,
)


def test_one_two_one_is_solved_by_logic():
    state = parse_board(ONE_TWO_ONE_TEXT)
    decision = next_move(state)
    assert decision.kind is MoveKind.REVEAL_SAFE
    assert decision.cell == B
    assert decision.prob == 0.0
    assert decision.pipeline_depth == "logic"
    for name in ("kind", "cell", "prob", "pipeline_depth"):
        with pytest.raises(AttributeError):
            setattr(decision, name, None)
    assert decision == (MoveKind.REVEAL_SAFE, B, 0.0, "logic")


def test_first_move_center_formula():
    assert first_move(BoardSpec(8, 8, 10)) == Cell(4, 4)
    assert first_move(BoardSpec(1, 1, 0)) == Cell(0, 0)
    assert first_move(BoardSpec(30, 16, 99)) == Cell(8, 15)


def test_fresh_board_returns_first_move():
    spec = BoardSpec(8, 8, 10, seed=4)
    decision = next_move(new_board(spec))
    assert decision.kind is MoveKind.FIRST_MOVE
    assert decision.cell == Cell(4, 4)
    assert decision.prob == pytest.approx(10 / 64)


def test_guess_takes_cheaper_sea_over_frontier():
    # frontier pair at 0.5 vs sea at E[M - k]/|U| = (3-1)/5 = 0.4
    tally = enumerate_group(group_of(con([A, B], 1)))
    sea = cells(*((4, i) for i in range(5)))
    pmap, sea_prob = combine([tally], 3, len(sea))
    assert pmap[A] == pytest.approx(0.5)
    assert sea_prob == pytest.approx(0.4)
    cell, prob = argmin_cell({**pmap, **dict.fromkeys(sea, sea_prob)})
    assert cell == Cell(4, 0)  # lowest row-major among the sea cells
    assert prob == pytest.approx(0.4)


def test_argmin_scale_invariant_row_major_ties():
    probs = {Cell(1, 1): 0.3, Cell(0, 2): 0.1, Cell(0, 1): 0.1}
    cell, _ = argmin_cell(probs)
    assert cell == Cell(0, 1)
    scaled = {c: 7.5 * p for c, p in probs.items()}
    assert argmin_cell(scaled)[0] == cell


# 8x8/10 board seed 304 at its third guess: frontier cell (2, 0) and every
# sea cell have posterior exactly 5/38, the lowest on the board
TIED_TEXT = """8 8 10
...*....
.....**.
.*......
...**...
*.......
..*.....
..*...*.
........

RRR#####
RRR#####
##R#####
#R######
####R###
########
########
########
"""


def test_exact_ties_go_to_lowest_row_major_cell():
    state = parse_board(TIED_TEXT)
    result = pipeline_probability_map(state)
    unassigned = {c: p for c, p in result.probs.items() if c not in result.derived}
    best = min(unassigned.values())
    assert best == 5 / 38
    assert unassigned[Cell(2, 0)] == unassigned[Cell(0, 4)] == best
    decision = next_move(state, config=SolverConfig(mode="full"))
    assert decision.kind is MoveKind.GUESS
    assert decision.pipeline_depth == "exact"
    assert decision.cell == Cell(0, 4)
    assert decision.cell == min(c for c, p in unassigned.items() if p == best)


def test_play_zero_mine_board_wins_in_one_move():
    record = play_game(BoardSpec(2, 2, 0), seed=0)
    assert record.won
    assert len(record.moves) == 1
    assert record.moves[0].kind == "first_move"


def test_coin_flip_board_wins_half_the_time():
    # 1x2 with one mine: the opening pick decides the game
    wins = sum(
        play_game(BoardSpec(2, 1, 1), seed=s).won for s in range(10_000)
    )
    assert wins / 10_000 == pytest.approx(0.5, abs=0.02)


@pytest.mark.parametrize("mode", ["full", "exact"])
def test_guesses_track_oracle_argmin(mode):
    # whenever the solver has to guess, its pick is the row-major first
    # minimum of the brute-force oracle's exact posterior
    rng = random.Random(131)
    checked = 0
    while checked < 25:
        state = random_position(rng)
        if state is None:
            continue
        decision = next_move(state, config=SolverConfig(mode=mode))
        if decision.kind is not MoveKind.GUESS or decision.pipeline_depth != "exact":
            continue
        checked += 1
        truth = exact_board_probabilities(state)
        best = min(truth.values())
        assert decision.prob == float(truth[decision.cell])
        assert truth[decision.cell] == best
        assert decision.cell == min(c for c, p in truth.items() if p == best)


def test_reveal_safe_never_hits_mine_on_small_boards():
    for seed in range(60):
        record = play_game(BoardSpec(6, 6, 6), seed=seed)
        for move in record.moves:
            if move.kind == "reveal_safe":
                assert move.result != "boom"


def test_logic_mode_never_builds_probability_maps():
    config = SolverConfig(mode="logic")
    seen = set()
    for seed in range(30):
        record = play_game(BoardSpec(6, 6, 8), seed=seed, config=config)
        seen.update(m.pipeline_depth for m in record.moves)
    assert "exact" not in seen and "sampled" not in seen
    assert "fallback" in seen


def test_exact_mode_skips_sampling(monkeypatch):
    monkeypatch.setattr(exact, "EXACT_VAR_LIMIT", 6)
    config = SolverConfig(mode="exact")
    seen = set()
    for seed in range(20):
        record = play_game(BoardSpec(8, 8, 10), seed=seed, config=config)
        seen.update(m.pipeline_depth for m in record.moves)
    assert "sampled" not in seen
    assert "exact" in seen


@pytest.mark.slow
def test_small_exact_limit_forces_sampling(monkeypatch):
    monkeypatch.setattr(exact, "EXACT_VAR_LIMIT", 3)
    config = SolverConfig(mode="full")
    seen = set()
    for seed in range(20):
        record = play_game(BoardSpec(8, 8, 10), seed=seed, config=config)
        seen.update(m.pipeline_depth for m in record.moves)
    assert "sampled" in seen


def test_moves_respect_budget_with_slack():
    for seed in range(8):
        record = play_game(BoardSpec(16, 16, 40), SolverConfig(budget_ms=400), seed=seed)
        assert max(record.move_times_ms()) <= 400 + 50


@pytest.mark.parametrize("budget_ms", [20, 100])
def test_small_budgets_respect_deadline_and_still_count(budget_ms):
    depths = []
    for seed in range(20):
        record = play_game(BoardSpec(16, 16, 40), SolverConfig(budget_ms=budget_ms),
                           seed=seed)
        assert max(record.move_times_ms()) <= budget_ms + 50
        depths += [m.pipeline_depth for m in record.moves if m.kind == "guess"]
    if budget_ms == 100:
        assert depths.count("fallback") < len(depths) / 2, depths


def test_next_move_rejects_finished_game():
    state = new_board(BoardSpec(2, 2, 0))
    reveal(state, Cell(0, 0))
    assert state.status is GameStatus.WON
    with pytest.raises(InvalidMoveError):
        next_move(state)


@pytest.mark.parametrize("budget_ms", [0.0, -5.0, float("nan")])
def test_config_rejects_non_positive_budget(budget_ms):
    with pytest.raises(ValueError):
        SolverConfig(budget_ms=budget_ms)


@pytest.mark.parametrize("budget_ms", [0.0, -5.0, float("nan")])
def test_next_move_rejects_non_positive_budget(budget_ms):
    state = parse_board(ONE_TWO_ONE_TEXT)
    with pytest.raises(ValueError):
        next_move(state, budget_ms)
    assert next_move(state, 50.0).cell == B  # a positive override is used


def _queue_b_then_stop_solving(monkeypatch):
    """ONE_TWO_ONE with B queued by a first call; a later call that solves
    instead of serving the queue fails."""
    state = parse_board(ONE_TWO_ONE_TEXT)
    assert next_move(state).cell == B

    def no_solve(_):
        raise AssertionError("a queued move solved again")

    monkeypatch.setattr(policy, "extract_constraints", no_solve)
    return state


@pytest.mark.parametrize("budget_ms", [0.0, -5.0, float("nan")])
def test_queued_move_still_rejects_non_positive_budget(monkeypatch, budget_ms):
    state = _queue_b_then_stop_solving(monkeypatch)
    with pytest.raises(ValueError, match="budget_ms must be positive"):
        next_move(state, budget_ms)
    assert next_move(state, 50.0) == (MoveKind.REVEAL_SAFE, B, 0.0, "logic")


def test_queued_move_after_a_loss_raises(monkeypatch):
    state = _queue_b_then_stop_solving(monkeypatch)
    assert reveal(state, A).mine
    with pytest.raises(InvalidMoveError, match="game is over"):
        next_move(state)


def test_loss_on_first_move_flag():
    spec = BoardSpec(8, 8, 10)
    seen_first_loss = False
    for seed in range(80):
        record = play_game(spec, seed=seed)
        if record.loss_on_first_move:
            seen_first_loss = True
            assert not record.won
            assert len(record.moves) == 1
            assert record.moves[0].result == "boom"
    assert seen_first_loss  # ~15% of openings explode


@pytest.mark.slow
def test_protected_first_click_never_loses_move_one():
    spec = BoardSpec(8, 8, 10, first_click_safe=True)
    for seed in range(60):
        record = play_game(spec, seed=seed)
        assert not record.loss_on_first_move


def test_game_record_timings_recorded():
    record = play_game(BoardSpec(8, 8, 10), seed=1)
    assert len(record.move_times_ms()) == len(record.moves)
    assert all(t >= 0 for t in record.move_times_ms())
    assert record.seed == 1


@pytest.mark.slow
def test_mode_win_rates_monotone_over_paired_seeds(inter_batch,
                                                   exact_inter_batch,
                                                   logic_inter_batch):
    """Pipeline stages must not hurt: full >= exact >= logic over 5,000
    paired intermediate games. The gaps from the full pipeline are large
    and must clear one-sided 95% confidence; the exact-vs-logic gap is a
    fraction of a point in practice, so for that pair we require the
    ordering and reject any inversion at the same confidence level."""
    from minesolve.harness import paired_delta

    wins = {
        "full": [g.won for g in inter_batch.per_game],
        "exact": [g.won for g in exact_inter_batch.per_game],
        "logic": [g.won for g in logic_inter_batch.per_game],
    }
    assert len(wins["full"]) == len(wins["exact"]) == len(wins["logic"]) == 5000
    rate = {m: sum(w) / len(w) for m, w in wins.items()}
    assert rate["full"] >= rate["exact"] >= rate["logic"]

    z95 = 1.6448536269514722
    full_exact = paired_delta("full", wins["full"], "exact", wins["exact"])
    full_logic = paired_delta("full", wins["full"], "logic", wins["logic"])
    exact_logic = paired_delta("exact", wins["exact"], "logic", wins["logic"])
    assert full_exact.z_score > z95
    assert full_logic.z_score > z95
    assert exact_logic.z_score > -z95  # no significant inversion


def test_exact_mode_oversized_group_is_labelled_fallback(monkeypatch):
    """A guess that takes any group's probabilities from the density
    heuristic is a fallback, not an exact count."""
    monkeypatch.setattr(exact, "EXACT_VAR_LIMIT", 3)
    config = SolverConfig(mode="exact")
    labels = set()
    for seed in range(40):
        state = new_board(BoardSpec(8, 8, 10, seed=seed))
        while state.status is GameStatus.IN_PROGRESS:
            decision = next_move(state, config=config)
            if decision.kind is MoveKind.GUESS:
                groups = partition(reduce_system(extract_constraints(state)))
                oversized = any(len(g.vars) > 3 for g in groups)
                assert decision.pipeline_depth == ("fallback" if oversized else "exact")
                labels.add(decision.pipeline_depth)
            reveal(state, decision.cell)
    assert labels == {"exact", "fallback"}


def guess_positions(rng, count):
    """`count` 5x5 positions where logic is stuck, each as the arguments
    next_move hands `_probability_map`: (reduced system, sea size,
    remaining mines, revealed mask)."""
    while count:
        state = random_position(rng)
        if state is None:
            continue
        reduced = reduce_system(extract_constraints(state))
        safe, found_mines = deductions(reduced)
        if safe:
            continue
        placed = reduced.variables()
        placed.update(reduced.derived)
        count -= 1
        yield (reduced, state.spec.cells - state.revealed_count() - len(placed),
               state.spec.mine_count - len(found_mines), state.revealed)


def fused_map(position, mode="exact", deadline=None):
    reduced, sea_size, remaining, revealed = position
    return policy._probability_map(
        reduced, sea_size, remaining, mode,
        deadline=monotonic() + 5.0 if deadline is None else deadline,
        revealed=revealed)


def combine_calls(monkeypatch) -> list:
    """The arguments of every later `combine` call that policy makes."""
    calls = []
    real = policy.combine
    monkeypatch.setattr(policy, "combine",
                        lambda *args: calls.append(args) or real(*args))
    return calls


def test_kept_maps_equal_the_fresh_fusion(monkeypatch):
    combined = combine_calls(monkeypatch)
    asked = 0
    for reduced, sea_size, remaining, revealed in guess_positions(random.Random(71), 300):
        # the same groups under other sea sizes and budgets are other keys
        for sea_more, mines_more in ((0, 0), (1, 0), (1, 1)):
            u, m = sea_size + sea_more, remaining + mines_more
            fresh = combine([enumerate_group(plan) for plan in partition(reduced)], m, u)
            # dict equality compares every group cell's float exactly
            assert fused_map((reduced, u, m, revealed)) == (fresh, "exact")
            asked += 1
    assert 0 < len(combined) < asked


def test_kept_maps_age_the_count_memo_as_counting_would(monkeypatch):
    # a small limit makes the count memo drop structures that kept maps
    # still use
    monkeypatch.setattr(exact, "MEMO_LIMIT", 8)
    combined = combine_calls(monkeypatch)
    positions = list(guess_positions(random.Random(73), 300))
    for position in positions:
        fused_map(position)
    assert len(combined) < len(positions)
    served = list(exact._memo)
    monkeypatch.setattr(exact, "_memo", OrderedDict())
    for reduced, *_ in positions:
        for plan in partition(reduced):
            enumerate_group(plan)
    assert list(exact._memo) == served


def kept_position():
    """A position with a group of more than 3 cells whose exact-mode map
    is kept."""
    for position in guess_positions(random.Random(72), 1000):
        if any(len(plan.vars) > 3 for plan in partition(position[0])):
            assert fused_map(position)[1] == "exact"
            assert len(policy._fused) == 1
            return position
    raise AssertionError("no position with a group of more than 3 cells")


def test_kept_map_is_not_read_past_the_var_limit(monkeypatch):
    position = kept_position()
    monkeypatch.setattr(exact, "EXACT_VAR_LIMIT", 3)
    assert fused_map(position, "exact") == (None, "fallback")
    assert fused_map(position, "full")[1] == "sampled"


@pytest.mark.parametrize("mode", ["full", "exact"])
def test_kept_map_is_not_read_past_the_deadline(mode):
    position = kept_position()
    assert fused_map(position, mode, deadline=monotonic() - 1.0) == (None, "fallback")


def test_fused_memo_holds_at_most_its_limit(monkeypatch):
    monkeypatch.setattr(exact, "MEMO_LIMIT", 3)
    for position in guess_positions(random.Random(59), 40):
        fused_map(position)
        assert len(policy._fused) <= 3
    assert len(policy._fused) == 3


class ExtractCounter:
    """Counts full solves: every one starts with extract_constraints."""

    def __init__(self, monkeypatch):
        self.calls = 0
        real = policy.extract_constraints

        def counted(state, *args):
            self.calls += 1
            return real(state, *args)

        monkeypatch.setattr(policy, "extract_constraints", counted)


def safe_set(state):
    return deductions(reduce_system(extract_constraints(state)))[0]


def state_with_queue(counter):
    """An intermediate game just after a full solve proved at least three
    cells safe and the smallest was revealed; the counter is then reset."""
    for seed in range(200):
        state = new_board(BoardSpec(16, 16, 40, seed=seed))
        while state.status is GameStatus.IN_PROGRESS:
            before = counter.calls
            decision = next_move(state, config=SolverConfig(mode="exact"))
            solved = counter.calls > before
            safe = safe_set(state) if decision.kind is MoveKind.REVEAL_SAFE else set()
            reveal(state, decision.cell)
            if (solved and len(safe) >= 3 and state.status is GameStatus.IN_PROGRESS
                    and sum(not state.revealed[state.spec.index(c)] for c in safe) >= 2):
                counter.calls = 0
                return state, safe
    raise AssertionError("no position with a queue of safe cells")


def test_queued_reveals_are_always_safe():
    config = SolverConfig(mode="exact")
    safe_moves = 0
    for seed in range(200):
        record = play_game(BoardSpec(16, 16, 40), config=config, seed=seed)
        for move in record.moves:
            if move.kind == "reveal_safe":
                safe_moves += 1
                assert move.result != "boom", (seed, move)
    assert safe_moves > 5000


def test_queue_serves_safe_cells_without_solving(monkeypatch):
    counter = ExtractCounter(monkeypatch)
    state, safe = state_with_queue(counter)
    while True:
        covered = sorted(c for c in safe if not state.revealed[state.spec.index(c)])
        if not covered or state.status is not GameStatus.IN_PROGRESS:
            break
        decision = next_move(state)
        assert counter.calls == 0
        assert decision == MoveDecision(MoveKind.REVEAL_SAFE, covered[0], 0.0, "logic")
        assert next_move(state) is decision  # no reveal: the same ready object
        reveal(state, decision.cell)


def test_queued_cell_opened_by_cascade_is_skipped(monkeypatch):
    counter = ExtractCounter(monkeypatch)
    for seed in range(300):
        state = new_board(BoardSpec(16, 16, 40, seed=seed))
        while state.status is GameStatus.IN_PROGRESS:
            before = counter.calls
            decision = next_move(state, config=SolverConfig(mode="exact"))
            solved = counter.calls > before
            safe = safe_set(state) if decision.kind is MoveKind.REVEAL_SAFE else set()
            outcome = reveal(state, decision.cell)
            cascaded = {c for c in safe if c in outcome.opened and c != decision.cell}
            left = sorted(c for c in safe if not state.revealed[state.spec.index(c)])
            if solved and cascaded and left and state.status is GameStatus.IN_PROGRESS:
                before = counter.calls
                follow = next_move(state)
                assert counter.calls == before
                assert follow.cell == left[0]
                assert not state.revealed[state.spec.index(follow.cell)]
                return
    raise AssertionError("no cascade over a queued cell in 300 games")


def test_queue_belongs_to_one_state_object(monkeypatch):
    counter = ExtractCounter(monkeypatch)
    state, safe = state_with_queue(counter)
    queued = sorted(c for c in safe if not state.revealed[state.spec.index(c)])
    others = [
        state.copy(),
        parse_board(render_board(state)),
        new_board(BoardSpec(16, 16, 40, seed=10_000)),
    ]
    reveal(others[-1], first_move(others[-1].spec))
    for other in others:
        if other.status is not GameStatus.IN_PROGRESS:
            continue
        before = counter.calls
        decision = next_move(other)
        assert counter.calls == before + 1  # solved from its own view
        own_safe = safe_set(other)
        if own_safe:
            assert decision.cell == min(own_safe)
        else:
            assert decision.kind is MoveKind.GUESS
    # the original still serves its own queue
    before = counter.calls
    assert next_move(state).cell == queued[0]
    assert counter.calls == before


def test_queue_dropped_when_move_log_diverges(monkeypatch):
    # an equal but rebuilt log is not the log the cells were deduced from
    counter = ExtractCounter(monkeypatch)
    state, _ = state_with_queue(counter)
    next_move(state)
    assert counter.calls == 0
    state.moves[:] = [(cell, value) for cell, value in state.moves]
    next_move(state)
    assert counter.calls == 1


def twin_positions(seeds, mode):
    """(position, twin) pairs along games played in `mode` on 8x8/10: the
    twin moves one mine between two covered cells that no revealed cell
    touches, so both layouts show the same view. Both are fresh states,
    with no move log or safe queue."""
    spec = BoardSpec(8, 8, 10)
    table = neighbor_table(spec.width, spec.height)
    config = SolverConfig(mode=mode)
    for seed in seeds:
        state = new_board(BoardSpec(8, 8, 10, seed=seed))
        while state.status is GameStatus.IN_PROGRESS:
            revealed = state.revealed
            hidden = [i for i in range(spec.cells) if not revealed[i]
                      and not any(revealed[j] for j in table[i])]
            src = next((i for i in hidden if state.mines[i]), None)
            dst = next((i for i in hidden if not state.mines[i]), None)
            if src is not None and dst is not None:
                moved = list(state.mines)
                moved[src], moved[dst] = False, True
                yield (GameState(spec, list(state.mines), list(revealed)),
                       GameState(spec, moved, list(revealed)))
            reveal(state, next_move(state, config=config).cell)


def decide(state, mode):
    d = next_move(state, config=SolverConfig(mode=mode))
    return d.kind, d.cell, d.prob, d.pipeline_depth


@pytest.mark.parametrize("mode", policy.MODES)
def test_decision_depends_only_on_the_view(mode):
    guesses = 0
    for position, twin in twin_positions(range(30), mode):
        one = decide(position, mode)
        assert decide(twin, mode) == one
        guesses += one[0] is MoveKind.GUESS
    assert guesses >= 20


def test_sampled_guesses_depend_only_on_the_view(monkeypatch):
    # the sampler's seed and draws must come from the view too; the first
    # few sampled guesses are enough to tell, since each is an estimate
    monkeypatch.setattr(exact, "EXACT_VAR_LIMIT", 3)
    sampled = 0
    for position, twin in twin_positions(range(30), "exact"):
        one = decide(position, "full")
        if one[3] == "sampled":
            assert decide(twin, "full") == one
            sampled += 1
            if sampled == 4:
                return
    raise AssertionError(f"only {sampled} sampled guesses had a twin layout")
