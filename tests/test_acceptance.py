"""Acceptance gate: one test per release criterion, each printing a
pass/fail line (run with `pytest -s tests/test_acceptance.py` to see them).

The heavy batches are session fixtures (conftest) shared across criteria;
every game in them is a complete, independently seeded playout.
"""

import random

import pytest

from minesolve.engine import GameStatus, parse_board, reveal
from minesolve.constraints import deductions, extract_constraints, reduce_system
from minesolve.exact import enumerate_group
from minesolve.harness import paired_delta
from minesolve.policy import MoveKind, next_move
from minesolve.sampling import sample_group

from helpers import B, ONE_TWO_ONE_TEXT, marginals, random_connected_group


def check(criterion: int, label: str, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion} {label}: {detail}"


@pytest.mark.slow
def test_criterion_1_oracle_equivalence(oracle_positions):
    rows, elapsed = oracle_positions
    worst = 0.0
    for result, oracle_map in rows:
        assert set(result.probs) == set(oracle_map)
        for cell, truth in oracle_map.items():
            worst = max(worst, abs(result.probs[cell] - float(truth)))
    check(1, "oracle equivalence",
          worst <= 1e-9 and elapsed < 60.0,
          f"500 positions, worst cell error {worst:.3e}, {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_2_mass_conservation(oracle_positions):
    rows, _ = oracle_positions
    worst = 0.0
    for result, _oracle in rows:
        worst = max(worst, abs(result.unassigned_mass - result.remaining_mines))
    check(2, "mass conservation", worst <= 1e-9,
          f"max |sum(P) - remaining| = {worst:.3e}")


@pytest.mark.slow
def test_criterion_3_forced_moves_never_explode(simple_batch, inter_batch,
                                                hard_batch):
    records = (
        simple_batch[0].records[:1500]
        + inter_batch.records[:400]
        + hard_batch.records[:100]
    )
    assert len(records) == 2000
    reveals = 0
    booms = 0
    for record in records:
        for move in record.moves:
            if move.kind == "reveal_safe":
                reveals += 1
                booms += move.result == "boom"
    check(3, "forced-move soundness", booms == 0,
          f"{reveals} reveal_safe moves across 2000 games, {booms} exploded")


@pytest.mark.slow
def test_criterion_4_first_move_loss_rate(simple_batch):
    report, elapsed = simple_batch
    rate = report.first_move_losses / report.games
    check(4, "first-move loss rate",
          0.14 <= rate <= 0.175 and elapsed < 600.0,
          f"{report.first_move_losses}/{report.games} = {rate:.4f} "
          f"(true 10/64 = 0.15625), batch took {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_5_move_deadline(hard_batch):
    times = hard_batch.move_time_ms
    check(5, "5s move deadline",
          times["max"] <= 5050.0 and times["p99"] <= 5000.0,
          f"100 hard games: max {times['max']:.0f}ms, p99 {times['p99']:.0f}ms")


@pytest.mark.slow
def test_criterion_6_sampler_fidelity():
    rng = random.Random(424243)
    worst = 0.0
    for trial in range(20):
        group = random_connected_group(rng, rng.randint(8, 12), rng.randint(3, 6))
        exact = marginals(enumerate_group(group))
        sampled = marginals(sample_group(group, max_samples=1 << 18,
                                         rng=7000 + trial))
        for cell in exact:
            worst = max(worst, abs(sampled[cell] - exact[cell]))
    check(6, "sampler fidelity", worst <= 0.02,
          f"20 groups at 2^18 samples, worst marginal gap {worst:.4f}")


@pytest.mark.slow
def test_criterion_7_full_beats_logic(inter_batch, logic_inter_batch):
    full_wins = [g.won for g in inter_batch.per_game[:2000]]
    logic_wins = [g.won for g in logic_inter_batch.per_game[:2000]]
    assert [g.seed for g in inter_batch.per_game[:2000]] == \
           [g.seed for g in logic_inter_batch.per_game[:2000]]
    delta = paired_delta("full", full_wins, "logic", logic_wins)
    check(7, "ablation ordering",
          delta.z_score > 1.6448536269514722,
          f"win_rate full {sum(full_wins)/2000:.3f} vs logic "
          f"{sum(logic_wins)/2000:.3f}, paired z = {delta.z_score:.1f}")


def test_criterion_8_one_two_one_needs_no_guess():
    state = parse_board(ONE_TWO_ONE_TEXT)
    reduced = reduce_system(extract_constraints(state))
    safe, mines = deductions(reduced)
    decision = next_move(state)
    reveal(state, decision.cell)
    check(8, "1-2-1 fixpoint",
          decision.kind is MoveKind.REVEAL_SAFE
          and decision.pipeline_depth == "logic"
          and decision.cell == B
          and safe == {B} and len(mines) == 2
          and state.status is GameStatus.WON,
          f"deduced safe={sorted(safe)}, mines={sorted(mines)}, "
          f"depth={decision.pipeline_depth}")


@pytest.mark.slow
def test_criterion_9_win_rate_floors(simple_batch, inter_batch):
    simple_rate = simple_batch[0].win_rate
    inter_rate = inter_batch.win_rate
    check(9, "win-rate floors",
          simple_rate >= 0.60 and inter_rate >= 0.35,
          f"simple {simple_rate:.4f} (floor 0.60) over 10k games, "
          f"intermediate {inter_rate:.4f} (floor 0.35) over 5k games")
