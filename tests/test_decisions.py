"""Pinned digests of every decision on fixed seeds.

A change meant as a pure speed-up must leave each hash as it is. `exact`
mode hashes each move's (kind, cell, depth, prob); `full` mode leaves the
probability out, because a sampled guess's probability is a float estimate
from numpy's generator, and hashes the moves themselves.
"""

from hashlib import blake2b

import pytest

from minesolve.engine import difficulty_spec
from minesolve.policy import SolverConfig, play_game


def decision_digest(preset: str, mode: str, seeds: range) -> str:
    h = blake2b(digest_size=8)
    config = SolverConfig(mode=mode)
    for seed in seeds:
        record = play_game(difficulty_spec(preset), config, seed=seed)
        for move in record.moves:
            prob = repr(move.prob) if mode == "exact" else ""
            h.update(f"{move.kind}|{tuple(move.cell)}|{move.pipeline_depth}|{prob};".encode())
        h.update(f"game {seed};".encode())
    return h.hexdigest()


@pytest.mark.slow
@pytest.mark.parametrize("preset, mode, seeds, pinned", [
    ("simple", "exact", range(7000, 8000), "60c4779f17958b91"),
    ("intermediate", "exact", range(7000, 7300), "1fd623fe12be2bdd"),
    ("hard", "exact", range(7000, 7100), "5f9bff7e15e6b760"),
    ("simple", "full", range(7000, 7200), "0a947bdaae28bc3b"),
])
def test_decisions_match_pinned_digest(preset, mode, seeds, pinned):
    assert decision_digest(preset, mode, seeds) == pinned
