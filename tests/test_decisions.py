"""Pinned digests of every decision on fixed seeds.

A change meant as a pure speed-up must leave each hash as it is. `exact`
mode is `full` without the sampler: every guess is either fused from
exact counts by `combine` or, when a group is too large to count, taken
from the density estimate. So its hash covers each move's (kind, cell,
depth, prob). `full` mode leaves the probability out, because a sampled
guess's probability is an estimate that rests on the sampler's random
draws, and hashes the moves themselves.
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
    ("simple", "exact", range(7000, 8000), "6ec0032dee74689b"),
    ("intermediate", "exact", range(7000, 7300), "2fc640e8c64649cc"),
    ("hard", "exact", range(7000, 7100), "ad9d12b1ea3c01c3"),
    ("simple", "full", range(7000, 7200), "6c2c6c008b78d32f"),
])
def test_decisions_match_pinned_digest(preset, mode, seeds, pinned):
    assert decision_digest(preset, mode, seeds) == pinned
