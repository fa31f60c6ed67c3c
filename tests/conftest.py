"""Session-wide fixtures for the expensive game batches.

The acceptance criteria and the slow policy invariants share these so the
games are played once per session. Seeds are fixed, so win/loss outcomes
are identical on every run.
"""

import random
import time

import pytest

from minesolve.harness import run_batch
from minesolve.oracle import exact_board_probabilities
from minesolve.policy import SolverConfig

from helpers import pipeline_probability_map, random_position


@pytest.fixture(scope="session")
def oracle_positions():
    """500 mid-game 5x5 positions with 3-6 mines, pipeline and oracle maps
    computed side by side; generation and both computations are timed."""
    rng = random.Random(20240917)
    rows = []
    t0 = time.monotonic()
    while len(rows) < 500:
        state = random_position(rng, width=5, height=5, mines=(3, 6))
        if state is None:
            continue
        rows.append((
            pipeline_probability_map(state),
            exact_board_probabilities(state),
        ))
    return rows, time.monotonic() - t0


@pytest.fixture(scope="session")
def simple_batch():
    t0 = time.monotonic()
    report = run_batch("simple", games=10_000, base_seed=1000,
                       config=SolverConfig(mode="full"), keep_records=True)
    return report, time.monotonic() - t0


@pytest.fixture(scope="session")
def inter_batch():
    return run_batch("intermediate", games=5_000, base_seed=2000,
                     config=SolverConfig(mode="full"), keep_records=True)


@pytest.fixture(scope="session")
def exact_inter_batch():
    return run_batch("intermediate", games=5_000, base_seed=2000,
                     config=SolverConfig(mode="exact"))


@pytest.fixture(scope="session")
def logic_inter_batch():
    return run_batch("intermediate", games=5_000, base_seed=2000,
                     config=SolverConfig(mode="logic"))


@pytest.fixture(scope="session")
def hard_batch():
    return run_batch("hard", games=100, base_seed=3000,
                     config=SolverConfig(mode="full"), keep_records=True)
