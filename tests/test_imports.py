"""Play whose guesses are all counted exactly must not load numpy; the
sampler and the harness still do."""

import os
import subprocess
import sys
from pathlib import Path

import minesolve

SCRIPT = """
import sys
import minesolve
from minesolve import SolverConfig, difficulty_spec, play_game

record = play_game(difficulty_spec("hard"), config=SolverConfig(mode="exact"), seed=3)
assert any(m.pipeline_depth == "exact" for m in record.moves), "no exact guess"
assert "numpy" not in sys.modules, "exact-mode play imported numpy"
assert callable(minesolve.run_batch)
assert "numpy" in sys.modules
print("ok")
"""


FULL_SCRIPT = """
import sys
from minesolve import (Cell, Constraint, Group, SolverConfig, difficulty_spec,
                       play_game, sample_group)

record = play_game(difficulty_spec("simple"), config=SolverConfig(mode="full"), seed=3)
depths = [m.pipeline_depth for m in record.moves if m.kind == "guess"]
assert depths and set(depths) == {"exact"}, depths
assert "numpy" not in sys.modules, "exactly counted full-mode play imported numpy"
pair = (Cell(0, 0), Cell(0, 1))
sample_group(Group(constraints=(Constraint(frozenset(pair), 1),), vars=pair),
             max_samples=64, rng=0)
assert "numpy" in sys.modules
print("ok")
"""


def run_fresh(script: str) -> None:
    src = str(Path(minesolve.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


def test_exact_mode_game_leaves_numpy_unloaded():
    run_fresh(SCRIPT)


def test_exactly_counted_full_mode_game_leaves_numpy_unloaded():
    run_fresh(FULL_SCRIPT)


def test_lazy_names_are_exported():
    for name in ("run_batch", "run_ablation", "BatchReport", "AblationReport",
                 "wilson_interval", "exact_board_probabilities",
                 "exact_view_probabilities"):
        assert name in minesolve.__all__
        assert name in dir(minesolve)
        assert getattr(minesolve, name) is not None
