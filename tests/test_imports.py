"""Exact- and logic-mode play must not load numpy; the harness still does."""

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


def test_exact_mode_game_leaves_numpy_unloaded():
    src = str(Path(minesolve.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


def test_lazy_names_are_exported():
    for name in ("run_batch", "run_ablation", "BatchReport", "AblationReport",
                 "wilson_interval", "exact_board_probabilities",
                 "exact_view_probabilities"):
        assert name in minesolve.__all__
        assert name in dir(minesolve)
        assert getattr(minesolve, name) is not None
