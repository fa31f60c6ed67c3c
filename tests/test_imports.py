"""Only the sampler imports numpy. Play whose guesses are all counted
exactly, the batch harness and the brute-force oracle never load it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import minesolve

SCRIPT = """
import sys
from minesolve import SolverConfig, difficulty_spec, play_game

record = play_game(difficulty_spec("hard"), config=SolverConfig(mode="exact"), seed=3)
assert any(m.pipeline_depth == "exact" for m in record.moves), "no exact guess"
assert "numpy" not in sys.modules, "exact-mode play imported numpy"
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


HARNESS_SCRIPT = """
import sys
from minesolve import (SolverConfig, exact_board_probabilities, parse_board,
                       run_batch, wilson_interval)
from minesolve.harness import paired_delta

report = run_batch("simple", games=4, config=SolverConfig(mode="exact"), workers=1)
wins = [g.won for g in report.per_game]
paired_delta("exact", wins, "exact", wins)
wilson_interval(report.wins, report.games)
exact_board_probabilities(parse_board("3 2 2\\n*.*\\n...\\n\\n###\\nRRR\\n"))
assert "numpy" not in sys.modules, "harness or oracle imported numpy"
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


def test_harness_and_oracle_leave_numpy_unloaded():
    run_fresh(HARNESS_SCRIPT)


def test_only_the_sampler_imports_numpy():
    # every import statement counts, those under TYPE_CHECKING included
    importers = set()
    for path in Path(minesolve.__file__).resolve().parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.add(path.name)
    assert importers == {"sampling.py"}


def test_lazy_names_are_exported():
    for name in ("run_batch", "run_ablation", "BatchReport", "AblationReport",
                 "wilson_interval", "exact_board_probabilities",
                 "exact_view_probabilities"):
        assert name in minesolve.__all__
        assert name in dir(minesolve)
        assert getattr(minesolve, name) is not None
