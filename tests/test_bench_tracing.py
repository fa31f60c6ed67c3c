"""The benchmark's tracer and runner still fit the package.

`bench/spans.py` wraps ten names in `minesolve.policy` and its counters
read `steps`, `derived`, a group plan's `vars`, `nodes_visited`,
`samples_used`, `kind` and `pipeline_depth`. A rename in `src/` would otherwise show only
as `trace.uncalled` in a traced benchmark run. The module is loaded from
its file and only read, never edited.

`bench/run.py` reads `decision.kind`, `decision.cell` and `outcome.mine`;
a one-second untraced run of each workload plays through them and writes
no file.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from minesolve import exact, policy
from minesolve.engine import BoardSpec, GameStatus
from minesolve.policy import SolverConfig

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_reaches_every_wrapped_name(monkeypatch):
    spans = load_spans()
    # a tiny exact limit sends groups to the sampler, so every layer runs
    monkeypatch.setattr(exact, "EXACT_VAR_LIMIT", 3)
    config = SolverConfig(budget_ms=100, mode="full")
    tracer = spans.Tracer(policy)
    with tracer.installed():
        for seed in range(20):
            # the names are looked up per call, as the benchmark does, so
            # the tracer's wrappers apply
            state = policy.new_board(BoardSpec(8, 8, 10, seed=seed))
            while state.status is GameStatus.IN_PROGRESS:
                decision = policy.next_move(state, config.budget_ms, config)
                policy.reveal(state, decision.cell)
            if not tracer.uncalled():
                break
    assert tracer.uncalled() == []
    # oversized groups are refused by enumerate_group and then sampled
    assert set(tracer.errors) == {("enumerate_group", "GroupTooLargeError")}
    assert tracer.counts["grouping.partition.groups"] > 0
    assert tracer.counts["sampling.sample.draws"] > 0


@pytest.mark.parametrize("workload", ["simple-full", "hard-exact"])
def test_bench_run_plays_each_workload(workload):
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True, done.stdout[-2000:]
