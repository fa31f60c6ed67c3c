"""The benchmark's tracer still fits the package.

`bench/spans.py` wraps ten names in `minesolve.policy` and its counters
read `steps`, `derived`, `Group.vars`, `nodes_visited`, `samples_used`,
`kind` and `pipeline_depth`. A rename in `src/` would otherwise show only
as `trace.uncalled` in a traced benchmark run. The module is loaded from
its file and only read, never edited.
"""

import importlib.util
from pathlib import Path

from minesolve import exact, policy
from minesolve.engine import BoardSpec, GameStatus
from minesolve.policy import SolverConfig

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


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
