"""Spans and counters around the calls minesolve.policy makes, taken from outside.

`Tracer.installed` replaces module-level names in `minesolve.policy` with
wrappers for the duration of a `with` block. `next_move` looks those names
up at call time, so every call it makes into another layer passes through
a wrapper; the benchmark's game loop calls `new_board`, `next_move` and
`reveal` through the same module so those are seen too. Nothing inside the
package is edited.

Spans stay in memory as (name, start, end, parent, seed, move) and are
written out once, at the end of the run. A layer's self time is the time
its spans cover minus the part covered by their direct children.
"""

from __future__ import annotations

import gzip
import json
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator, Optional

# wrapped name in minesolve.policy -> the layer (module) it belongs to
WRAPPED = {
    "new_board": "engine",
    "reveal": "engine",
    "extract_constraints": "constraints",
    "reduce_system": "constraints",
    "deductions": "constraints",
    "partition": "grouping",
    "enumerate_group": "exact",
    "sample_group": "sampling",
    "combine": "combine",
    "next_move": "policy",
}
LAYERS = ("engine", "constraints", "grouping", "exact", "sampling", "combine", "policy")
SPAN_FIELDS = ("name", "start_s", "end_s", "parent", "seed", "move")


def _count_extract(c: Counter, system) -> None:
    c["constraints.extract.constraints"] += len(system.constraints)


def _count_reduce(c: Counter, system) -> None:
    c["constraints.reduce.steps"] += system.steps
    c["constraints.reduce.safe_found"] += sum(1 for v in system.derived.values() if v == 0)


def _count_partition(c: Counter, groups) -> None:
    c["grouping.partition.groups"] += len(groups)
    for group in groups:
        c["grouping.partition.group_vars_max"] = max(
            c["grouping.partition.group_vars_max"], len(group.vars))


def _count_enumerate(c: Counter, tally) -> None:
    c["exact.enumerate.nodes_visited"] += tally.nodes_visited
    c["exact.enumerate.tallies"] += 1


def _count_sample(c: Counter, tally) -> None:
    c["sampling.sample.draws"] += tally.samples_used


def _count_move(c: Counter, decision) -> None:
    kind = {"first_move": "first", "reveal_safe": "safe", "guess": "guess"}[decision.kind.value]
    c[f"policy.moves.{kind}"] += 1
    c[f"policy.depth.{decision.pipeline_depth}"] += 1


COUNTERS: dict[str, Callable[[Counter, object], None]] = {
    "extract_constraints": _count_extract,
    "reduce_system": _count_reduce,
    "partition": _count_partition,
    "enumerate_group": _count_enumerate,
    "sample_group": _count_sample,
    "next_move": _count_move,
}


class Tracer:
    """In-memory span recorder for the names WRAPPED in `policy`; `move`
    is the (seed, move index) of the move in progress and tags every span
    opened during it."""

    def __init__(self, policy) -> None:
        self.spans: list[Optional[tuple]] = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()  # (wrapped name, exception type name)
        self.move: tuple[int, int] = (-1, -1)
        self._stack: list[int] = []
        self._policy = policy
        self._originals = {name: getattr(policy, name) for name in WRAPPED
                           if hasattr(policy, name)}
        self._wrappers = {name: self._wrap(name, fn) for name, fn in self._originals.items()}

    def _wrap(self, name: str, fn: Callable) -> Callable:
        count = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.errors[name, type(exc).__name__] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent) + self.move
            if count is not None:
                count(self.counts, result)
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Swap the wrappers into the policy module for the block."""
        for name, wrapper in self._wrappers.items():
            setattr(self._policy, name, wrapper)
        try:
            yield self
        finally:
            for name, fn in self._originals.items():
                setattr(self._policy, name, fn)

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def uncalled(self) -> list[str]:
        """Wrapped names never entered, including names policy lacks."""
        calls = self.calls()
        return sorted(name for name in WRAPPED if calls[name] == 0)

    def inclusive_s(self) -> dict[str, float]:
        out = dict.fromkeys(WRAPPED, 0.0)
        for name, start, end, *_ in self.spans:
            out[name] += end - start
        return out

    def self_s_by_layer(self) -> dict[str, float]:
        """Span time minus the time of direct child spans, summed by layer."""
        self_s = [end - start for _, start, end, *_ in self.spans]
        for _, start, end, parent, *_ in self.spans:
            if parent >= 0:
                self_s[parent] -= end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for span, s in zip(self.spans, self_s):
            out[WRAPPED[span[0]]] += s
        return out

    def write(self, path: Path, t0: float) -> None:
        """All spans as gzipped JSON lines; times in seconds from t0."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            out.write(json.dumps({"fields": SPAN_FIELDS}) + "\n")
            for name, start, end, parent, seed, move in self.spans:
                out.write(json.dumps(
                    [name, round(start - t0, 7), round(end - t0, 7), parent, seed, move]
                ) + "\n")
