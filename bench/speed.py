"""Host speed, sampled around every move, for scaling move times.

The benchmark runs on shared hosts whose speed changes by up to 1.9x,
in spells from a tenth of a second to minutes (neighbour load on the
host; see README.md). A spell moves every timing in it together, so a median over a
run moves with the share of the run that fell in slow spells. Before
every timed move, and after a game's last one, the benchmark times a fixed
pure-Python kernel that shares no code with minesolve. A move's scaled
time is its time multiplied by `REF_PROBE_MS` over the mean of the samples
just before and just after it.

The kernel allocates no object the garbage collector tracks, so no
collection runs inside it and the size of the solver's heap does not
change its time.
"""

from __future__ import annotations

from time import perf_counter

# loop iterations in one kernel run, about 0.1 ms
KERNEL_ITERS = 400
# the kernel's time at the host speed that scaled times are quoted at:
# its median between moves on a 2-vCPU Xeon VM under CPython 3.11, so
# that scaled times there read close to wall times
REF_PROBE_MS = 0.11

_TABLE = {i: (i * 7) % 31 for i in range(64)}
_MARKED = frozenset(range(0, 64, 3))


def _mix(acc: int, k: int) -> int:
    return (acc * 3 + k) & 0xFFFF


def kernel(n: int = KERNEL_ITERS) -> int:
    """Fixed interpreter-bound work: dict and set lookups, int arithmetic
    and calls; only small ints, so nothing is allocated for the collector."""
    acc = 0
    get = _TABLE.get
    for i in range(n):
        k = i & 63
        acc = _mix(acc, get(k, 0))
        if k in _MARKED:
            acc ^= k
    return acc


def sample_ms() -> float:
    """One speed sample: the kernel's wall time, in ms."""
    t0 = perf_counter()
    kernel()
    return (perf_counter() - t0) * 1000.0


def scaled(move_ms: list[float], probe_ms: list[float]) -> list[float]:
    """Each move time scaled by the samples on either side of it:
    probe_ms[i] was taken just before move i and probe_ms[i + 1] just
    after it."""
    return [dt * 2.0 * REF_PROBE_MS / (before + after)
            for dt, before, after in zip(move_ms, probe_ms, probe_ms[1:])]
