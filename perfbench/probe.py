"""The reference work that ``speed.py`` times to follow the speed of the core.

It is plain Python owned by the benchmark and never changes with ``ffrat``:
polynomial products and remainders over GF(7) on tuples, with a dict of the
results, then building, counting and sorting small tuples.  It imports only
``gc`` and ``time``, so ``cold_setup.py`` can run it in a fresh interpreter
without loading any module ``ffrat`` needs.
"""

import gc
import time

# The probe time that defines the reference core speed (see speed.py): about
# the probe's time, interleaved with the workloads, on a quiet vCPU of the
# machine the reference figures in README.md were measured on, so that scaled
# times read close to wall times there.  Any constant would do: it only sets
# the unit, and a later change must not alter it.
REFERENCE_PROBE_S = 1.5e-4

P = 7
MODULUS = (3, 0, 1, 5, 1)


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % P
    return tuple(out)


def _rem(a, m):
    a = list(a)
    while len(a) >= len(m):
        lead = a[-1]
        if lead:
            shift = len(a) - len(m)
            for i, y in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * y) % P
        a.pop()
    return tuple(a)


def _work() -> int:
    seen = {}
    x = (1, 2, 3, 1)
    for i in range(6):
        x = _rem(_mul(x, (i % P, 1, 2)), MODULUS)
        seen[x] = i
    counts = {}
    for i in range(60):
        t = tuple((i * k) % 11 for k in range(6))
        counts[t] = counts.get(t, 0) + len(sorted(t))
    return len(seen) + len(counts)


def scale(seconds: float, probes: list) -> float:
    """``seconds`` at the reference speed, for a span of time over which the
    probe took the times in ``probes``."""
    return seconds * REFERENCE_PROBE_S * sum(1 / p for p in probes) / len(probes)


def probe() -> float:
    """Seconds one run of the reference work takes.  The collector is paused
    meanwhile: the work frees every object it makes before it returns, so it
    neither triggers nor delays a collection of the caller's objects."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
