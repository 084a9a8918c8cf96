"""Operation times scaled to a reference core speed.

The cores of a shared host change speed from second to second: other tenants
on the same physical core slow it down by up to half, and the guest sees no
steal time for it (its CPU time grows exactly like its wall time).  A raw
wall time therefore says as much about the neighbours as about the code.

While an operation runs, an interval timer interrupts it every
``INTERVAL_S`` seconds of wall time and runs a probe: a fixed piece of
pure-Python work owned by the benchmark (tuple polynomial arithmetic, dict
and tuple building, sorting), similar in kind to what ``ffrat`` does.  The
probe also runs once just before and once just after the operation.  The
operation's own time (its wall time minus the probes) is cut at the probes
into slices, and each slice is scaled by the probe speed at its two ends:

    scaled = sum(slice * REFERENCE_PROBE_S / probe time, averaged over both ends)

so ``scaled`` is the time the operation would take on a core that runs the
probe in ``REFERENCE_PROBE_S``.  The probe's code never changes with
``ffrat``'s, so a change to ``ffrat`` moves the scaled time as it moves the
wall time, while a slower neighbour moves the probe and the operation
together and cancels out.
"""

from __future__ import annotations

import signal
import time

from probe import REFERENCE_PROBE_S, probe

INTERVAL_S = 0.01


def timed_call(fn):
    """Run ``fn()`` under the probe.  Returns ``(value, error, wall_s,
    scaled_s)``: the result or the exception raised, the operation's wall
    time without the probes, and that time scaled to the reference speed."""
    marks = []            # (operation time so far, probe seconds)
    paused = 0.0
    clock = time.perf_counter
    start = clock()

    def sample(*_):
        nonlocal paused
        at = clock()
        marks.append((at - start - paused, probe()))
        paused += clock() - at

    sample()
    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        value, error = fn(), None
    except Exception as exc:
        value, error = None, exc
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)
    sample()
    wall = marks[-1][0] - marks[0][0]
    scaled = sum((t1 - t0) * REFERENCE_PROBE_S * (1 / p0 + 1 / p1) / 2
                 for (t0, p0), (t1, p1) in zip(marks, marks[1:]))
    return value, error, wall, scaled

