"""Host-speed reference: a fixed computation timed during every request.

On a shared machine the same request can take twice as long from one
second to the next, and CPU time rises with wall time, so neither clock
separates the program's speed from the host's.  :func:`probe` times a fixed
computation shaped like lckgeo's own hot path: central differences of a
small metric field in a Python loop over tiny numpy arrays.  It never calls
lckgeo.

:func:`interval` times a request and probes the host right before
it, right after it, and every ``INTERVAL`` seconds during it from a SIGALRM
handler.  The request's time, less the probes', is scaled by
``REF_SECONDS`` / (mean probe time): its time on a host where one probe
takes ``REF_SECONDS``.  Since the probe never calls lckgeo, a change to
lckgeo moves corrected times as much as raw ones.  A change that slows numpy
or the interpreter itself also slows the probe and is partly hidden; the raw
times stay in the run record.

Process start-up (``setup_s``) is corrected the same way by :func:`startups`,
with a fresh interpreter that imports numpy as the reference work.
"""

from __future__ import annotations

import math
import signal
import statistics
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# About the 5th percentile of probe() over 800 calls on a shared 2-core
# x86-64 VM (Python 3.11, numpy 2.4): corrected times are seconds on that
# VM in its fast phases.
REF_SECONDS = 3.0e-3
INTERVAL = 0.2
# Start-up of a fresh interpreter that imports numpy: the part of every
# `lck run` that lckgeo does not own.  About the 5th percentile of 60 runs
# on the same VM.
STARTUP = (sys.executable, "-c", "import numpy")
REF_STARTUP_SECONDS = 0.15
_STEPS = 60
_H = 1e-5


def _field(p):
    g = np.eye(4) / float(p @ p)
    g[0, 1] = g[1, 0] = 0.1 * math.sin(p[0])
    return g


def probe() -> float:
    """Run the reference computation once and return its time in seconds."""
    t0 = perf_counter()
    p = np.array([0.3, 0.5, 0.7, 1.1])
    total = 0.0
    for _ in range(_STEPS):
        d = np.zeros((4, 4, 4))
        for a in range(4):
            e = np.zeros(4)
            e[a] = _H
            d[a] = (_field(p + e) - _field(p - e)) / (2 * _H)
        total += float(np.linalg.solve(_field(p), d[0] @ p) @ p)
        p = p + 1e-3
    if not math.isfinite(total):
        raise RuntimeError("reference computation diverged")
    return perf_counter() - t0


def process_seconds(cmd) -> float:
    """Wall time of a child process running ``cmd`` to completion."""
    t0 = perf_counter()
    # no timeout: Popen.wait with one polls, which quantizes the time
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def startups(cmd, repeats: int) -> list:
    """``(corrected, raw)`` seconds of ``repeats`` runs of the child ``cmd``.

    The compute probe tracks process start-up poorly, so each run is instead
    scaled by ``REF_STARTUP_SECONDS`` / (mean time of a ``STARTUP`` run right
    before and right after it).
    """
    times = []
    before = process_seconds(STARTUP)
    for _ in range(repeats):
        raw = process_seconds(cmd)
        after = process_seconds(STARTUP)
        times.append((raw * REF_STARTUP_SECONDS / (0.5 * (before + after)), raw))
        before = after
    return times


@dataclass
class Interval:
    raw_s: float = None         # measured, less the probes taken during it
    corrected_s: float = None   # on the reference host


@contextmanager
def interval():
    """Time the body of the ``with`` block; the result is set on exit."""
    result = Interval()
    samples = [probe()]
    during = []

    def tick(signum, frame):
        during.append(probe())

    previous = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
    t0 = perf_counter()
    try:
        yield result
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        elapsed = perf_counter() - t0
        signal.signal(signal.SIGALRM, previous)
        samples += during
        samples.append(probe())
        result.raw_s = elapsed - sum(during)
        result.corrected_s = (result.raw_s * REF_SECONDS
                              / statistics.fmean(samples))
