"""Speed gauge: a fixed reference kernel that tracks how fast the machine runs now.

The benchmark's machine is shared, and its speed drifts by up to 1.5×
over stretches of seconds to minutes with no steal time showing: the
process's CPU time grows with its wall time, so the cores themselves
run slower. Raw task times then move by as much between two sets of
runs of the same code. A session therefore runs this kernel right after
its set-up and before every timed task, the orchestrator before every
session start, and the benchmark reports times scaled by ``NOMINAL_S``
over the median time of the nearest passes: seconds at the speed the
machine has when the kernel takes ``NOMINAL_S``.

The kernel mixes the three kinds of work the workloads do: a pure
Python loop (interpreter overhead, as in the solver's bisection and the
L-BFGS-B loop), numpy ufuncs over a 2000-point array (as in the
Sellmeier and quadrature evaluations) and LAPACK ``eigvalsh`` on a
40×40 matrix, small enough that OpenBLAS runs it on the calling thread.
Its inputs are constants and it calls nothing in xsplice, so a change to
the program cannot change it. In scratch runs that timed design, sweep
and tomography tasks next to it, the ratio of task time to gauge time
spread 0.10-0.12 (interquartile over median, windows of a few seconds)
where the raw task times spread 0.16-0.44.
"""

from __future__ import annotations

import time

import numpy as np

#: Gauge time of one pass at the reference speed (the median pass on the
#: reference machine in a quiet stretch); it only sets the scale.
NOMINAL_S = 0.0050

_X = np.linspace(0.1, 2.0, 2000)
_M = np.cos(np.outer(np.arange(40.0), np.arange(40.0)) / 7.0)
_S = _M @ _M.T + 40.0 * np.eye(40)


def _kernel() -> float:
    s = 0
    for i in range(12000):
        s += i * i % 7
    x = _X
    for _ in range(60):
        x = np.sin(x) * 0.5 + np.sqrt(np.abs(x))
    e = 0.0
    for _ in range(12):
        e += np.linalg.eigvalsh(_S)[0]
    return s + float(x[0]) + e


def sample() -> float:
    """Seconds of one pass of the kernel."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def factor(seconds) -> float:
    """Slowdown of the machine against the reference: median gauge time / NOMINAL_S."""
    seconds = sorted(seconds)
    n = len(seconds)
    mid = seconds[n // 2] if n % 2 else 0.5 * (seconds[n // 2 - 1] + seconds[n // 2])
    return mid / NOMINAL_S
