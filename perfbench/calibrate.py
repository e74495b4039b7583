"""A fixed calibration kernel that measures how fast the machine runs right now.

The benchmark shares its machine with other tenants, and the machine's
speed drifts.  On the 2-core host this benchmark was written on, the same
op took 1.7 to 2 times as long for a minute or more at a time.  Steal time
stayed near 1.5%, and CPU time tracked wall time.  Those slow spells span
whole runs, so longer runs do not average them out.

The kernel uses no liouville code.  Its three parts have the same kinds of
cost as the package: a Python loop over small arrays, like the per-cell
sweep; vectorized work on grid-sized arrays, like the transform and
Galerkin steps; and plain interpreter arithmetic.  A change to the package
cannot move it.  Timings scaled by REFERENCE / (kernel time) are stated in
reference seconds, the time the same work takes when the kernel takes
REFERENCE seconds.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE = 0.06  # seconds: the kernel's time in the fast spells of a 2-core Xeon host
SAMPLES = 3  # kernel calls right after a worker's set-up

_X = np.linspace(0.0, 1.0, 2049)
_BASIS = np.sin(np.outer(np.arange(1, 17), np.pi * _X))


def _kernel() -> float:
    y, v = np.ones(16), np.zeros(16)
    a, b = np.full(16, 0.9999), np.full(16, 1e-4)
    for _ in range(8000):
        y, v = a * y + b * v, a * v - b * y
    acc = 0.0
    for k in range(800):
        acc += float(_BASIS @ (np.cos(k * _X) * _BASIS[k % 16]) @ _BASIS[:, 0])
    s = 0
    for i in range(150000):
        s += i * i % 7
    return acc + s + float(y[0])


def sample() -> float:
    """Seconds one kernel call takes now."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0
