"""Machine-speed reference for the benchmark's timings.

The machine the benchmark was defined on is a shared 2-core VM whose speed
drifts by 20-50 % over minutes as other tenants load the host (measured with
a fixed loop: process CPU time tracks wall time, so the slowdown is in the
CPU, not in scheduling). A run of tens of seconds cannot average such drift
away. Pass times are therefore rescaled to a fixed machine speed: a fixed
task that does not use blockcalc is timed right before each job, and a pass
time ``t`` is reported as ``t * REFERENCE_S / reference``, where
``reference`` is the task's mean duration over that pass. Raw times are kept
in the result record. Over 24 s windows of one 5-minute run this cut the
spread (interquartile range over median) of the median pass from 7-15 % to
3-5 % on each workload.

The task mixes interpreter work with small numpy reductions, the same kind
of work the workloads do, so it slows down with them.
"""

from __future__ import annotations

import time

import numpy as np

#: Typical duration of :func:`reference` between jobs on the machine the
#: benchmark was defined on (2-core Intel Xeon VM, Python 3.11, numpy 2.4).
#: It only fixes the scale: reported times are seconds at that machine's
#: typical speed.
REFERENCE_S = 0.005

_VALUES = np.random.default_rng(0).normal(size=48)


def reference() -> float:
    """Wall time of one run of the fixed reference task (about 5 ms)."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(150):
        y = _VALUES[i % 16 :]
        acc += float(np.mean(y)) + float(np.var(y, ddof=1))
        acc += float(np.sum(y[y > 0]))
        acc += len(set(tuple(range(24))))
    return time.perf_counter() - start


def rescale(seconds: float, reference_s: float) -> float:
    """``seconds`` measured at the speed ``reference_s`` indicates, at :data:`REFERENCE_S`."""
    return seconds * REFERENCE_S / reference_s
