"""Seeding and replication plumbing shared by the Monte Carlo operations.

Replication ``r`` of a run with master seed ``s`` always draws from a
generator seeded by ``SeedSequence(entropy=s, spawn_key=(r,))``, and partial
results are reduced in ascending replication order. Worker counts therefore
change speed, never results.

The worker count is clamped by :func:`effective_workers`: a pool never has
more workers than items to map or CPUs to run them on.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

T = TypeVar("T")
U = TypeVar("U")

#: Replications per work chunk. Fixed so that chunk boundaries (and hence
#: floating-point reduction order) do not depend on the worker count.
CHUNK_SIZE = 256


def rep_seed(master_seed: int, rep: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(rep,))


def rep_rng(master_seed: int, rep: int) -> np.random.Generator:
    return np.random.default_rng(rep_seed(master_seed, rep))


def chunk_bounds(n: int, chunk: int = CHUNK_SIZE) -> list[tuple[int, int]]:
    return [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]


def effective_workers(threads: int, items: int) -> int:
    """Workers a map over ``items`` items actually uses: at least 1, and no
    more than ``threads``, the item count or ``os.cpu_count()``."""
    return max(1, min(threads, items, os.cpu_count() or 1))


def map_ordered(fn: Callable[[T], U], items: Sequence[T], threads: int = 1) -> list[U]:
    """Map preserving order; a process pool of :func:`effective_workers`
    workers is used when that count exceeds 1.

    ``fn`` and the items must be picklable when running with a pool.
    """
    items = list(items)
    workers = effective_workers(threads, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
