"""Treatment assignment draws, as boolean treated masks, and the point estimate.

Sampling without replacement is a seeded partial Fisher-Yates shuffle: with
units indexed ``0..n-1``, step ``i`` swaps position ``i`` with a uniformly
chosen position in ``i..n-1`` and the first ``n_t`` positions are treated.
That shuffle order is part of the reproducibility contract: the same
``numpy.random.Generator`` state always yields the same assignment. Blocked
designs run one such shuffle per block, in label order. A
:class:`ShufflePlan` holds the steps of a whole design and
:func:`draw_masks` draws boolean masks from it; :func:`assign_cr` and
:func:`assign_blocked` return one draw.

There is no global generator anywhere in this package. Every randomized
operation takes an explicit ``rng`` so replications can be seeded
independently; parallel callers must use disjoint generators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .oracle import batch_statistic
from .pop_model import (
    Blocked,
    CompleteRandomization,
    DesignSpec,
    PotentialOutcomeTable,
    validate_design,
)


@dataclass(frozen=True)
class ShufflePlan:
    """The partial Fisher-Yates steps of one design, with its blocks laid end to end.

    ``pool`` lists the units block by block (unit order within a block; the
    whole table is one block under complete randomization). Step ``s``
    swaps pool position ``steps[s]`` with the position ``steps[s] + u``,
    ``u`` uniform below ``highs[s]``: the positions left in its block. The
    pool positions of the steps end up treated.
    """

    n: int
    pool: tuple[int, ...]
    steps: tuple[int, ...]
    highs: np.ndarray


def _plan(n: int, pool, sizes, counts) -> ShufflePlan:
    steps: list[int] = []
    highs: list[int] = []
    start = 0
    for size, m in zip(sizes, counts):
        steps.extend(range(start, start + m))
        highs.extend(range(size, size - m, -1))
        start += size
    return ShufflePlan(n, tuple(pool), tuple(steps), np.asarray(highs, dtype=np.int64))


def shuffle_plan(table: PotentialOutcomeTable, design: DesignSpec) -> ShufflePlan:
    """The shuffle steps of a design on a table.

    Blocked designs take each block's units from the table's cached
    ``block_order`` and shuffle the blocks in label order 1..K.
    """
    validate_design(design, table)
    if isinstance(design, CompleteRandomization):
        return _plan(table.n, range(table.n), [table.n], [design.n_t])
    return _plan(table.n, table.block_order.tolist(), table.block_sizes.tolist(), design.n_tk)


def draw_masks(plan: ShufflePlan, rngs) -> np.ndarray:
    """One boolean treated mask per generator, as the rows of a ``(draws, n)`` matrix.

    Each generator makes a single ``integers(plan.highs)`` call, which
    consumes it exactly as one scalar ``integers(high)`` call per step does,
    so a draw and the generator state after it match the step-by-step
    shuffle. Each generator is done with before the next is taken, so
    ``rngs`` may yield one reused generator, as
    :func:`~blockcalc.mc.rep_rngs` does.
    """
    steps = plan.steps
    treated = []
    for rng in rngs:
        pool = list(plan.pool)
        for i, u in zip(steps, rng.integers(plan.highs).tolist()):
            pool[i], pool[i + u] = pool[i + u], pool[i]
        treated.append([pool[i] for i in steps])
    masks = np.zeros((len(treated), plan.n), dtype=bool)
    masks[np.arange(len(treated))[:, None], treated] = True
    return masks


def assign_cr(n: int, n_t: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw over all size-``n_t`` treated subsets of ``n`` units, as a treated mask."""
    if not 0 < n_t < n:
        raise ValueError(f"n_t={n_t} out of range for n={n}")
    return draw_masks(_plan(n, range(n), [n], [n_t]), [rng])[0]


def assign_blocked(
    table: PotentialOutcomeTable, design: Blocked, rng: np.random.Generator
) -> np.ndarray:
    """Independent complete randomization inside every block (product law), as a treated mask.

    Blocks are processed in label order 1..K, so a fixed generator state
    reproduces the assignment exactly.
    """
    return draw_masks(shuffle_plan(table, design), [rng])[0]


def tau_hat(table: PotentialOutcomeTable, mask: np.ndarray, design: DesignSpec) -> float:
    """Difference-in-means estimate for a realized treated mask.

    Complete randomization: treated mean minus control mean. Blocked: the
    size-weighted average ``sum_k (n_k/n) tau_hat_k`` of per-block
    difference-in-means estimates. The mask must treat the design's count
    (in every block, for a blocked design); the estimate is one row of
    :func:`~blockcalc.oracle.batch_statistic`.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (table.n,):
        raise ValueError("assignment length does not match table")
    validate_design(design, table)
    treated = np.bincount(table.labels, mask)
    if isinstance(design, CompleteRandomization):
        if treated.sum() != design.n_t:
            raise ValueError("assignment has the wrong treated count")
    else:
        wrong = np.flatnonzero(treated != design.n_tk)
        if wrong.size:
            raise ValueError(f"assignment treats the wrong count in block {wrong[0] + 1}")
    return float(batch_statistic(table, design, "tau_hat", mask[None])[0])
