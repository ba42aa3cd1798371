"""Treatment assignment draws, as boolean treated masks, and the point estimate.

Sampling without replacement is a seeded partial Fisher-Yates shuffle: with
units indexed ``0..n-1``, step ``i`` swaps position ``i`` with a uniformly
chosen position in ``i..n-1`` and the first ``n_t`` positions are treated.
That shuffle order is part of the reproducibility contract: the same
``numpy.random.Generator`` state always yields the same assignment. Blocked
designs run one such shuffle per block, in label order. A
:class:`ShufflePlan` holds the steps of a whole design, and
:func:`draw_masks` turns a ``(rows, steps)`` matrix of step draws into
boolean masks. :func:`assign_cr` and :func:`assign_blocked` return one
draw, from one ``integers`` call on their generator; the Monte Carlo of
:mod:`~blockcalc.variance_estimation` takes the rows of many seeded
replications at once from :func:`~blockcalc.mc.rep_integers`.

There is no global generator anywhere in this package. Every randomized
operation takes an explicit ``rng`` or master seed, so replications can be
seeded independently; parallel callers must use disjoint generators.
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
    design_groups,
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
    """The shuffle steps of a design on a table: one shuffle per group of
    :func:`~blockcalc.pop_model.design_groups`, in its order (blocks in
    label order 1..K)."""
    groups, counts = design_groups(design, table)
    return _plan(table.n, np.concatenate(groups).tolist(), map(len, groups), counts)


def draw_masks(plan: ShufflePlan, draws) -> np.ndarray:
    """One boolean treated mask per row of ``draws``, as the rows of a ``(rows, n)`` matrix.

    ``draws`` is a ``(rows, steps)`` integer matrix whose row holds one
    draw below each of ``plan.highs``: the row of one
    ``rng.integers(plan.highs)`` call, which consumes a generator exactly
    as one scalar ``integers(high)`` call per step does, or of
    :func:`~blockcalc.mc.rep_integers`.
    """
    steps = plan.steps
    treated = []
    for row in np.asarray(draws).tolist():
        pool = list(plan.pool)
        for i, u in zip(steps, row):
            pool[i], pool[i + u] = pool[i + u], pool[i]
        treated.append([pool[i] for i in steps])
    masks = np.zeros((len(treated), plan.n), dtype=bool)
    masks[np.arange(len(treated))[:, None], treated] = True
    return masks


def assign_cr(n: int, n_t: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw over all size-``n_t`` treated subsets of ``n`` units, as a treated mask."""
    if not 0 < n_t < n:
        raise ValueError(f"n_t={n_t} out of range for n={n}")
    plan = _plan(n, range(n), [n], [n_t])
    return draw_masks(plan, rng.integers(plan.highs)[None])[0]


def assign_blocked(
    table: PotentialOutcomeTable, design: Blocked, rng: np.random.Generator
) -> np.ndarray:
    """Independent complete randomization inside every block (product law), as a treated mask.

    Blocks are processed in label order 1..K, so a fixed generator state
    reproduces the assignment exactly.
    """
    plan = shuffle_plan(table, design)
    return draw_masks(plan, rng.integers(plan.highs)[None])[0]


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
