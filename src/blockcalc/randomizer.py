"""Treatment assignment draws, as boolean treated masks, and the point estimate.

Sampling without replacement is a seeded partial Fisher-Yates shuffle: with
units indexed ``0..n-1``, step ``i`` swaps position ``i`` with a uniformly
chosen position in ``i..n-1`` and the first ``n_t`` positions are treated.
That shuffle order is part of the reproducibility contract: the same
``numpy.random.Generator`` state always yields the same assignment. Blocked
designs run one such shuffle per block, in label order. A
:class:`ShufflePlan` holds the steps of a whole design, and
:func:`draw_masks` turns a ``(rows, steps)`` matrix of step draws into
boolean masks, applying each step to every row of a large chunk at once.
:func:`assign_cr` and :func:`assign_blocked` return one draw, from one
``integers`` call on their generator; the Monte Carlo of
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


@dataclass(frozen=True, eq=False)
class ShufflePlan:
    """The partial Fisher-Yates steps of one design, with its blocks laid end to end.

    ``pool`` lists the units block by block (unit order within a block; the
    whole table is one block under complete randomization). Step ``s``
    swaps pool position ``steps[s]`` with the position ``steps[s] + u``,
    ``u`` uniform below ``highs[s]``: the positions left in its block. The
    pool positions of the steps end up treated. ``pool``, ``steps`` and
    ``highs`` are stored as read-only int64 arrays.
    """

    n: int
    pool: np.ndarray
    steps: np.ndarray
    highs: np.ndarray

    def __post_init__(self):
        for name in ("pool", "steps", "highs"):
            arr = np.array(getattr(self, name), dtype=np.int64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _plan(n: int, pool, sizes, counts) -> ShufflePlan:
    steps: list[int] = []
    highs: list[int] = []
    start = 0
    for size, m in zip(sizes, counts):
        steps.extend(range(start, start + m))
        highs.extend(range(size, size - m, -1))
        start += size
    return ShufflePlan(n, pool, steps, highs)


def shuffle_plan(table: PotentialOutcomeTable, design: DesignSpec) -> ShufflePlan:
    """The shuffle steps of a design on a table: one shuffle per group of
    :func:`~blockcalc.pop_model.design_groups`, in its order (blocks in
    label order 1..K)."""
    groups, counts = design_groups(design, table)
    return _plan(table.n, np.concatenate(groups), map(len, groups), counts)


#: Chunks of at least this many rows take every shuffle step for all their
#: rows at once (:func:`_batch_shuffles`); smaller ones swap row by row
#: (:func:`_row_shuffles`). A batched step costs a few numpy calls whatever
#: the row count, so the two cross at a row count, not a plan size: on a
#: 2-core machine, with a fifth of the units treated, between 8 and 10 rows
#: at 1,000, 5,000 and 20,000 units and near 13 at 115 units, while one row
#: of 20,000 units took 0.74 ms row by row against 3.8 ms batched.
BATCH_SHUFFLE_ROWS = 10


def _row_shuffles(plan: ShufflePlan, draws: np.ndarray) -> list[list[int]]:
    """The treated units of each row of ``draws``, one Python shuffle per row."""
    pool, steps = plan.pool.tolist(), plan.steps.tolist()
    treated = []
    for row in draws.tolist():
        order = pool.copy()
        for i, u in zip(steps, row):
            order[i], order[i + u] = order[i + u], order[i]
        treated.append([order[i] for i in steps])
    return treated


def _batch_shuffles(plan: ShufflePlan, draws: np.ndarray) -> np.ndarray:
    """The treated units of each row of ``draws``, one swap per step for every row.

    The orders are held position-major, ``order[i * rows + r]`` being row
    ``r``'s unit at pool position ``i``, so a step's own positions are one
    contiguous slice and its partners one gather.
    """
    rows = len(draws)
    order = np.repeat(plan.pool, rows)
    partners = np.ascontiguousarray((draws + plan.steps).T) * rows + np.arange(rows)
    for i, partner in zip(plan.steps.tolist(), partners):
        at = order[i * rows:(i + 1) * rows]
        swapped = order[partner]
        order[partner] = at
        at[...] = swapped
    return order.reshape(plan.n, rows)[plan.steps].T


def draw_masks(plan: ShufflePlan, draws) -> np.ndarray:
    """One boolean treated mask per row of ``draws``, as the rows of a ``(rows, n)`` matrix.

    ``draws`` is a ``(rows, steps)`` integer matrix whose row holds one
    draw below each of ``plan.highs``: the row of one
    ``rng.integers(plan.highs)`` call, which consumes a generator exactly
    as one scalar ``integers(high)`` call per step does, or of
    :func:`~blockcalc.mc.rep_integers`. A chunk of fewer than
    :data:`BATCH_SHUFFLE_ROWS` rows is shuffled row by row, a larger one
    step by step over all its rows; both make the same swaps in the same
    order, so the masks are the same.
    """
    draws = np.asarray(draws, dtype=np.int64)
    rows = len(draws)
    shuffles = _row_shuffles if rows < BATCH_SHUFFLE_ROWS else _batch_shuffles
    masks = np.zeros((rows, plan.n), dtype=bool)
    masks[np.arange(rows)[:, None], shuffles(plan, draws)] = True
    return masks


def assign_cr(n: int, n_t: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw over all size-``n_t`` treated subsets of ``n`` units, as a treated mask."""
    if not 0 < n_t < n:
        raise ValueError(f"n_t={n_t} out of range for n={n}")
    plan = _plan(n, np.arange(n), [n], [n_t])
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
