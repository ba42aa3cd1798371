"""Treatment assignment generators and the point estimators they feed.

Sampling without replacement is a seeded partial Fisher-Yates shuffle: with
units indexed ``0..n-1``, step ``i`` swaps position ``i`` with a uniformly
chosen position in ``i..n-1`` and the first ``n_t`` positions are treated.
That shuffle order is part of the reproducibility contract: the same
``numpy.random.Generator`` state always yields the same assignment. Blocked
designs run one such shuffle per block, in label order. A
:class:`ShufflePlan` holds the steps of a whole design and
:func:`draw_masks` draws boolean masks from it; :func:`assign_cr` and
:func:`assign_blocked` wrap one draw as an :class:`Assignment`.

There is no global generator anywhere in this package. Every randomized
operation takes an explicit ``rng`` so replications can be seeded
independently; parallel callers must use disjoint generators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pop_model import (
    Blocked,
    CompleteRandomization,
    DesignSpec,
    PotentialOutcomeTable,
    validate_design,
)


@dataclass(frozen=True)
class Assignment:
    """One realized treatment vector, unit order matching the table."""

    z: tuple[str, ...]

    def __post_init__(self):
        if any(v not in ("t", "c") for v in self.z):
            raise ValueError("assignment entries must be 't' or 'c'")

    @property
    def n(self) -> int:
        return len(self.z)

    def treated_mask(self) -> np.ndarray:
        return np.asarray([v == "t" for v in self.z], dtype=bool)

    @classmethod
    def from_treated_indices(cls, n: int, treated) -> "Assignment":
        z = ["c"] * n
        for i in treated:
            z[i] = "t"
        return cls(z=tuple(z))


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
    shuffle.
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


def assign_cr(n: int, n_t: int, rng: np.random.Generator) -> Assignment:
    """Uniform draw over all size-``n_t`` treated subsets of ``n`` units."""
    if not 0 < n_t < n:
        raise ValueError(f"n_t={n_t} out of range for n={n}")
    mask = draw_masks(_plan(n, range(n), [n], [n_t]), [rng])[0]
    return Assignment.from_treated_indices(n, np.flatnonzero(mask))


def assign_blocked(
    table: PotentialOutcomeTable, design: Blocked, rng: np.random.Generator
) -> Assignment:
    """Independent complete randomization inside every block (product law).

    Blocks are processed in label order 1..K, so a fixed generator state
    reproduces the assignment exactly.
    """
    mask = draw_masks(shuffle_plan(table, design), [rng])[0]
    return Assignment.from_treated_indices(table.n, np.flatnonzero(mask))


def _check_consistent(table: PotentialOutcomeTable, assignment: Assignment, design: DesignSpec):
    if assignment.n != table.n:
        raise ValueError("assignment length does not match table")
    mask = assignment.treated_mask()
    if isinstance(design, CompleteRandomization):
        if int(mask.sum()) != design.n_t:
            raise ValueError("assignment has the wrong treated count")
    else:
        validate_design(design, table)
        for k in range(1, table.num_blocks + 1):
            idx = table.block_indices(k)
            if int(mask[idx].sum()) != design.n_tk[k - 1]:
                raise ValueError(f"assignment treats the wrong count in block {k}")
    return mask


def tau_hat(
    table: PotentialOutcomeTable, assignment: Assignment, design: DesignSpec
) -> float:
    """Difference-in-means estimate for the realized assignment.

    Complete randomization: treated mean minus control mean. Blocked: the
    size-weighted average ``sum_k (n_k/n) tau_hat_k`` of per-block
    difference-in-means estimates.
    """
    mask = _check_consistent(table, assignment, design)
    if isinstance(design, CompleteRandomization):
        return float(np.mean(table.y_t[mask]) - np.mean(table.y_c[~mask]))
    total = 0.0
    for k in range(1, table.num_blocks + 1):
        idx = table.block_indices(k)
        m = mask[idx]
        if not m.any() or m.all():
            raise ValueError(f"block {k} has an empty arm")
        block_est = float(np.mean(table.y_t[idx][m]) - np.mean(table.y_c[idx][~m]))
        total += len(idx) / table.n * block_est
    return total


def tau_hat_reweighted(
    table: PotentialOutcomeTable, assignment: Assignment, design: Blocked
) -> float:
    """Blocked estimate written as a reweighted sum over observed outcomes.

    With ``p = n_t / n`` and ``p_k = n_tk / n_k``, each treated observation
    carries weight ``(1/n_t)(p/p_k)`` and each control observation weight
    ``(1/n_c)((1-p)/(1-p_k))``. Algebraically identical to :func:`tau_hat`
    under the blocked design; exposed so that identity can be checked
    directly.
    """
    mask = _check_consistent(table, assignment, design)
    n = table.n
    n_t = design.n_t
    n_c = n - n_t
    p = n_t / n
    total = 0.0
    for k in range(1, table.num_blocks + 1):
        idx = table.block_indices(k)
        m = mask[idx]
        p_k = design.n_tk[k - 1] / len(idx)
        total += (p / p_k) / n_t * float(np.sum(table.y_t[idx][m]))
        total -= ((1 - p) / (1 - p_k)) / n_c * float(np.sum(table.y_c[idx][~m]))
    return total
