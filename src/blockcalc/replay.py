"""Replay hypothetical blocking strategies on a realized experiment's data.

The input carries one realized outcome per unit; it is used as both
potential outcomes (a no-impact schedule), so the exact design variances of
any hypothetical blocking are computable. Strategies are constrained by the
realized block-size pattern and treated counts unless they say otherwise.

Strategies:

* ``keep-blocks``: the design as run.
* ``balance-proportions``: same blocks, treated counts reapportioned as
  close to a common proportion as integers allow (largest remainder rule).
* ``random-blocks``: random partitions with the realized size pattern,
  summarized over many allocations; ``balanced: true`` re-apportions counts.
* ``baseline-sorted-blocks``: blocks formed by sorting on the baseline.
* ``outcome-sorted-blocks``: blocks formed by sorting on the outcome itself,
  the most informative baseline one could have had.

Each blocking is a row of labels with the realized sizes; one grouped-moments
pass scores a matrix of rows, and ``random-blocks`` is scored in bounded chunks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import mc
from .blocking_lab import labels_in_order
from .pop_model import (
    Blocked,
    PotentialOutcomeTable,
    canonical_labels,
    centered_moments,
    read_csv_columns,
    read_json,
    validate_design,
)
from .variance_theory import block_variances, blocked_variance, neyman_var_cr

REPLAY_CSV_HEADER = ["unit_id", "block", "z", "baseline", "y"]

STRATEGY_NAMES = (
    "keep-blocks",
    "balance-proportions",
    "random-blocks",
    "baseline-sorted-blocks",
    "outcome-sorted-blocks",
)


@dataclass(frozen=True, eq=False)
class ReplayData:
    """A realized experiment: blocks, arms, baseline, and one outcome.

    ``blocks`` holds canonical labels ``1..K`` as a read-only integer array.
    """

    unit_ids: tuple[str, ...]
    blocks: np.ndarray
    z: tuple[str, ...]
    baseline: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        for name, dtype in (("blocks", np.intp), ("baseline", float), ("y", float)):
            arr = np.array(getattr(self, name), dtype=dtype)
            if dtype is float and arr.size and not np.isfinite(arr).all():
                raise ValueError(f"non-finite {name}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if any(v not in ("t", "c") for v in self.z):
            raise ValueError("z entries must be 't' or 'c'")

    @property
    def n(self) -> int:
        return len(self.unit_ids)

    def realized_sizes(self) -> list[int]:
        return np.bincount(self.blocks)[1:].tolist()

    def realized_treated(self) -> list[int]:
        treated = np.asarray(self.z) == "t"
        return np.bincount(self.blocks, treated)[1:].astype(int).tolist()


def read_replay_csv(path) -> ReplayData:
    """Read ``unit_id,block,z,baseline,y`` rows."""
    cols = read_csv_columns(path, "replay", REPLAY_CSV_HEADER)
    return ReplayData(
        unit_ids=cols["unit_id"],
        blocks=canonical_labels(cols["block"]),
        z=cols["z"],
        baseline=np.asarray(cols["baseline"], dtype=float),
        y=np.asarray(cols["y"], dtype=float),
    )


@dataclass(frozen=True)
class Strategy:
    name: str
    params: dict = field(default_factory=dict)


def read_strategies_json(path) -> list[Strategy]:
    """Read a JSON list of ``{"name": str, "params": {...}}`` objects (``params`` optional)."""
    raw = read_json(path, "strategies")
    if not isinstance(raw, list):
        raise ValueError("strategies file must hold a JSON list of objects")
    if not raw:
        raise ValueError("strategies file holds an empty list; name at least one strategy")
    for i, item in enumerate(raw, start=1):
        if not isinstance(item, dict) or not isinstance(item.get("name"), str):
            raise ValueError(f"strategies file entry {i} must be an object with a string name")
        if not isinstance(item.get("params", {}), dict):
            raise ValueError(f"strategies file entry {i} params must be an object")
    return [Strategy(name=item["name"], params=item.get("params", {})) for item in raw]


def default_strategies(allocations: int = 1000) -> list[Strategy]:
    return [
        Strategy("keep-blocks"),
        Strategy("balance-proportions"),
        Strategy("random-blocks", {"allocations": allocations, "balanced": False}),
        Strategy("random-blocks", {"allocations": allocations, "balanced": True}),
        Strategy("baseline-sorted-blocks"),
        Strategy("outcome-sorted-blocks"),
    ]


def apportion_counts(n_t: int, sizes: list[int]) -> list[int]:
    """Split ``n_t`` treated slots across blocks proportionally to size.

    Largest-remainder apportionment, then deterministic repair so every
    block keeps at least one unit in each arm.
    """
    k = len(sizes)
    n = sum(sizes)
    if not k <= n_t <= n - k:
        raise ValueError("cannot give every block a nonempty treated and control arm")
    quota = [n_t * s / n for s in sizes]
    counts = [math.floor(q) for q in quota]
    remainder = n_t - sum(counts)
    order = sorted(range(k), key=lambda i: (-(quota[i] - counts[i]), i))
    for i in order[:remainder]:
        counts[i] += 1
    # Repair bound violations by moving slots from/to the most over/under
    # quota blocks; ties resolved by block index.
    changed = True
    while changed:
        changed = False
        for i in range(k):
            if counts[i] < 1:
                donors = [j for j in range(k) if counts[j] > 1]
                donor = max(donors, key=lambda j: (counts[j] - quota[j], -j))
                counts[donor] -= 1
                counts[i] += 1
                changed = True
            elif counts[i] > sizes[i] - 1:
                takers = [j for j in range(k) if counts[j] < sizes[j] - 1]
                taker = min(takers, key=lambda j: (counts[j] - quota[j], j))
                counts[taker] += 1
                counts[i] -= 1
                changed = True
    return counts


def _rel_se_pct(y: np.ndarray, labels: np.ndarray, sizes, counts, var_cr: float):
    """``100 sqrt(var_bk/var_cr)`` of each row of a ``(blockings, n)`` matrix of
    0-based labels whose block ``k`` holds ``sizes[k]`` units and treats
    ``counts[k]``. Both potential outcomes are ``y``, so ``S2_tc`` is 0."""
    n_k = np.asarray(sizes)
    s2 = centered_moments(np.broadcast_to(y, labels.shape), labels, n_k).ss / (n_k - 1)
    block_vars = block_variances(n_k, np.asarray(counts, dtype=float), s2, s2, 0.0)
    return 100.0 * np.sqrt(blocked_variance(n_k, block_vars) / var_cr)


def _random_blocks(data: ReplayData, sizes, counts, var_cr, seed, allocations) -> np.ndarray:
    """The ratio of each random partition, scored in ``mc.chunk_bounds(allocations, n)``.

    Allocation ``a`` puts unit ``order[i]`` in the block of the ``i``-th
    unit of the realized size pattern, where ``order`` is one
    ``permutation(n)`` of the generator ``mc.rep_rngs`` yields for rep
    ``a`` (the state of ``mc.rep_rng(seed, a)``): the partition of
    ``make_blocks_random``, with 0-based labels. That generator is reused,
    so each permutation is drawn before the next is asked for; a batch's
    labels are then scattered at once. The ratio array (8 bytes an
    allocation) is allocated before any batch is listed, so an
    ``allocations`` too large to hold fails at once."""
    ratios = np.empty(allocations)
    template = np.repeat(np.arange(len(sizes)), sizes)
    for lo, hi in mc.chunk_bounds(allocations, data.n):
        orders = np.stack([rng.permutation(data.n) for rng in mc.rep_rngs(seed, lo, hi)])
        labels = np.empty_like(orders)
        np.put_along_axis(labels, orders, template, axis=1)
        ratios[lo:hi] = _rel_se_pct(data.y, labels, sizes, counts, var_cr)
    return ratios


def _checked_params(strategy: Strategy, default_allocations) -> tuple[bool, int | None]:
    """A strategy's ``(balanced, allocations)``, the second ``None`` unless it
    draws random blocks; rejects unknown names, unknown params and params
    of the wrong type."""
    name, params = strategy.name, strategy.params
    if name not in STRATEGY_NAMES:
        raise ValueError(f"unknown strategy {name!r}; choose from {STRATEGY_NAMES}")
    unknown = set(params) - {"allocations", "balanced"}
    if unknown:
        raise ValueError(f"unknown params for strategy {name!r}: {sorted(unknown)}")
    balanced = params.get("balanced", False)
    if not isinstance(balanced, bool):
        raise ValueError(
            f"strategy {name!r} param 'balanced' must be true or false, got {balanced!r}"
        )
    allocations = params.get("allocations", default_allocations)
    # bool is an int subclass in Python but a separate JSON type.
    integer = isinstance(allocations, (int, np.integer)) and not isinstance(allocations, bool)
    if (name == "random-blocks" or "allocations" in params) and not (integer and allocations >= 1):
        raise ValueError(
            f"strategy {name!r} param 'allocations' must be an integer >= 1, got {allocations!r}"
        )
    if name != "random-blocks":
        return balanced or name == "balance-proportions", None
    return balanced, allocations


def run_replay(
    data: ReplayData,
    strategies: list[Strategy] | None = None,
    seed: int = 0,
    default_allocations: int = 1000,
) -> list[dict]:
    """Relative standard error of each strategy against complete randomization."""
    strategies = strategies if strategies is not None else default_strategies(default_allocations)
    params = [_checked_params(strategy, default_allocations) for strategy in strategies]
    sizes = data.realized_sizes()
    realized = data.realized_treated()
    n_t = sum(realized)
    no_impact = PotentialOutcomeTable(
        unit_ids=data.unit_ids, blocks=data.blocks, y_t=data.y, y_c=data.y
    )
    var_cr = neyman_var_cr(no_impact, n_t)
    if np.ptp(data.y) == 0:
        raise ValueError(
            "outcome y is constant, so the completely randomized variance is 0 "
            "and relative standard errors are undefined"
        )
    sorted_by = {"baseline-sorted-blocks": data.baseline, "outcome-sorted-blocks": data.y}
    rows = []
    for strategy, (balanced, allocations) in zip(strategies, params):
        counts = apportion_counts(n_t, sizes) if balanced else realized
        # Every blocking keeps the realized sizes, so this one check covers them all.
        validate_design(Blocked(tuple(counts)), no_impact)
        p99 = None
        if strategy.name == "random-blocks":
            ratios = _random_blocks(data, sizes, counts, var_cr, seed, allocations)
            rel = float(np.mean(ratios))
            p99 = float(np.quantile(ratios, 0.99))
        else:
            labels = no_impact.labels
            if strategy.name in sorted_by:
                order = np.argsort(sorted_by[strategy.name], kind="stable")
                labels = labels_in_order(order, sizes) - 1
            rel = float(_rel_se_pct(data.y, labels[None], sizes, counts, var_cr)[0])
        rows.append(
            {
                "strategy": strategy.name,
                "balanced": balanced,
                "rel_se_pct": rel,
                "rel_se_p99_pct": p99,
                "allocations": allocations,
            }
        )
    return rows


REPLAY_COLUMNS = ["strategy", "balanced", "rel_se_pct", "rel_se_p99_pct", "allocations"]
