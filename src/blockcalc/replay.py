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

Each blocking is a row of labels with the realized sizes. Scoring takes two
steps: one grouped-moments pass turns a matrix of rows into each block's
sample variance, and each strategy turns those into its ratio with its own
treated counts. The fixed partitions the strategies name are scored in one
pass. Every ``random-blocks`` strategy reads one sweep of random partitions
drawn in bounded chunks: partition ``a`` is the same whichever strategy asks,
and a strategy with fewer allocations reads a prefix of the sweep.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import mc
from .blocking_lab import labels_in_order
from .pop_model import (
    Blocked,
    PotentialOutcomeTable,
    centered_moments,
    read_csv_columns,
    read_json,
    validate_design,
)
from .variance_theory import block_variances, blocked_variance, neyman_var_cr

#: What :func:`read_replay_csv` makes of each column (see ``read_csv_columns``).
REPLAY_CSV_COLUMNS = {
    "unit_id": "str", "block": "label", "z": "str", "baseline": "float", "y": "float"
}

#: Allocations of a ``random-blocks`` strategy that sets none (``replay --reps``).
DEFAULT_ALLOCATIONS = 1000

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
    # The columns follow the field order of ReplayData.
    return ReplayData(*read_csv_columns(path, "replay", REPLAY_CSV_COLUMNS).values())


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


def default_strategies(allocations: int = DEFAULT_ALLOCATIONS) -> list[Strategy]:
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
    block keeps at least one unit in each arm; a block of fewer than two
    units cannot, and is refused by name.
    """
    for block, size in enumerate(sizes, start=1):
        if size < 2:
            raise ValueError(
                f"block {block} has {size} unit(s), but balanced counts need 2 in every block"
            )
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


def _block_s2(y: np.ndarray, labels: np.ndarray, sizes) -> np.ndarray:
    """The sample variance of ``y`` in every block of each row of a
    ``(partitions, n)`` matrix of 0-based labels whose block ``k`` holds
    ``sizes[k]`` units, as a ``(partitions, K)`` array. One grouped-moments
    pass; each row's values depend on that row alone."""
    n_k = np.asarray(sizes)
    return centered_moments(np.broadcast_to(y, labels.shape), labels, n_k).ss / (n_k - 1)


def _rel_se_pct(s2: np.ndarray, sizes, counts, var_cr: float) -> np.ndarray:
    """``100 sqrt(var_bk/var_cr)`` of each row of a :func:`_block_s2` array
    when block ``k`` treats ``counts[k]`` units. Both potential outcomes are
    ``y``, so ``S2_tc`` is 0."""
    n_k = np.asarray(sizes)
    block_vars = block_variances(n_k, np.asarray(counts, dtype=float), s2, s2, 0.0)
    return 100.0 * np.sqrt(blocked_variance(n_k, block_vars) / var_cr)


def _random_blocks(data: ReplayData, sizes, var_cr, seed, scored) -> dict:
    """Fill every ``(counts, ratios)`` of ``scored`` with the ratios of the
    first ``len(ratios)`` random partitions; return the sweep's work counts,
    ``allocations`` (partitions drawn) and ``chunks`` (batches).

    One sweep draws ``max(len(ratios))`` partitions in the batches of
    ``mc.chunk_bounds``. Partition ``a`` puts unit ``order[i]`` in the block
    of the ``i``-th unit of the realized size pattern, where ``order`` is
    one ``permutation(n)`` of the generator ``mc.rep_rngs`` yields for rep
    ``a`` (the state of ``mc.rep_rng(seed, a)``): the partition of
    ``make_blocks_random``, with 0-based labels. One iterator serves the
    whole sweep, and each permutation is drawn before the next generator is
    asked for. A batch's labels are scattered at once and its block
    variances computed once; every ``ratios`` long enough to reach the
    batch then scores its prefix of them with its own counts, so a shorter
    ``ratios`` holds exactly the partitions it would draw alone."""
    total = max(len(ratios) for _, ratios in scored)
    template = np.repeat(np.arange(len(sizes)), sizes)
    rngs = mc.rep_rngs(seed, 0, total)
    bounds = mc.chunk_bounds(total, data.n)
    for lo, hi in bounds:
        orders = np.stack([rng.permutation(data.n) for rng in itertools.islice(rngs, hi - lo)])
        labels = np.empty_like(orders)
        np.put_along_axis(labels, orders, template, axis=1)
        s2 = _block_s2(data.y, labels, sizes)
        for counts, ratios in scored:
            if len(ratios) > lo:
                ratios[lo:hi] = _rel_se_pct(s2[: len(ratios) - lo], sizes, counts, var_cr)
    return {"allocations": total, "chunks": len(bounds)}


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
    default_allocations: int = DEFAULT_ALLOCATIONS,
    counts: dict | None = None,
) -> list[dict]:
    """Relative standard error of each strategy against complete randomization.

    Every strategy is checked, in order, before anything is scored. All
    ``random-blocks`` strategies share one sweep of random partitions, and
    the fixed partitions the other strategies name are scored in one pass.
    When a sweep runs, ``counts``, if given, receives its ``allocations``
    (partitions drawn) and ``chunks`` (batches).
    """
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
    # Each strategy's treated counts and, for random-blocks, its ratio array
    # (8 bytes an allocation, allocated before any draw).
    plans = []
    for strategy, (balanced, allocations) in zip(strategies, params):
        block_counts = apportion_counts(n_t, sizes) if balanced else realized
        # Every blocking keeps the realized sizes, so this one check covers them all.
        validate_design(Blocked(tuple(block_counts)), no_impact)
        ratios = np.empty(allocations) if strategy.name == "random-blocks" else None
        plans.append((block_counts, ratios))
    random = [plan for plan in plans if plan[1] is not None]
    if random:
        work = _random_blocks(data, sizes, var_cr, seed, random)
        if counts is not None:
            counts.update(work)
    # The partition each other strategy scores: the realized blocks, or
    # blocks formed by sorting on the baseline or on the outcome.
    sorted_by = {"baseline-sorted-blocks": data.baseline, "outcome-sorted-blocks": data.y}
    keys = [s.name if s.name in sorted_by else "realized" for s in strategies]
    fixed = list(dict.fromkeys(k for k, (_, ratios) in zip(keys, plans) if ratios is None))
    if fixed:
        labels = [
            labels_in_order(np.argsort(sorted_by[key], kind="stable"), sizes) - 1
            if key in sorted_by
            else no_impact.labels
            for key in fixed
        ]
        fixed_s2 = dict(zip(fixed, _block_s2(data.y, np.stack(labels), sizes)))
    rows = []
    for strategy, (balanced, allocations), key, (block_counts, ratios) in zip(
        strategies, params, keys, plans
    ):
        p99 = None
        if ratios is not None:
            rel = float(np.mean(ratios))
            p99 = float(np.quantile(ratios, 0.99))
        else:
            rel = float(_rel_se_pct(fixed_s2[key][None], sizes, block_counts, var_cr)[0])
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
