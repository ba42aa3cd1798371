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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import mc
from .blocking_lab import make_blocks_random
from .pop_model import Blocked, PotentialOutcomeTable, _canonical_labels, read_csv_rows
from .variance_theory import neyman_var_blocked, neyman_var_cr

REPLAY_CSV_HEADER = ["unit_id", "block", "z", "baseline", "y"]

STRATEGY_NAMES = (
    "keep-blocks",
    "balance-proportions",
    "random-blocks",
    "baseline-sorted-blocks",
    "outcome-sorted-blocks",
)


@dataclass(frozen=True)
class ReplayData:
    """A realized experiment: blocks, arms, baseline, and one outcome."""

    unit_ids: tuple[str, ...]
    blocks: tuple[int, ...]
    z: tuple[str, ...]
    baseline: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        for name in ("baseline", "y"):
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            if arr.size and not np.isfinite(arr).all():
                raise ValueError(f"non-finite {name}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if any(v not in ("t", "c") for v in self.z):
            raise ValueError("z entries must be 't' or 'c'")

    @property
    def n(self) -> int:
        return len(self.unit_ids)

    @property
    def num_blocks(self) -> int:
        return max(self.blocks)

    def realized_sizes(self) -> list[int]:
        return np.bincount(self.blocks)[1:].tolist()

    def realized_treated(self) -> list[int]:
        treated = np.asarray(self.z) == "t"
        return np.bincount(self.blocks, treated)[1:].astype(int).tolist()


def read_replay_csv(path) -> ReplayData:
    """Read ``unit_id,block,z,baseline,y`` rows."""
    rows = read_csv_rows(path, "replay", REPLAY_CSV_HEADER)
    return ReplayData(
        unit_ids=tuple(r["unit_id"] for r in rows),
        blocks=_canonical_labels([r["block"] for r in rows]),
        z=tuple(r["z"] for r in rows),
        baseline=np.asarray([float(r["baseline"]) for r in rows]),
        y=np.asarray([float(r["y"]) for r in rows]),
    )


@dataclass(frozen=True)
class Strategy:
    name: str
    params: dict = field(default_factory=dict)


def read_strategies_json(path) -> list[Strategy]:
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
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


def _table_and_design(
    data: ReplayData, labels, counts_by_label: list[int]
) -> tuple[PotentialOutcomeTable, Blocked]:
    """Build a no-impact table plus a design aligned to canonical labels."""
    labels = [int(v) for v in labels]
    canonical = _canonical_labels(labels)
    remap: dict[int, int] = {}
    for old, new in zip(labels, canonical):
        remap.setdefault(old, new)
    counts = [0] * len(counts_by_label)
    for old, count in enumerate(counts_by_label, start=1):
        counts[remap[old] - 1] = count
    table = PotentialOutcomeTable(
        unit_ids=data.unit_ids, blocks=canonical, y_t=data.y, y_c=data.y
    )
    return table, Blocked(tuple(counts))


def _sorted_chunk_labels(values: np.ndarray, sizes: list[int]) -> list[int]:
    order = np.argsort(values, kind="stable")
    labels = [0] * len(values)
    pos = 0
    for k, size in enumerate(sizes, start=1):
        for unit in order[pos : pos + size]:
            labels[unit] = k
        pos += size
    return labels


def _rel_se_pct(var_bk: float, var_cr: float) -> float:
    return 100.0 * math.sqrt(var_bk / var_cr)


def run_replay(
    data: ReplayData,
    strategies: list[Strategy] | None = None,
    seed: int = 0,
    default_allocations: int = 1000,
) -> list[dict]:
    """Relative standard error of each strategy against complete randomization."""
    strategies = strategies if strategies is not None else default_strategies(default_allocations)
    sizes = data.realized_sizes()
    realized = data.realized_treated()
    n_t = sum(realized)
    no_impact = PotentialOutcomeTable(
        unit_ids=data.unit_ids, blocks=data.blocks, y_t=data.y, y_c=data.y
    )
    var_cr = neyman_var_cr(no_impact, n_t)
    rows = []
    for s_index, strategy in enumerate(strategies):
        counts = realized
        if strategy.params.get("balanced") or strategy.name == "balance-proportions":
            counts = apportion_counts(n_t, sizes)
        if strategy.name in ("keep-blocks", "balance-proportions"):
            table, design = _table_and_design(data, data.blocks, counts)
            rel = _rel_se_pct(neyman_var_blocked(table, design), var_cr)
            p99 = allocations = None
        elif strategy.name == "baseline-sorted-blocks":
            table, design = _table_and_design(
                data, _sorted_chunk_labels(data.baseline, sizes), counts
            )
            rel = _rel_se_pct(neyman_var_blocked(table, design), var_cr)
            p99 = allocations = None
        elif strategy.name == "outcome-sorted-blocks":
            table, design = _table_and_design(
                data, _sorted_chunk_labels(data.y, sizes), counts
            )
            rel = _rel_se_pct(neyman_var_blocked(table, design), var_cr)
            p99 = allocations = None
        elif strategy.name == "random-blocks":
            allocations = int(strategy.params.get("allocations", default_allocations))
            if allocations < 1:
                raise ValueError("allocations must be positive")
            ratios = np.empty(allocations)
            for a in range(allocations):
                rng = mc.rep_rng(seed, a)
                labels = make_blocks_random(data.n, sizes, rng)
                table, design = _table_and_design(data, labels, counts)
                ratios[a] = _rel_se_pct(neyman_var_blocked(table, design), var_cr)
            rel = float(np.mean(ratios))
            p99 = float(np.quantile(ratios, 0.99))
        else:
            raise ValueError(
                f"unknown strategy {strategy.name!r}; choose from {STRATEGY_NAMES}"
            )
        rows.append(
            {
                "strategy": strategy.name,
                "balanced": bool(
                    strategy.params.get("balanced")
                    or strategy.name == "balance-proportions"
                ),
                "rel_se_pct": rel,
                "rel_se_p99_pct": p99,
                "allocations": allocations,
            }
        )
    return rows


REPLAY_COLUMNS = ["strategy", "balanced", "rel_se_pct", "rel_se_p99_pct", "allocations"]
