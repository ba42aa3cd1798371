"""Finite populations, superpopulation strata, and their summary statistics.

Everything downstream consumes one of two inputs: a
:class:`PotentialOutcomeTable`, the full schedule of treatment and control
outcomes with block labels for a fixed sample, or a :class:`StrataMoments`,
known per-stratum superpopulation means and variances whose pooled moments
are always derived from the mixture identities.

Conventions used throughout the package:

* all sample variances use the ``n - 1`` divisor;
* the variance of a single unit is undefined and is carried as ``None``
  (never 0 or NaN), so operations that need it must state the
  ``n_k >= 2`` precondition themselves;
* block labels take one form: :func:`canonical_labels` numbers raw labels
  ``1..K`` in order of first appearance, and every object that carries
  labels stores them as one read-only integer array, keeping joins
  downstream stable and reproducible.

Every CSV input is read column by column by :func:`read_csv_columns`, and
numeric columns are parsed whole, exactly as Python's ``float`` parses.
All real arithmetic is 64-bit floating point.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

import numpy as np

#: Absolute tolerance for "weights sum to one" style checks.
WEIGHT_ATOL = 1e-12

ARMS = ("t", "c", "tc")


def _float_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    return arr


def _require_finite(arr: np.ndarray, what: str) -> None:
    if arr.size and not np.isfinite(arr).all():
        raise ValueError(f"non-finite {what}")


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _frozen_array(values, name: str) -> np.ndarray:
    return _read_only(_float_array(values, name).copy())


@dataclass(frozen=True)
class PotentialOutcomeTable:
    """Full schedule of both potential outcomes with dense block labels.

    ``blocks`` must already be canonical (integers ``1..K``, each appearing
    at least once); it is stored as a read-only integer array. Use
    :func:`table_from_arrays` or :func:`validate_table` to build a table
    from raw labels.

    The 0-based ``labels``, the ``block_sizes``, the ``block_order`` and the
    per-block ``stats`` are computed on first use and cached on the table;
    they are read-only because every caller shares them.
    """

    unit_ids: tuple[str, ...]
    blocks: np.ndarray
    y_t: np.ndarray
    y_c: np.ndarray

    def __post_init__(self):
        n = len(self.unit_ids)
        if n == 0:
            raise ValueError("empty table")
        if len(set(self.unit_ids)) != n:
            raise ValueError("duplicate unit_id")
        blocks = np.asarray(self.blocks)
        if blocks.shape != (n,):
            raise ValueError("blocks length mismatch")
        y_t = _frozen_array(self.y_t, "y_t")
        y_c = _frozen_array(self.y_c, "y_c")
        if len(y_t) != n or len(y_c) != n:
            raise ValueError("outcome length mismatch")
        _require_finite(y_t, "outcome")
        _require_finite(y_c, "outcome")
        if blocks.dtype.kind in "iu":
            blocks = blocks.astype(np.intp)
        # Dense labels lie in 1..n, which also bounds the bincount.
        if (
            blocks.dtype != np.intp
            or not 1 <= blocks.min() <= blocks.max() <= n
            or not np.bincount(blocks)[1:].all()
        ):
            raise ValueError("block labels must be dense integers 1..K")
        object.__setattr__(self, "y_t", y_t)
        object.__setattr__(self, "y_c", y_c)
        object.__setattr__(self, "blocks", _read_only(blocks))

    @property
    def n(self) -> int:
        return len(self.unit_ids)

    @property
    def num_blocks(self) -> int:
        return len(self.block_sizes)

    @cached_property
    def labels(self) -> np.ndarray:
        """0-based block index of every unit."""
        return _read_only(self.blocks - 1)

    @cached_property
    def block_sizes(self) -> np.ndarray:
        return _read_only(np.bincount(self.labels))

    @cached_property
    def stats(self) -> "BlockStats":
        """Per-block sufficient statistics of the three arms."""
        arms = (self.y_t, self.y_c, self.y_t - self.y_c)
        moments = (centered_moments(y, self.labels, self.block_sizes) for y in arms)
        return BlockStats(self.n, self.block_sizes, *moments)

    @cached_property
    def block_order(self) -> np.ndarray:
        """Unit indices grouped by block in label order, unit order within a block."""
        return _read_only(np.argsort(self.labels, kind="stable"))

    def block_indices(self, k: int) -> np.ndarray:
        return np.flatnonzero(self.labels == k - 1)

    @property
    def sate(self) -> float:
        """Average unit-level treatment effect over the table."""
        return float(np.mean(self.y_t - self.y_c))


def canonical_labels(raw) -> np.ndarray:
    """Dense labels ``1..K`` numbering the distinct values of ``raw`` in order
    of first appearance, as a read-only integer array.

    Values are told apart as dict keys are, so ``1`` and ``"1"`` are two
    labels while ``1`` and ``1.0`` are one.
    """
    raw = list(raw)
    number = {label: k for k, label in enumerate(dict.fromkeys(raw), start=1)}
    return _read_only(np.fromiter(map(number.__getitem__, raw), dtype=np.intp, count=len(raw)))


def table_from_arrays(blocks, y_t, y_c, unit_ids=None) -> PotentialOutcomeTable:
    """Build a table from parallel arrays, canonicalizing block labels.

    Blocks are relabeled ``1..K`` in first-appearance order; unit order is
    preserved. Unit ids default to ``u1..un``.
    """
    blocks = canonical_labels(blocks)
    if unit_ids is None:
        unit_ids = [f"u{i + 1}" for i in range(len(blocks))]
    return PotentialOutcomeTable(tuple(map(str, unit_ids)), blocks, y_t, y_c)


def validate_table(records: Iterable[Mapping]) -> PotentialOutcomeTable:
    """Build a table from records with the keys ``unit_id``, ``block``,
    ``y_t`` and ``y_c``, as :func:`table_from_arrays` does."""
    rows = [tuple(rec[key] for key in TABLE_CSV_HEADER) for rec in records]
    if not rows:
        raise ValueError("empty table")
    unit_ids, blocks, y_t, y_c = zip(*rows)
    return table_from_arrays(blocks, y_t, y_c, unit_ids)


TABLE_CSV_HEADER = ["unit_id", "block", "y_t", "y_c"]


def read_csv_columns(path, kind: str, columns) -> dict[str, tuple[str, ...]]:
    """The data columns of a ``kind`` CSV file (UTF-8, '#' lines are comments),
    as ``{header field: values in row order}``.

    The header must name every one of ``columns`` and every data row must
    fill every header field; errors name the CSV kind and the 1-based data
    row. A file without data rows is an error too, as is one the csv module
    cannot parse (a field over its size limit, say). Blank lines are
    skipped and fields past the header's are ignored.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(line for line in fh if not line.startswith("#"))
        try:
            header = next(reader, [])
            rows = [row for row in reader if row]
        except csv.Error as err:
            raise ValueError(f"{kind} CSV is not readable: {err}") from None
    for i, row in enumerate(rows, start=1):
        if len(row) < len(header):
            raise ValueError(f"{kind} CSV data row {i} has no value for {header[len(row):]}")
    if not rows:
        raise ValueError(f"empty {kind} CSV")
    missing = set(columns) - set(header)
    if missing:
        raise ValueError(
            f"{kind} CSV missing columns: {sorted(missing)} (needs {','.join(columns)})"
        )
    return dict(zip(header, zip(*rows)))


def read_table_csv(path) -> PotentialOutcomeTable:
    """Read ``unit_id,block,y_t,y_c`` rows (UTF-8, '.' decimal point).

    Outcomes parse as Python's ``float`` does. A column is converted whole,
    so when several values do not parse the error names the first one of
    the first bad column, ``y_t`` before ``y_c``.
    """
    cols = read_csv_columns(path, "table", TABLE_CSV_HEADER)
    y_t, y_c = (np.asarray(cols[name], dtype=float) for name in ("y_t", "y_c"))
    return table_from_arrays(cols["block"], y_t, y_c, cols["unit_id"])


def write_table_csv(table: PotentialOutcomeTable, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TABLE_CSV_HEADER)
        for uid, b, yt, yc in zip(table.unit_ids, table.blocks.tolist(), table.y_t, table.y_c):
            writer.writerow([uid, b, repr(float(yt)), repr(float(yc))])


# ---------------------------------------------------------------------------
# Designs


@dataclass(frozen=True)
class CompleteRandomization:
    """Assign exactly ``n_t`` of the ``n`` units to treatment."""

    n_t: int

    def __post_init__(self):
        if self.n_t < 1:
            raise ValueError("n_t must be positive")


@dataclass(frozen=True)
class Blocked:
    """Independent complete randomizations per block with counts ``n_tk``."""

    n_tk: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "n_tk", tuple(int(m) for m in self.n_tk))
        if any(m < 1 for m in self.n_tk):
            raise ValueError("every n_tk must be positive")

    @property
    def n_t(self) -> int:
        return sum(self.n_tk)


DesignSpec = CompleteRandomization | Blocked


def validate_design(design: DesignSpec, table: PotentialOutcomeTable) -> None:
    """Check the design is feasible for the table (both arms nonempty)."""
    if isinstance(design, CompleteRandomization):
        if not 0 < design.n_t < table.n:
            raise ValueError(f"n_t={design.n_t} out of range for n={table.n}")
        return
    sizes = table.block_sizes
    if len(design.n_tk) != table.num_blocks:
        raise ValueError("design has wrong number of blocks")
    for k, (m, size) in enumerate(zip(design.n_tk, sizes), start=1):
        if not 0 < m < size:
            raise ValueError(f"n_tk={m} out of range for block {k} (size {size})")


def blocked_design_for_proportion(table: PotentialOutcomeTable, p: float) -> Blocked:
    """Blocked design treating the fraction ``p`` of every block.

    Rejects any block where ``p * n_k`` is not an integer; silently rounding
    would change the design being analyzed.
    """
    if not 0 < p < 1:
        raise ValueError("p must be in (0, 1)")
    counts = []
    for k, size in enumerate(table.block_sizes, start=1):
        m = p * size
        if abs(m - round(m)) > 1e-9 * max(1.0, size):
            raise ValueError(f"p*n_k is not an integer for block {k} (p={p}, n_k={size})")
        counts.append(int(round(m)))
    design = Blocked(tuple(counts))
    validate_design(design, table)
    return design


def equal_proportions(design: Blocked, table: PotentialOutcomeTable) -> bool:
    """True when every block treats the same fraction (exact integer check)."""
    sizes = table.block_sizes
    m0, s0 = design.n_tk[0], int(sizes[0])
    return all(m * s0 == m0 * int(s) for m, s in zip(design.n_tk, sizes))


# ---------------------------------------------------------------------------
# Summaries


@dataclass(frozen=True)
class BlockSummary:
    """Means, block effect, and sample variances for one group of units."""

    size: int
    mean_t: float
    mean_c: float
    tau: float
    s2_t: float | None
    s2_c: float | None
    s2_tc: float | None


@dataclass(frozen=True)
class TableSummary:
    per_block: tuple[BlockSummary, ...]
    pooled: BlockSummary

    def require_s2(self) -> None:
        if any(b.s2_t is None for b in self.per_block):
            bad = [i + 1 for i, b in enumerate(self.per_block) if b.s2_t is None]
            raise ValueError(f"singleton block(s) {bad}: sample variance undefined")


@dataclass(frozen=True)
class ArmStats:
    """Centered per-group moments of one outcome vector.

    ``dev`` holds each group mean minus the pooled ``mean`` and ``ss`` each
    group's sum of squared deviations from its own mean. Both are computed
    from deviations around ``mean`` (two passes, never ``sum x^2 - n
    mean^2``), so a large common offset in the outcomes cancels before
    anything is squared.
    """

    mean: float
    dev: np.ndarray
    ss: np.ndarray

    @property
    def means(self) -> np.ndarray:
        return self.mean + self.dev


def _group_sums(values: np.ndarray, labels: np.ndarray, groups: int) -> np.ndarray:
    """Sums of ``values`` (..., n) by 0-based ``labels`` along the last axis.

    Every row gets its own range of ``groups`` bins, so one ``np.bincount``
    serves any number of leading axes.
    """
    if values.ndim == 1:
        return np.bincount(labels, values, minlength=groups)
    rows = values.reshape(-1, values.shape[-1])
    bins = (labels + groups * np.arange(len(rows))[:, None]).ravel()
    sums = np.bincount(bins, rows.ravel(), minlength=groups * len(rows))
    return sums.reshape(values.shape[:-1] + (groups,))


def centered_moments(values: np.ndarray, labels: np.ndarray, counts: np.ndarray) -> ArmStats:
    """Moments of ``values`` grouped by 0-based ``labels``; every group is nonempty.

    ``values`` may carry leading axes (one outcome vector per row); the
    groups run along the last axis and ``mean`` then has the leading shape.
    ``labels`` is one labelling for every row, or a ``(rows, n)`` matrix
    with one labelling per row whose groups all have the sizes ``counts``.
    """
    mean = values.mean(axis=-1, keepdims=True)
    deviations = values - mean
    dev = _group_sums(deviations, labels, len(counts)) / counts
    means = dev[..., labels] if labels.ndim == 1 else np.take_along_axis(dev, labels, axis=-1)
    ss = _group_sums((deviations - means) ** 2, labels, len(counts))
    mean = float(mean[0]) if values.ndim == 1 else mean[..., 0]
    return ArmStats(mean=mean, dev=_read_only(dev), ss=_read_only(ss))


def grouped_moments(values, labels) -> tuple[np.ndarray, ArmStats]:
    """Group sizes and centered moments of ``values`` for arbitrary labels.

    Groups are ordered by sorted label value; ``values`` may carry leading
    axes, as in :func:`centered_moments`.
    """
    _, inverse, counts = np.unique(np.asarray(labels), return_inverse=True, return_counts=True)
    return counts, centered_moments(np.asarray(values, dtype=float), inverse.ravel(), counts)


@dataclass(frozen=True)
class BlockStats:
    """Block sizes ``n_k`` and the centered moments of the arms t, c and tc.

    Every closed form is a few array operations on these, so a table's
    summaries cost O(n + K) once instead of a rescan per block.
    """

    n: int
    n_k: np.ndarray
    t: ArmStats
    c: ArmStats
    tc: ArmStats

    def arm(self, arm: str) -> ArmStats:
        if arm not in ARMS:
            raise ValueError(f"arm must be one of {ARMS}")
        return getattr(self, arm)

    def singletons(self) -> list[int]:
        """1-based labels of the blocks with a single unit."""
        return (np.flatnonzero(self.n_k < 2) + 1).tolist()

    def s2(self, arm: str) -> np.ndarray:
        """Per-block sample variances; raises when a block is a singleton."""
        bad = self.singletons()
        if bad:
            raise ValueError(f"singleton block(s) {bad}: sample variance undefined")
        return self.arm(arm).ss / (self.n_k - 1)

    def between_ss(self, arm: str) -> float:
        """``sum_k n_k (mean_k - mean)^2`` for one arm."""
        return float(self.n_k @ self.arm(arm).dev ** 2)

    def pooled_s2(self, arm: str) -> float:
        """Pooled sample variance: within plus between sums of squares over ``n - 1``."""
        return (float(self.arm(arm).ss.sum()) + self.between_ss(arm)) / (self.n - 1)


def pooled_variance(n_k, dev, ss):
    """Pooled sample variance of blocks gathered in any combination, over a
    trailing block axis, from block sizes ``n_k``, block means ``dev`` and
    within-block sums of squares ``ss``.

    This is the identity of :func:`pooled_decomposition` and
    :meth:`BlockStats.pooled_s2`: within plus between sums of squares over
    ``n - 1``. Here ``dev`` may be measured from any common reference (the
    pooled mean of a population the blocks were drawn from, say), so the
    between part is taken around its size-weighted mean.
    """
    n = n_k.sum(axis=-1)
    center = (n_k * dev).sum(axis=-1) / n
    between = (n_k * (dev - center[..., None]) ** 2).sum(axis=-1)
    return (ss.sum(axis=-1) + between) / (n - 1)


def summarize(table: PotentialOutcomeTable) -> TableSummary:
    """Per-block and pooled means, effects, and sample variances."""
    st = table.stats
    sizes = st.n_k.tolist()

    def s2(arm: str) -> list:
        with np.errstate(divide="ignore", invalid="ignore"):
            values = (st.arm(arm).ss / (st.n_k - 1)).tolist()
        return [v if size > 1 else None for v, size in zip(values, sizes)]

    means = (st.t.means.tolist(), st.c.means.tolist(), st.tc.means.tolist())
    per_block = zip(sizes, *means, *(s2(arm) for arm in ARMS))
    pooled_s2 = (st.pooled_s2(arm) if st.n > 1 else None for arm in ARMS)
    return TableSummary(
        per_block=tuple(BlockSummary(*row) for row in per_block),
        pooled=BlockSummary(st.n, st.t.mean, st.c.mean, st.tc.mean, *pooled_s2),
    )


class PooledDecomposition(NamedTuple):
    within: float
    between: float


def pooled_decomposition(table: PotentialOutcomeTable, arm: str) -> PooledDecomposition:
    """Split a pooled sample variance into within- and between-block parts.

    For arm ``z`` (one of ``t``, ``c``, ``tc``) with pooled sample variance
    ``S2``, the parts are::

        within  = sum_k (n_k - 1)/(n - 1) * S2_k
        between = sum_k  n_k     /(n - 1) * (mean_k - mean)^2

    and ``within + between == S2`` exactly. Requires ``n_k >= 2`` everywhere.
    """
    if arm not in ARMS:
        raise ValueError(f"arm must be one of {ARMS}")
    n = table.n
    if n < 2:
        raise ValueError("decomposition needs n >= 2")
    st = table.stats
    bad = st.singletons()
    if bad:
        raise ValueError(f"singleton block {bad[0]}: decomposition undefined")
    return PooledDecomposition(
        within=float(st.arm(arm).ss.sum()) / (n - 1),
        between=st.between_ss(arm) / (n - 1),
    )


# ---------------------------------------------------------------------------
# Superpopulation strata


@dataclass(frozen=True)
class PooledMoments:
    mu_t: float
    mu_c: float
    sigma2_t: float
    sigma2_c: float
    sigma2_tc: float


@dataclass(frozen=True)
class StrataMoments:
    """Per-stratum superpopulation means and variances with weights.

    Weights are stratum shares ``n_k / n`` and must sum to one. The
    ``pooled`` moments follow from the mixture identities

        pooled mean     = sum_k w_k mu_k
        pooled variance = sum_k w_k sigma2_k + sum_k w_k (mu_k - mean)^2
    """

    weights: np.ndarray
    mu_t: np.ndarray
    mu_c: np.ndarray
    sigma2_t: np.ndarray
    sigma2_c: np.ndarray
    sigma2_tc: np.ndarray

    def __post_init__(self):
        fields = ["weights", "mu_t", "mu_c", "sigma2_t", "sigma2_c", "sigma2_tc"]
        arrays = {}
        for name in fields:
            arr = _frozen_array(getattr(self, name), name)
            _require_finite(arr, name)
            arrays[name] = arr
            object.__setattr__(self, name, arr)
        k = len(arrays["weights"])
        if k == 0:
            raise ValueError("need at least one stratum")
        if any(len(arrays[name]) != k for name in fields):
            raise ValueError("stratum arrays must share one length")
        if np.any(arrays["weights"] <= 0):
            raise ValueError("weights must be positive")
        if abs(float(arrays["weights"].sum()) - 1.0) > WEIGHT_ATOL:
            raise ValueError("weights must sum to 1")
        for name in ("sigma2_t", "sigma2_c", "sigma2_tc"):
            if np.any(arrays[name] < 0):
                raise ValueError(f"{name} must be nonnegative")

    @property
    def num_strata(self) -> int:
        return len(self.weights)

    @property
    def tau_k(self) -> np.ndarray:
        return self.mu_t - self.mu_c

    @cached_property
    def pooled(self) -> PooledMoments:
        """Pooled means and variances of the mixture of the strata."""
        w = self.weights
        mu_t = float(w @ self.mu_t)
        mu_c = float(w @ self.mu_c)
        tau = mu_t - mu_c
        return PooledMoments(
            mu_t=mu_t,
            mu_c=mu_c,
            sigma2_t=float(w @ self.sigma2_t + w @ (self.mu_t - mu_t) ** 2),
            sigma2_c=float(w @ self.sigma2_c + w @ (self.mu_c - mu_c) ** 2),
            sigma2_tc=float(w @ self.sigma2_tc + w @ (self.tau_k - tau) ** 2),
        )


STRATA_CSV_HEADER = [
    "stratum",
    "weight",
    "mu_t",
    "mu_c",
    "sigma2_t",
    "sigma2_c",
    "sigma2_tc",
]


def read_strata_csv(path) -> StrataMoments:
    """Read ``stratum,weight,mu_t,mu_c,sigma2_t,sigma2_c,sigma2_tc`` rows."""
    cols = read_csv_columns(path, "strata", STRATA_CSV_HEADER)
    # The value columns follow the header in the field order of StrataMoments.
    return StrataMoments(*(np.asarray(cols[name], dtype=float) for name in STRATA_CSV_HEADER[1:]))
