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

:func:`design_groups` is the one place that splits a table's units into
the groups a design randomizes independently: complete randomization is a
single group of every unit, and a blocked design one group per block.

Every CSV input is read column by column by :func:`read_csv_columns`, which
converts each batch of parsed rows as soon as it is parsed, keeps only the
columns its caller asks for (strings, floats parsed exactly as Python's
``float`` parses, or canonical labels) and names the CSV kind in every
error, a byte that is not UTF-8 included.
All real arithmetic is 64-bit floating point.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from typing import Mapping, NamedTuple

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


def _require_moments_fit(arms, n: int, what: str = "units") -> None:
    """Refuse outcome arms whose means or sums of squares overflow float64.

    A mean sums ``n`` values and a sum of squares sums ``n`` squared
    deviations, each at most the arm's span (max - min) squared. So every
    arm's largest magnitude, and its span squared, must stay within
    ``float64 max / n``. ``arms`` holds ``(name, values)`` pairs, each of ``n`` ``what``.
    """
    limit = float(np.finfo(float).max) / n
    for name, values in arms:
        lo, hi = float(values.min()), float(values.max())
        # Python floats: an overflowing span is inf, with no warning.
        span, peak = hi - lo, max(hi, -lo)
        if not (peak <= limit and span * span <= limit):
            raise ValueError(
                f"{name} outcomes too large for float64 moments over {n} {what}: "
                f"span {span:.3g} (limit {limit ** 0.5:.3g}), "
                f"magnitude {peak:.3g} (limit {limit:.3g})"
            )


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _frozen_array(values, name: str) -> np.ndarray:
    return _read_only(_float_array(values, name).copy())


@dataclass(frozen=True, eq=False)
class PotentialOutcomeTable:
    """Full schedule of both potential outcomes with dense block labels.

    ``blocks`` must already be canonical (integers ``1..K``, each appearing
    at least once); it is stored as a read-only integer array. Use
    :func:`table_from_arrays` to build a table from raw labels.

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
        if len(dict.fromkeys(self.unit_ids)) != n:  # a dict holds less than a set
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
        with np.errstate(over="ignore"):  # an overflowing effect is refused below
            effects = y_t - y_c
        _require_moments_fit((("y_t", y_t), ("y_c", y_c), ("y_t - y_c", effects)), n)
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


def canonical_labels(raw) -> np.ndarray:
    """Dense labels ``1..K`` numbering the distinct values of ``raw`` in order
    of first appearance, as a read-only integer array.

    Values are told apart as dict keys are, so ``1`` and ``"1"`` are two
    labels while ``1`` and ``1.0`` are one.
    """
    if not isinstance(raw, (list, tuple)):
        raw = list(raw)
    return _read_only(_numbered(raw, {}))


def _numbered(raw, number: dict) -> np.ndarray:
    """The labels of ``raw`` as numbered by ``number`` (raw label -> number),
    which first numbers each new one ``len(number) + 1`` in order of first
    appearance."""
    for label in dict.fromkeys(raw):
        number.setdefault(label, len(number) + 1)
    return np.fromiter(map(number.__getitem__, raw), dtype=np.intp, count=len(raw))


def default_unit_ids(n: int) -> tuple[str, ...]:
    """The unit ids ``u1..un``."""
    return tuple(f"u{i + 1}" for i in range(n))


def table_from_arrays(blocks, y_t, y_c, unit_ids=None) -> PotentialOutcomeTable:
    """Build a table from parallel arrays, canonicalizing block labels.

    Blocks are relabeled ``1..K`` in first-appearance order; unit order is
    preserved. Unit ids default to :func:`default_unit_ids`.
    """
    blocks = canonical_labels(blocks)
    unit_ids = default_unit_ids(len(blocks)) if unit_ids is None else tuple(map(str, unit_ids))
    return PotentialOutcomeTable(unit_ids, blocks, y_t, y_c)


#: What :func:`read_table_csv` makes of each column (see :func:`read_csv_columns`).
TABLE_CSV_COLUMNS = {"unit_id": "str", "block": "label", "y_t": "float", "y_c": "float"}
TABLE_CSV_HEADER = list(TABLE_CSV_COLUMNS)


#: Data rows parsed per batch: :func:`read_csv_columns` converts each batch
#: as soon as it is parsed and holds no other row lists, so a long file
#: leaves the cyclic garbage collector almost nothing to scan. A batch's row
#: lists, held while the next batch is parsed, must stay under the peak of
#: joining a long file's columns even when the rows carry columns no reader
#: keeps: 10 such columns add 0.28 MiB to a 20,000-row read's peak at 512
#: rows and under 0.1 MiB at 256, where ``large_table``'s peak RSS is also
#: 0.8 MiB lower than at 384 and its time no worse.
_CSV_BATCH_ROWS = 256


def read_csv_columns(path, kind: str, columns: Mapping[str, str | None]) -> dict:
    """The columns a caller keeps of a ``kind`` CSV file (UTF-8, a leading
    byte-order mark skipped, '#' lines are comments), in row order.

    Lines may end in LF, CRLF or a lone CR. A comment is any physical
    line that starts with '#', told apart before the csv module joins the
    lines of a quoted field, so such a line inside a quoted field is dropped
    too. The csv module tokenises the other lines, and numpy parses each
    batch's numbers of a column in one call.

    ``columns`` maps each column the header must name to what it becomes:
    ``"str"`` a tuple of its strings, ``"float"`` a float64 array parsed as
    Python's ``float`` parses, ``"label"`` an integer array of labels
    numbered ``1..K`` over the whole file as :func:`canonical_labels`
    numbers them, and ``None`` nothing (it is not kept).
    Rows are parsed and converted in batches of ``_CSV_BATCH_ROWS``; the
    fields of columns not kept, and those past the header, are dropped with
    their batch. Blank lines are skipped.

    Errors name the CSV kind and come in this order: a data row that does
    not fill every header field, a file that is not UTF-8 or that the csv
    module cannot parse (a field over its size limit, say), in batch order;
    a file without data rows; a header missing one of ``columns`` or naming
    one twice; the first unparsable value of the first bad ``"float"``
    column in the order of ``columns``, with its 1-based data row. Other
    columns may be named any number of times.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(line for line in fh if line[:1] != "#")
        try:
            header = next(reader, [])
            where = {name: header.index(name) for name, how in columns.items()
                     if how and name in header}
            parts = {name: [] for name in where}
            numbers = {name: {} for name in where}  # raw label -> canonical label
            bad = {}  # "float" column -> the error naming its first unparsable value
            rows = filter(None, reader)
            count = 0
            while batch := list(islice(rows, _CSV_BATCH_ROWS)):
                fields = list(zip(*batch))  # as wide as the batch's shortest row
                if len(fields) < len(header):
                    for i, row in enumerate(batch, start=count + 1):
                        if len(row) < len(header):
                            raise ValueError(
                                f"{kind} CSV data row {i} has no value for {header[len(row):]}"
                            )
                for name, j in where.items():
                    values = fields[j]
                    if columns[name] == "label":
                        values = _numbered(values, numbers[name])
                    elif columns[name] == "float" and name not in bad:
                        try:
                            values = np.asarray(values, dtype=float)
                        except ValueError:
                            bad[name] = _unparsable(kind, name, values, count + 1)
                    parts[name].append(values)
                count += len(batch)
        except (csv.Error, UnicodeDecodeError) as err:
            raise ValueError(f"{kind} CSV is not readable: {err}") from None
    if not count:
        raise ValueError(f"empty {kind} CSV")
    missing = set(columns) - set(header)
    if missing:
        raise ValueError(
            f"{kind} CSV missing columns: {sorted(missing)} (needs {','.join(columns)})"
        )
    for name in columns:
        if header.count(name) > 1:
            raise ValueError(f"{kind} CSV header names column {name!r} twice")
    for name in columns:
        if name in bad:
            raise ValueError(bad[name])
    return {name: _joined(how, parts[name]) for name, how in columns.items() if how}


def _joined(how: str, parts: list):
    """One column from its batches' parts: a tuple of strings or an array."""
    if len(parts) == 1:
        return parts[0]
    return tuple(chain.from_iterable(parts)) if how == "str" else np.concatenate(parts)


def _unparsable(kind: str, name: str, values, first_row: int) -> str:
    """The error naming the first of ``values``, the ``name`` column of data
    rows ``first_row`` on, that does not parse as a float."""
    for row, value in enumerate(values, start=first_row):
        try:
            float(value)
        except ValueError as err:
            return f"{kind} CSV column {name}, data row {row}: {err}"


def read_json(path, kind: str):
    """The value in a ``kind`` JSON file (UTF-8, a leading byte-order mark skipped).

    Bytes that are not UTF-8, text that is not JSON and JSON nested deeper
    than the parser's recursion limit are a one-line ``ValueError`` naming
    the file.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as err:
        raise ValueError(f"{kind} file {path} is not readable JSON: {err}") from None


def read_table_csv(path) -> PotentialOutcomeTable:
    """Read ``unit_id,block,y_t,y_c`` rows (UTF-8, '.' decimal point).

    Outcomes parse as Python's ``float`` does, batch by batch, and blocks
    are numbered as :func:`canonical_labels` numbers them. When several
    values do not parse, the error names the first one of the first bad
    column, ``y_t`` before ``y_c``, with its data row.
    """
    cols = read_csv_columns(path, "table", TABLE_CSV_COLUMNS)
    return PotentialOutcomeTable(cols["unit_id"], cols["block"], cols["y_t"], cols["y_c"])


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
    validate_block_counts(design.n_tk, table.block_sizes)


def validate_block_counts(n_tk, sizes) -> None:
    """Check a blocked design's counts ``n_tk`` leave both arms nonempty in
    blocks of ``sizes``."""
    if len(n_tk) != len(sizes):
        raise ValueError("design has wrong number of blocks")
    for k, (m, size) in enumerate(zip(n_tk, sizes), start=1):
        if not 0 < m < size:
            raise ValueError(f"n_tk={m} out of range for block {k} (size {size})")


def design_groups(
    design: DesignSpec, table: PotentialOutcomeTable
) -> tuple[list[np.ndarray], tuple[int, ...]]:
    """The groups of units a design randomizes independently, and the treated count of each.

    Complete randomization is one group of every unit, in unit order. A
    blocked design has one group per block in label order 1..K, each cut
    from the cached ``block_order`` (unit order within a block).
    """
    validate_design(design, table)
    if isinstance(design, CompleteRandomization):
        return [np.arange(table.n)], (design.n_t,)
    return np.split(table.block_order, np.cumsum(table.block_sizes[:-1])), design.n_tk


def blocked_design_for_proportion(table: PotentialOutcomeTable, p: float) -> Blocked:
    """Blocked design treating the fraction ``p`` of every block.

    Rejects any block where ``p * n_k`` is not an integer; silently rounding
    would change the design being analyzed.
    """
    if not 0 < p < 1:
        raise ValueError("p must be in (0, 1)")
    message = f"p*n_k is not an integer for block {{block}} (p={p}, n_k={{size}})"
    design = Blocked(_integer_counts(p, table.block_sizes, message))
    validate_design(design, table)
    return design


def _integer_counts(shares, sizes, message: str) -> np.ndarray:
    """``shares * sizes`` rounded to integers. Rounding a product more than
    ``1e-9 * max(1, size)`` from an integer would change the design, so the
    first is refused: ``message`` formatted with its 1-based ``block`` and ``size``."""
    products = np.asarray(shares, dtype=float) * sizes
    counts = np.round(products)
    off = np.abs(products - counts) > 1e-9 * np.maximum(1.0, sizes)
    if off.any():
        k = int(np.argmax(off))
        size = np.broadcast_to(sizes, off.shape).flat[k]
        raise ValueError(message.format(block=k + 1, size=size))
    return counts.astype(int)


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
        """Pooled sample variance: :func:`pooled_variance` of the arm's blocks."""
        return float(pooled_variance(self.n_k, self.arm(arm).dev, self.arm(arm).ss))


def pooled_variance(n_k, dev, ss):
    """Pooled sample variance of blocks gathered in any combination, over a
    trailing block axis, from block sizes ``n_k``, block means ``dev`` and
    within-block sums of squares ``ss``.

    This is the identity of :func:`pooled_decomposition`, within plus
    between sums of squares over ``n - 1``, and :meth:`BlockStats.pooled_s2`
    reads it. ``dev`` may be measured from any common reference (the
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


@dataclass(frozen=True, eq=False)
class StrataMoments:
    """Per-stratum superpopulation means and variances with weights.

    Weights are stratum shares ``n_k / n`` and must sum to one. The
    ``pooled`` moments follow from the mixture identities

        pooled mean     = sum_k w_k mu_k
        pooled variance = sum_k w_k sigma2_k + sum_k w_k (mu_k - mean)^2

    ``mu_t``, ``mu_c`` and ``mu_t - mu_c`` must fit ``_require_moments_fit``'s
    limits over the strata.
    """

    weights: np.ndarray
    mu_t: np.ndarray
    mu_c: np.ndarray
    sigma2_t: np.ndarray
    sigma2_c: np.ndarray

    def __post_init__(self):
        fields = ["weights", "mu_t", "mu_c", "sigma2_t", "sigma2_c"]
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
        for name in ("sigma2_t", "sigma2_c"):
            if np.any(arrays[name] < 0):
                raise ValueError(f"{name} must be nonnegative")
        with np.errstate(over="ignore"):  # an overflowing effect is refused below
            effects = self.mu_t - self.mu_c
        arms = (("mu_t", self.mu_t), ("mu_c", self.mu_c), ("mu_t - mu_c", effects))
        _require_moments_fit(arms, k, "strata")

    @property
    def num_strata(self) -> int:
        return len(self.weights)

    @cached_property
    def pooled(self) -> PooledMoments:
        """Pooled means and variances of the mixture of the strata."""
        w = self.weights
        mu_t = float(w @ self.mu_t)
        mu_c = float(w @ self.mu_c)
        return PooledMoments(
            mu_t=mu_t,
            mu_c=mu_c,
            sigma2_t=float(w @ self.sigma2_t + w @ (self.mu_t - mu_t) ** 2),
            sigma2_c=float(w @ self.sigma2_c + w @ (self.mu_c - mu_c) ** 2),
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
    """Read ``stratum,weight,mu_t,mu_c,sigma2_t,sigma2_c,sigma2_tc`` rows. No formula
    reads ``sigma2_tc``: it is checked last (finite, nonnegative) and not kept."""
    # The value columns follow the header in the field order of StrataMoments;
    # the stratum names are not kept.
    columns = {"stratum": None, **dict.fromkeys(STRATA_CSV_HEADER[1:], "float")}
    cols = read_csv_columns(path, "strata", columns)
    sigma2_tc = cols.pop("sigma2_tc")
    moments = StrataMoments(*cols.values())
    _require_finite(sigma2_tc, "sigma2_tc")
    if np.any(sigma2_tc < 0):
        raise ValueError("sigma2_tc must be nonnegative")
    return moments
