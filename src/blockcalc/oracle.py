"""Exact ground truth by enumerating every treatment assignment of a design.

Every closed-form variance in this package is validated against these
enumerations. Assignments are visited in lexicographic order of the treated
index combinations, nested by block index with the last block cycling
fastest, which makes the traversal deterministic and shardable.

Named statistics are evaluated in batches of :func:`chunk_rows` assignments.
:func:`iter_assignment_chunks` yields each batch as a boolean ``(rows, n)``
mask matrix of at most :data:`CHUNK_CELLS` cells, and :func:`batch_statistic`,
the one kernel for arbitrary masks, evaluates every row of a matrix with
array reductions; the variance estimators are enumerated that way.
``tau_hat`` builds no masks: on a mask with the design's counts it is
``c + mask @ u`` (:func:`_tau_hat_linear`), so :func:`enumerate_statistic`
writes each batch's values as subset sums of ``u``. User-supplied callables
see one mask at a time from :func:`iter_assignments`.

Every design is enumerated as the product of the subsets of its groups from
:func:`~blockcalc.pop_model.design_groups` (complete randomization is one
group of every unit). One explicit-stack descent, :func:`_fill_lex`, walks
the split that subsets holding the first unit come first, and hands its
pieces to a writer: :class:`_MaskWriter` sets mask cells and
:class:`_SumWriter` adds subset sums. Boolean tables of sub-problems up to
:data:`CHUNK_CELLS` cells, and their sums, are memoised for one
enumeration. Each batch fills only the range of every group's subsets it
uses, at most a batch's rows per group, so what an enumeration holds beyond
its current batch and its values is bounded by :data:`CHUNK_CELLS`, not by
its assignment count or its block order.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .pop_model import (
    Blocked,
    DesignSpec,
    PotentialOutcomeTable,
    design_groups,
)

#: Default enumeration cap; keeps worst-case runtime around a minute.
DEFAULT_CAP = 10_000_000

#: Mask cells (rows times units) per batch. Every batch allocates a few
#: float arrays of this many cells, so this bounds the memory an enumeration
#: adds whatever its assignment count.
CHUNK_CELLS = 1 << 14

#: Statistic names understood by :func:`batch_statistic`.
STATISTICS = ("tau_hat", "var_est_cr", "var_est_blocked")

#: A per-mask statistic ``(table, treated_mask) -> float``.
Statistic = Callable[[PotentialOutcomeTable, np.ndarray], float]


def count_assignments(design: DesignSpec, table: PotentialOutcomeTable) -> int:
    """Exact number of assignments, in integer arithmetic."""
    groups, counts = design_groups(design, table)
    return math.prod(math.comb(len(units), m) for units, m in zip(groups, counts))


def chunk_rows(width: int) -> int:
    """Items of ``width`` cells per batch, such as ``n``-unit assignments."""
    return max(1, CHUNK_CELLS // width)


def _lex_table(n: int, m: int, memo: dict) -> np.ndarray:
    """Every size-``m`` subset of ``range(n)`` as a boolean row, in lexicographic order.

    Built from the split that subsets holding element 0 come first,
    ``M(n, m) = [[True, M(n-1, m-1)], [False, M(n-1, m)]]``, and memoised in
    ``memo`` by ``(n, m)``. Called only when ``comb(n, m) * n <= CHUNK_CELLS``,
    so for ``0 < m < n`` it holds ``n * n <= CHUNK_CELLS`` and its recursion
    is at most ``n`` deep.
    """
    table = memo.get((n, m))
    if table is None:
        table = np.zeros((math.comb(n, m), n), dtype=bool)
        if m == n:
            table[:] = True
        elif m:
            top = math.comb(n - 1, m - 1)
            table[:top, 0] = True
            table[:top, 1:] = _lex_table(n - 1, m - 1, memo)
            table[top:, 1:] = _lex_table(n - 1, m, memo)
        memo[n, m] = table
    return table


class _MaskWriter:
    """Writes the pieces of a :func:`_fill_lex` descent as True cells of a
    zeroed boolean ``(rows, n)`` matrix."""

    def __init__(self, tables: dict):
        self.tables = tables

    def run(self, out, rows, col, width):
        out[rows, col : col + width] = True

    def diagonal(self, out, rows, col, width):
        np.fill_diagonal(out[rows, col : col + width], True)

    def leaf(self, out, rows, col, n, m, lo, hi):
        out[rows, col : col + n] = _lex_table(n, m, self.tables)[lo:hi]


class _SumWriter:
    """Adds the pieces of a :func:`_fill_lex` descent to a float vector: each
    row gains the sum of ``u`` over the columns its mask holds.

    A leaf's subset sums ``M(n, m) @ u[col:col + n]`` are memoised by
    ``(col, n, m)`` for the writer's life, one enumeration of one group.
    """

    def __init__(self, u: np.ndarray, tables: dict):
        self.u, self.tables, self.sums = u, tables, {}
        # A run is summed by math.fsum over floats: exact, and far cheaper
        # than a numpy reduction for a few columns.
        self.terms = u.tolist()

    def run(self, out, rows, col, width):
        out[rows] += math.fsum(self.terms[col : col + width])

    def diagonal(self, out, rows, col, width):
        out[rows] += self.u[col : col + width]

    def leaf(self, out, rows, col, n, m, lo, hi):
        sums = self.sums.get((col, n, m))
        if sums is None:
            sums = _lex_table(n, m, self.tables) @ self.u[col : col + n]
            self.sums[col, n, m] = sums
        out[rows] += sums[lo:hi]


def _fill_lex(out: np.ndarray, n: int, m: int, lo: int, hi: int, writer) -> None:
    """Write rows ``[lo, hi)`` of :func:`_lex_table`'s ``M(n, m)`` into ``out`` with ``writer``.

    Descends the split of :func:`_lex_table` with an explicit stack of
    ``(first out row, first column, n, m, lo, hi)`` sub-problems until one fits
    in :data:`CHUNK_CELLS` cells, then hands ``writer`` a slice of its
    memoised table. A run of leading columns that every row holds, or that
    no row holds, is skipped in one step by bisecting on ``math.comb``, so no
    descent walks the columns one by one. ``writer`` is a :class:`_MaskWriter`
    or a :class:`_SumWriter`.
    """
    stack = [(0, 0, n, m, lo, hi)]
    while stack:
        row, col, n, m, lo, hi = stack.pop()
        rows = slice(row, row + hi - lo)
        if m == 0:
            continue
        if m == n:
            writer.run(out, rows, col, n)
            continue
        if m == 1:
            # M(n, 1) is the identity, so rows [lo, hi) are one diagonal.
            writer.diagonal(out, rows, col + lo, hi - lo)
            continue
        total = math.comb(n, m)
        if total * n <= CHUNK_CELLS:
            writer.leaf(out, rows, col, n, m, lo, hi)
            continue
        top = math.comb(n - 1, m - 1)
        if hi <= top:
            # Rows holding each of the first j columns are the first comb(n - j, m - j).
            j = bisect_right(range(m + 1), -hi, key=lambda j: -math.comb(n - j, m - j)) - 1
            writer.run(out, rows, col, j)
            stack.append((row, col + j, n - j, m - j, lo, hi))
        elif lo >= top:
            # Rows holding none of the first j columns are the last comb(n - j, m).
            j = bisect_right(range(n - m + 1), lo, key=lambda j: total - math.comb(n - j, m)) - 1
            skip = total - math.comb(n - j, m)
            stack.append((row, col + j, n - j, m, lo - skip, hi - skip))
        else:
            writer.run(out, slice(row, row + top - lo), col, 1)
            stack.append((row, col + 1, n - 1, m - 1, lo, top))
            stack.append((row + top - lo, col + 1, n - 1, m, 0, hi - top))


def _batches(radices: list[int], rows: int) -> Iterator[tuple[int, int, list]]:
    """Batches of ``rows`` consecutive assignments of groups with subset counts ``radices``.

    Assignments are the product of the groups' subsets, the last group
    cycling fastest: a group's digit is the flat assignment index divided by
    the group's stride, modulo its radix. Within one batch those quotients
    are consecutive, so each group's digits cover one cyclic range of at most
    a batch of its subsets (or all of them, which then fit in a batch).
    Yields ``(start, stop, digits)`` with one ``(lo, span, repeats)`` per
    group for :func:`_add_digits`.
    """
    total = math.prod(radices)
    for start in range(0, total, rows):
        stop = min(start + rows, total)
        digits = []
        stride = total
        for radix in radices:
            stride //= radix
            first, last = start // stride, (stop - 1) // stride
            span = min(last + 1 - first, radix)
            repeats = None
            if span < stop - start:
                # Quotient first + j covers `stride` rows, fewer at either end.
                repeats = np.full(last + 1 - first, stride)
                repeats[0] -= start - first * stride
                repeats[-1] -= (last + 1) * stride - stop
            digits.append((first % radix, span, repeats))
        yield start, stop, digits


def _add_digits(out, writer, n: int, m: int, radix: int, lo: int, span: int, repeats) -> None:
    """Add to the rows of ``out`` one group's subsets for its digits in a
    :func:`_batches` batch, with ``writer`` (adding is ``or`` on masks).

    Row j holds digit ``(lo + j) % radix``; with no ``repeats`` those are
    the batch's own rows and are written in place.
    """
    subsets = out if repeats is None else np.zeros((span,) + out.shape[1:], out.dtype)
    _fill_lex(subsets, n, m, lo, min(lo + span, radix), writer)
    if lo + span > radix:
        _fill_lex(subsets[radix - lo :], n, m, 0, lo + span - radix, writer)
    if repeats is not None:
        out += np.repeat(subsets[np.arange(len(repeats)) % radix], repeats, axis=0)


def iter_assignment_chunks(
    table: PotentialOutcomeTable, design: DesignSpec
) -> Iterator[np.ndarray]:
    """Yield every treated mask of the design once, as rows of ``(rows, n)`` matrices.

    Assignments follow the product order of :func:`_batches` over the
    groups of :func:`~blockcalc.pop_model.design_groups`; each group's
    columns of a chunk are written by :func:`_fill_lex` for that chunk
    alone. A matrix holds :func:`chunk_rows` assignments (the last one may
    hold fewer).
    """
    groups, treated = design_groups(design, table)
    # Chunks are built with the groups' columns side by side, in the order of
    # ``pool``, and put back in unit order as they are yielded.
    pool = np.concatenate(groups)
    order = None if (pool == np.arange(table.n)).all() else np.argsort(pool)
    offsets = np.cumsum([0] + [len(units) for units in groups])
    radices = [math.comb(len(units), m) for units, m in zip(groups, treated)]
    writer = _MaskWriter({})
    for start, stop, digits in _batches(radices, chunk_rows(table.n)):
        chunk = np.zeros((stop - start, table.n), dtype=bool)
        for units, m, radix, col, digit in zip(groups, treated, radices, offsets, digits):
            columns = chunk[:, col : col + len(units)]
            _add_digits(columns, writer, len(units), m, radix, *digit)
        yield chunk if order is None else chunk[:, order]


def iter_assignments(
    table: PotentialOutcomeTable, design: DesignSpec
) -> Iterator[np.ndarray]:
    """Yield every treated mask of the design exactly once, one at a time,
    in :func:`iter_assignment_chunks` order."""
    for masks in iter_assignment_chunks(table, design):
        yield from masks


#: Why a statistic is undefined, by (statistic, per block), given the 0-based group.
_UNDEFINED = {
    ("tau_hat", False): lambda k: "an arm is empty",
    ("tau_hat", True): lambda k: f"block {k + 1} has an empty arm",
    ("var_est_cr", False): lambda k: "each arm needs at least 2 units",
    ("var_est_blocked", True): lambda k: (
        f"block {k + 1} has a singleton arm; the blocked variance estimator "
        "needs at least 2 treated and 2 control units per block"
    ),
}


def _raise_undefined(bad: np.ndarray, first: int, reason) -> None:
    """Report the first row of ``bad`` (rows, groups) that holds a True."""
    rows = np.flatnonzero(bad.any(axis=1))
    if rows.size:
        row = int(rows[0])
        group = int(np.flatnonzero(bad[row])[0])
        raise ValueError(f"statistic undefined on assignment #{first + row}: {reason(group)}")


def _centered(table: PotentialOutcomeTable, per_block: bool):
    """Group labels and sizes of a statistic, and both arms' centered outcomes.

    The groups are the blocks when ``per_block`` and otherwise the whole
    table. Each arm is centered on the table's cached means, per block or
    pooled to match. Returns ``(labels, sizes, (x_t, x_c))``.
    """
    st = table.stats
    if per_block:
        labels, sizes = table.labels, st.n_k
    else:
        labels, sizes = np.zeros(table.n, dtype=np.intp), np.array([table.n])
    centered = []
    for y, arm in ((table.y_t, st.t), (table.y_c, st.c)):
        # y - mean is exact near a large offset; the second pass removes the
        # rounding of ``mean`` that the deviations still carry.
        x = y - arm.mean
        x -= arm.dev[labels] if per_block else np.mean(x)
        centered.append(x)
    return labels, sizes, centered


def batch_statistic(
    table: PotentialOutcomeTable,
    design: DesignSpec,
    statistic: str,
    masks: np.ndarray,
    first: int = 0,
) -> np.ndarray:
    """Values of a named statistic on every row of a boolean ``(rows, n)`` mask matrix.

    ``tau_hat`` is the difference in means under complete randomization
    and the size-weighted sum of per-block differences under blocking;
    ``var_est_cr`` is ``s2_c/n_c + s2_t/n_t`` over the whole table and
    ``var_est_blocked`` is ``sum_k (n_k/n)^2 (s2_ck/n_ck + s2_tk/n_tk)``;
    only ``tau_hat`` reads ``design``. Per row and per group (the whole
    table, or each block), arm counts and sums come from a one-hot
    ``(n, groups)`` matrix and arm variances from sums of squares around
    each row's own arm means (two passes).

    Outcomes are first centered on the table's cached means, per block when
    the statistic is computed per block and pooled otherwise, so a large
    common offset cancels before anything is multiplied; ``tau_hat`` adds
    the pooled mean effect back at the end. A row on which the statistic is
    undefined (an empty arm for ``tau_hat``, an arm with fewer than two
    units for the estimators) raises, naming it by ``first`` plus its row.
    """
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}")
    per_block = statistic == "var_est_blocked" or (
        statistic == "tau_hat" and isinstance(design, Blocked)
    )
    labels, sizes, (x_t, x_c) = _centered(table, per_block)
    onehot = np.zeros((table.n, len(sizes)))
    onehot[np.arange(table.n), labels] = 1.0
    treated = masks.astype(float)
    counts_t = treated @ onehot
    counts_c = sizes - counts_t
    need = 1 if statistic == "tau_hat" else 2
    _raise_undefined((counts_t < need) | (counts_c < need), first, _UNDEFINED[statistic, per_block])
    means, variances = [], []
    for x, in_arm, counts in ((x_t, treated, counts_t), (x_c, 1.0 - treated, counts_c)):
        arm_means = (in_arm @ (onehot * x[:, None])) / counts
        means.append(arm_means)
        if statistic != "tau_hat":
            ss = (in_arm * (x - arm_means[:, labels]) ** 2) @ onehot
            variances.append(ss / ((counts - 1) * counts))
    weight = sizes / table.n
    if statistic == "tau_hat":
        return table.stats.tc.mean + (means[0] - means[1]) @ weight
    return (variances[0] + variances[1]) @ weight**2


def _tau_hat_linear(
    table: PotentialOutcomeTable, design: DesignSpec, treated
) -> tuple[float, np.ndarray]:
    """``(c, u)`` with ``tau_hat = c + mask @ u`` on every mask of the design.

    Such a mask treats exactly ``m_k`` (``treated``) of the ``n_k`` units of
    each group ``k``: the whole table under complete randomization, a block
    under blocking. So :func:`batch_statistic`'s arm means are linear in it.
    With ``x`` the outcomes centered as :func:`_centered` centers them and
    ``w_k = n_k / n``, ``u_i = w_k (x_t,i / m_k + x_c,i / (n_k - m_k))`` and
    ``c = tc.mean - sum_k w_k S_ck / (n_k - m_k)``. Here ``S_ck`` is group
    ``k``'s residual sum of centered ``x_c``, kept so that no rounding is
    dropped.
    """
    labels, sizes, (x_t, x_c) = _centered(table, isinstance(design, Blocked))
    treated = np.asarray(treated)
    control = sizes - treated
    weight = sizes / table.n
    u = weight[labels] * (x_t / treated[labels] + x_c / control[labels])
    residual = np.bincount(labels, x_c, minlength=len(sizes))
    return table.stats.tc.mean - weight @ (residual / control), u


def enumerate_statistic(
    table: PotentialOutcomeTable, design: DesignSpec, statistic: str
) -> tuple[np.ndarray, int]:
    """A named statistic on every assignment, in enumeration order, and the batch count.

    Both paths work in the :func:`chunk_rows` batches of
    :func:`iter_assignment_chunks`. The estimators are :func:`batch_statistic`
    on its masks. ``tau_hat`` builds no mask: every group adds its subset
    sums of :func:`_tau_hat_linear`'s ``u`` to a batch of ``values`` in place
    through a :class:`_SumWriter`, then the batch adds ``c``.
    """
    if statistic != "tau_hat":
        values = np.empty(count_assignments(design, table))
        start = chunks = 0
        for masks in iter_assignment_chunks(table, design):
            stop = start + len(masks)
            values[start:stop] = batch_statistic(table, design, statistic, masks, first=start)
            start = stop
            chunks += 1
        assert start == len(values)
        return values, chunks
    groups, treated = design_groups(design, table)
    c, u = _tau_hat_linear(table, design, treated)
    radices = [math.comb(len(units), m) for units, m in zip(groups, treated)]
    tables: dict = {}
    writers = [_SumWriter(u[units], tables) for units in groups]
    values = np.zeros(math.prod(radices))
    chunks = 0
    for start, stop, digits in _batches(radices, chunk_rows(table.n)):
        out = values[start:stop]
        for units, m, radix, writer, digit in zip(groups, treated, radices, writers, digits):
            _add_digits(out, writer, len(units), m, radix, *digit)
        out += c
        chunks += 1
    return values, chunks


def resolve_statistic(statistic, design: DesignSpec) -> Statistic:
    """Map a statistic name (or callable) to ``(table, mask) -> float``.

    A name becomes a one-row call of :func:`batch_statistic`.
    """
    if callable(statistic):
        return statistic
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}")
    return lambda table, mask: float(batch_statistic(table, design, statistic, mask[None, :])[0])


@dataclass(frozen=True)
class ExactMoments:
    mean: float
    variance: float
    count: int
    #: Batches of :func:`chunk_rows` assignments evaluated, as mask matrices
    #: or as ``tau_hat`` subset sums (0 when a callable saw one mask at a time).
    chunks: int = 0


def exact_moments(
    table: PotentialOutcomeTable,
    design: DesignSpec,
    statistic="tau_hat",
    cap: int = DEFAULT_CAP,
) -> ExactMoments:
    """Exact mean and population variance of a statistic over all assignments.

    Named statistics are evaluated in batches by :func:`enumerate_statistic`;
    a callable is called once per mask. The statistic must be defined for
    every assignment of the design; otherwise the offending assignment index
    is reported. Values are collected into one array and reduced with
    pairwise summation, keeping 1e-12 scale comparisons honest at the cap.
    """
    total = count_assignments(design, table)
    if total > cap:
        raise ValueError(f"{total} assignments exceed the enumeration cap {cap}")
    if callable(statistic):
        fn = resolve_statistic(statistic, design)
        values = np.empty(total, dtype=float)
        i = -1
        for i, mask in enumerate(iter_assignments(table, design)):
            try:
                values[i] = fn(table, mask)
            except ValueError as err:
                raise ValueError(f"statistic undefined on assignment #{i}: {err}") from err
        assert i + 1 == total
        chunks = 0
    else:
        values, chunks = enumerate_statistic(table, design, statistic)
    return ExactMoments(
        mean=float(np.mean(values)),
        variance=float(np.var(values)),
        count=total,
        chunks=chunks,
    )
