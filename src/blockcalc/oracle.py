"""Exact ground truth by enumerating every treatment assignment of a design.

Every closed-form variance in this package is validated against these
enumerations. Every design is enumerated as the product of the subsets of
its groups from :func:`~blockcalc.pop_model.design_groups` (complete
randomization is one group of every unit, blocking one group per block).
Assignments are visited in lexicographic order of each group's treated
index combinations, the last group cycling fastest, which makes the
traversal deterministic and shardable.

One exact path serves every named statistic in :func:`exact_moments`: it
is computed from sums over the design's groups, which evaluate ``sum_k
comb(n_k, m_k)`` subsets and never form their product (three 9-unit blocks,
4 treated each: 2,000,376 assignments, 378 subsets). Masks serve only
callables: :func:`iter_assignments` yields them one at a time, and
:func:`population_moments` reduces the values. Drawn masks, such as the
estimator Monte Carlo's, are scored by the one mask kernel,
:func:`stacked_statistic`, for a stack of tables at once;
:func:`batch_statistic` is its one-table call.

* **Group vectors.** ``tau_hat`` under any design, ``var_est_cr`` under
  complete randomization and ``var_est_blocked`` under blocking are sums
  over the design's groups of a term on each group's own subset, plus a
  constant ``c`` for ``tau_hat``. Each group's terms over its own subsets,
  in lexicographic order, are added into one vector ``v_k``
  (:func:`_group_vectors`). The groups are randomized independently, so
  the statistic's mean is ``c + sum_k mean(v_k)`` and its variance ``sum_k
  var(v_k)`` (Cochran, *Sampling Techniques*, 1977, on a stratified
  estimator); their moments are added with ``math.fsum``. All three take
  their terms from one kernel, :func:`_lex_sums`: the sums of ``w`` rows of
  unit values ``u`` over a group's size-``m`` subsets of units, in
  lexicographic order, built by ``S(j, r) = [u_j + S(j+1, r-1), S(j+1,
  r)]``. In a design of several groups, a group whose masks fit in
  :data:`CHUNK_CELLS` cells is one product with its boolean table, which
  blocks of one shape share. A larger one is split at the smallest
  prefix depth ``d`` whose suffix vectors ``S(d, r)`` fit in
  :data:`CHUNK_CELLS` floats: lexicographic order of combinations is
  descending order of their indicator vectors, so each pattern ``P`` of the
  first ``d`` units, in that order, adds the piece ``fsum(u[P]) + S(d, m -
  |P|)``.

  - ``tau_hat`` is ``c + mask @ u`` on the design's masks
    (:func:`_tau_hat_linear`), so its terms are the subset sums of one row.
  - An estimator's term on a group of ``n`` of the table's ``N`` units,
    ``m`` of them treated, is ``(n/N)^2 (SS_T / (m (m-1)) + SS_C / ((n-m)
    (n-m-1)))`` with ``T`` and ``C`` the arms (``n = N`` under complete
    randomization). ``SS_T = sum_T x^2 - (sum_T x)^2 / m`` depends on ``T`` only
    through two sums of the arm's outcomes ``x``, centered by
    :func:`_centered` (pooled for ``var_est_cr``, per block for
    ``var_est_blocked``). The treated arm is one stream ``(x_t, x_t^2)``
    over the size-``m`` subsets. The control arm is its own stream ``(x_c,
    x_c^2)`` over the size-``(n - m)`` subsets, which are the complements
    in reverse lexicographic order, so each control piece is added reversed
    at ``comb(n, m) - start - len``. Control sums are not taken as totals
    minus treated sums: with 198 of 200 units treated that form was off by
    up to 260 times ``2^-53`` of the largest value, the complement stream
    by under 5 times. Arms of equal size share one four-row stream.
  - **Rounding bound.** Let ``eps = 2^-53`` and ``Q = sum x^2`` over one
    arm's outcomes in the group, so ``sum x`` is about 0. Every subset sum
    of ``m`` units rounds at most ``m - 1`` times, each time a partial sum
    over part of ``T`` (the table product adds its zeros exactly, and an
    ``fsum`` rounds once). So the computed ``sum_T x^2`` is off by at most
    ``m eps Q``, squares included. By Cauchy-Schwarz, ``(sum_T |x|)^2 <= m sum_T
    x^2``, so the error of ``sum_T x`` moves ``(sum_T x)^2 / m`` by at most
    ``2 (m - 1) eps Q``. With the square, the division and the subtraction,
    ``SS_T`` is off by at most ``(3m + 1) eps Q``. The largest ``SS_T`` is at
    least its mean over the subsets, ``(m - 1) / (n - 1) Q``, so each arm's
    term is within ``(3m + 1)(n - 1) / (m - 1) eps <= 7 (n - 1) eps`` of its
    largest value when ``m >= 2``. Every entry of a group's vector is
    therefore within ``14 (n - 1) eps`` times the vector's largest entry of
    its exact value, ``n`` the group's size, beside one rounding of each
    term's scale and sum. At ``n = 200`` that is 3.1e-13.
    The bound also covers the Monte Carlo: :func:`stacked_statistic` takes
    each drawn arm's ``SS_T`` from the same sums of the same centered
    outcomes, each a product with a one-hot matrix that adds the arm's
    terms, in any order, and zeros, as ``sum_T x^2 - sum_T x (sum_T x /
    m)`` (:func:`_sum_of_squares`: a product for the square, so it is
    finite wherever ``m`` times the largest square is, and raised to 0
    where rounding leaves it below). So each group's term of every drawn
    value is within ``14 (n - 1) eps`` times the largest term over the
    group's subsets of its exact value. That bound is absolute: on an arm
    far from the center compared with its own spread, such as one that
    leaves out an outlier, a drawn term keeps fewer digits than the bound's
    scale.
    The run that leaves one unit out of an ``fsum`` rounds twice over ``m +
    1`` units, at most ``(10 + 1/sqrt(m)) eps Q``; while :data:`CHUNK_CELLS`
    is at least ``8 w`` it serves only ``m >= 3``, within the same bound.
* **Group cumulants.** ``var_est_cr`` under blocking, the paper's
  misapplied estimator, pools each arm over the blocks, so it is no sum of
  per-block terms but a quadratic in three such sums. Their joint cumulants
  up to order 4 add over the blocks and give its moments
  (:func:`_misapplied_moments`).
* ``var_est_blocked`` under complete randomization of two or more blocks is
  refused up front. Block ``k``'s treated count runs over ``[max(0, n_t - n
  + n_k), min(n_k, n_t)]``, and keeping it within ``[2, n_k - 2]`` for
  every block needs every ``n_k >= n/2 + 2``, which two blocks cannot meet.
  With one block it is ``var_est_cr``'s group vector.

A group-vector enumeration holds its ``sum_k comb(n_k, m_k)`` floats, about
:data:`CHUNK_CELLS` floats of suffix sums and one piece; a cumulant one a few
vectors of one block; a callable's its values and one chunk of masks. The
mask kernel holds, beside its masks and values, one float buffer of at most
``4 CHUNK_CELLS`` cells or one table's masks. A mean or variance that
overflows float64 ends in one ``ValueError``, unwarned.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .pop_model import (
    ArmStats,
    Blocked,
    DesignSpec,
    PotentialOutcomeTable,
    centered_moments,
    design_groups,
)

#: Default enumeration cap. Near it (CR 12 of 25, 2 cores) a named statistic took 0.03-0.25 s,
#: and a callable 1.2-1.7 us a mask beside its own cost (about 45 us for a one-mask kernel).
DEFAULT_CAP = 10_000_000

#: Mask cells (rows times units) per batch, and floats of one group's
#: vectors held at once. Every batch allocates a few float arrays of this
#: many cells, so this bounds the memory an enumeration adds whatever its
#: assignment count.
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


def _treated_units(groups: list[tuple[list, int]]) -> Iterator[tuple]:
    """The treated units of every assignment of ``(units, m)`` groups, one
    ``itertools.combinations`` subset of each, the last group cycling
    fastest. Each group's combinations restart when they run out, so none
    is held whole (``itertools.product`` holds 93 MiB for 11 of 22 units).
    """
    runs = [itertools.combinations(*group) for group in groups]
    held = [next(run) for run in runs]
    while True:
        yield tuple(itertools.chain.from_iterable(held))
        k = len(runs) - 1
        while (subset := next(runs[k], None)) is None:
            if k == 0:
                return
            runs[k] = itertools.combinations(*groups[k])
            held[k] = next(runs[k])
            k -= 1
        held[k] = subset


def iter_assignments(
    table: PotentialOutcomeTable, design: DesignSpec
) -> Iterator[np.ndarray]:
    """Yield every treated mask of the design exactly once, one at a time,
    in the order of :func:`_treated_units` over the groups of
    :func:`~blockcalc.pop_model.design_groups`, built :func:`chunk_rows`
    masks at a time."""
    groups, treated = design_groups(design, table)
    subsets = _treated_units([(units.tolist(), m) for units, m in zip(groups, treated)])
    width = sum(treated)
    while chunk := list(itertools.islice(subsets, chunk_rows(table.n))):
        masks = np.zeros((len(chunk), table.n), dtype=bool)
        chosen = np.fromiter(itertools.chain.from_iterable(chunk), np.intp, len(chunk) * width)
        masks[np.arange(len(chunk)).repeat(width), chosen] = True
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
    """Report the first row of ``bad`` (rows, groups) that holds a True, or
    of the first table that holds one in a ``(tables, rows, groups)`` stack."""
    hits = np.argwhere(bad)
    if hits.size:
        *_, row, group = hits[0].tolist()
        raise ValueError(f"statistic undefined on assignment #{first + row}: {reason(group)}")


def _center(y: np.ndarray, arm: ArmStats, labels: np.ndarray, per_block: bool) -> np.ndarray:
    """``y`` centered on ``arm``'s mean, then per block on its block means
    ``dev`` or pooled on its own mean. ``y`` is one table's outcomes, or a
    ``(tables, n)`` stack with ``arm`` the stack's moments."""
    # y - mean is exact near a large offset; the second pass removes the
    # rounding of ``mean`` that the deviations still carry.
    x = y - np.asarray(arm.mean)[..., None]
    x -= arm.dev[..., labels] if per_block else np.mean(x, axis=-1, keepdims=True)
    return x


def _groups(table: PotentialOutcomeTable, per_block: bool) -> tuple[np.ndarray, np.ndarray]:
    """A statistic's group labels and sizes: the blocks when ``per_block``,
    otherwise one group of the whole table."""
    if per_block:
        return table.labels, table.block_sizes
    return np.zeros(table.n, dtype=np.intp), np.array([table.n])


def _centered(table: PotentialOutcomeTable, per_block: bool):
    """Group labels and sizes of a statistic, and both arms' centered outcomes.

    The groups are the blocks when ``per_block`` and otherwise the whole
    table. Each arm is centered on the table's cached means, per block or
    pooled to match. Returns ``(labels, sizes, (x_t, x_c))``.
    """
    st = table.stats
    arms = ((table.y_t, st.t), (table.y_c, st.c))
    return *_groups(table, per_block), [_center(y, arm, table.labels, per_block) for y, arm in arms]


def centered_stack(tables, per_block: bool):
    """:func:`_centered` of tables that share one block labelling, each arm
    a ``(tables, n)`` stack centered from one
    :func:`~blockcalc.pop_model.centered_moments` call, so no table's
    cached ``stats`` is built. Row ``p`` holds the bits that
    :func:`_centered` gives table ``p``."""
    first = tables[0]
    centered = []
    for arm in ("y_t", "y_c"):
        y = np.stack([getattr(table, arm) for table in tables])
        moments = centered_moments(y, first.labels, first.block_sizes)
        centered.append(_center(y, moments, first.labels, per_block))
    return *_groups(first, per_block), centered


def _sum_of_squares(s1, s2, size):
    """An arm's centered sum of squares from its sums ``s1 = sum x`` and
    ``s2 = sum x^2`` over ``size`` units, never below 0. ``s1 * (s1 /
    size)`` stays within ``size`` times the largest square where ``s1**2``
    can overflow."""
    return np.maximum(s2 - s1 * (s1 / size), 0.0)


def stacked_statistic(
    statistic: str, per_block: bool, centered, masks: np.ndarray, first: int = 0
) -> np.ndarray:
    """A named statistic, ``tau_hat`` less the pooled mean effect, on every
    row of ``(tables, rows, n)`` boolean masks, table ``p`` scored on its
    own outcomes: the kernel behind :func:`batch_statistic` and the
    estimator Monte Carlo of
    :func:`~blockcalc.variance_estimation.varest_variabilities`.

    ``centered`` is ``(labels, sizes, (x_t, x_c))`` with each arm's centered
    outcomes a ``(tables, n)`` stack: :func:`centered_stack` of ``tables``,
    or :func:`_centered` of one table with each arm as one row. Per table,
    row and group, the arm counts and the arm sums ``sum x`` and, for the
    estimators, ``sum x^2`` are products with one shared one-hot ``(n,
    groups)`` matrix, and each arm's sum of squares is
    :func:`_sum_of_squares`, within the rounding bound of the module
    docstring. The tables are scored in turn, as many at once as keep the
    products within ``4 CHUNK_CELLS`` mask cells (or one table), so the one
    float buffer does not grow with the stack. Each table's products are
    their own matrix products, so a stack of tables gives the bits of one
    call per table. A row on which the statistic is undefined raises,
    naming it by ``first`` plus its row in the first table that holds one.
    """
    labels, sizes, (x_t, x_c) = centered
    onehot = np.zeros((len(labels), len(sizes)))
    onehot[np.arange(len(labels)), labels] = 1.0
    need = 1 if statistic == "tau_hat" else 2
    weight = sizes / len(labels)
    values = np.empty(masks.shape[:2])
    step = max(1, 4 * CHUNK_CELLS // max(1, masks[0].size))
    buffer = np.empty((min(step, len(masks)), *masks.shape[1:]))
    for lo in range(0, len(masks), step):
        part = masks[lo:lo + step]
        # The masks as floats, then each arm's products in turn: one buffer.
        terms = buffer[:len(part)]
        terms[...] = part
        counts_t = terms @ onehot
        counts_c = sizes - counts_t
        bad = (counts_t < need) | (counts_c < need)
        _raise_undefined(bad, first, _UNDEFINED[statistic, per_block])
        arms = []
        for in_arm, x, counts in ((part, x_t, counts_t), (~part, x_c, counts_c)):
            x = x[lo:lo + step, None, :]
            s1 = np.multiply(in_arm, x, out=terms) @ onehot
            if statistic == "tau_hat":
                arms.append(s1 / counts)
            else:
                s2 = np.multiply(terms, x, out=terms) @ onehot
                arms.append(_sum_of_squares(s1, s2, counts) / ((counts - 1) * counts))
        if statistic == "tau_hat":
            values[lo:lo + step] = (arms[0] - arms[1]) @ weight
        else:
            values[lo:lo + step] = (arms[0] + arms[1]) @ weight**2
    return values


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
    only ``tau_hat`` reads ``design``. This is the one-table call of
    :func:`stacked_statistic`.

    Outcomes are first centered on the table's cached means, per block when
    the statistic is computed per block and pooled otherwise, so a large
    common offset cancels before anything is multiplied; ``tau_hat`` adds
    the pooled mean effect back at the end. A row on which the statistic is
    undefined (an empty arm for ``tau_hat``, an arm with fewer than two
    units for the estimators) raises, naming it by ``first`` plus its row.
    An estimator's value is never below 0 and is within the module
    docstring's rounding bound, which scales with the group's largest term:
    a row whose arm sits far from the center compared with its own spread,
    such as one that leaves out an outlier, keeps fewer digits.
    """
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}")
    per_block = statistic == "var_est_blocked" or (
        statistic == "tau_hat" and isinstance(design, Blocked)
    )
    labels, sizes, arms = _centered(table, per_block)
    centered = labels, sizes, [x[None] for x in arms]
    masks = np.asarray(masks, dtype=bool)[None]
    values = stacked_statistic(statistic, per_block, centered, masks, first)[0]
    return table.stats.tc.mean + values if statistic == "tau_hat" else values


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


def _suffix_sums(u: np.ndarray, m: int, d: int) -> dict:
    """``S(d, r)`` by ``r``: the sums of the units ``d..n-1`` of ``u`` over
    each size-``r`` subset in lexicographic order, for every ``r`` that a
    size-``m`` subset of the ``n`` units leaves after its first ``d``.

    ``u`` holds the units on its last axis, as :func:`_lex_sums` takes it,
    and so do the sums. Built from ``S(n, 0) = [0]`` by the split that
    subsets holding the first unit come first, ``S(j, r) = [u_j + S(j+1,
    r-1), S(j+1, r)]``, for ``j`` from ``n - 1`` down to ``d``. ``S(j+1,
    r)`` is the tail of ``S(j, r)``, so each ``r`` has one buffer, sized for
    the shallowest depth that needs it and filled from its end: depth ``j``
    writes only its ``u_j`` entries. A buffer is dropped once no shallower
    depth reads it.
    """
    n = u.shape[-1]
    sums = {0: np.zeros(u.shape[:-1] + (1,))}
    for j in range(n - 1, d - 1, -1):
        u_j = u[..., j : j + 1]
        for r in range(max(1, m - j), min(m, n - j) + 1):
            if r not in sums:
                sums[r] = np.empty(u.shape[:-1] + (math.comb(n - max(d, m - r), r),))
            head, below, out = math.comb(n - j - 1, r - 1), sums[r - 1], sums[r]
            col = out.shape[-1] - math.comb(n - j, r)
            np.add(u_j, below[..., below.shape[-1] - head :], out=out[..., col : col + head])
        # Depth j - 1 reads sums of no fewer than m - j units.
        sums.pop(m - j - 1, None)
    return sums


def _lex_sums(u: np.ndarray, m: int, tables: dict | None) -> Iterator[tuple[int, np.ndarray]]:
    """The sums of ``u`` over the size-``m`` subsets of its ``n`` units in
    lexicographic order, as ``(first index, piece)`` runs that together
    cover them once.

    ``u`` is one row of ``n`` values per unit, or a ``(w, n)`` matrix of
    ``w`` rows, and each piece has the same rows. Given a ``tables`` memo
    (a design of several groups, whose blocks of one shape share it), a
    group with two or more units in and out of the subset whose masks fit
    in :data:`CHUNK_CELLS` cells is one product with its :func:`_lex_table`.
    Any other group has its first ``d`` units split off, ``d`` the fewest
    whose suffix vectors :func:`_suffix_sums` fit in :data:`CHUNK_CELLS`
    floats, ``w`` per subset. Lexicographic order of combinations is
    descending order of their indicator vectors, so the sums are, for each
    pattern ``P`` of the first ``d`` units in descending indicator order,
    ``fsum(u[P]) + S(d, m - |P|)``, one ``math.fsum`` per row. The patterns
    come from an explicit-stack descent that visits only those a size-``m``
    subset can start with. It stops early where one unit of ``u[j:]`` is left to
    choose, a run of ``fsum(u[P]) + u[j:]``, or one to leave out, a run of
    the ``fsum`` of ``u[P]`` and ``u[j:]`` minus ``u[j:]`` reversed, so the
    deep split of a group with few treated or few control units makes no
    piece per subset. Beyond its table, a group holds about
    :data:`CHUNK_CELLS` floats of suffix sums and one piece at a time.
    """
    n = u.shape[-1]
    w = u.size // n
    if tables is not None and 1 < m < n - 1 and math.comb(n, m) * n <= CHUNK_CELLS:
        yield 0, u @ _lex_table(n, m, tables).T
        return
    d = next(
        d
        for d in range(n + 1)
        if w * sum(math.comb(n - d, r) for r in range(max(0, m - d), min(m, n - d) + 1))
        <= CHUNK_CELLS
    )
    # Each unit's value, or its column of w values.
    units = u.T.tolist()

    def fsum_rows(held: tuple):
        return np.array([math.fsum(row) for row in zip(*held)])[:, None] if held else 0.0

    # math.fsum is exact, and far cheaper than numpy for a few terms.
    fsum = math.fsum if u.ndim == 1 else fsum_rows

    # With one unit chosen or one left out, the whole group is one run below.
    suffix = _suffix_sums(u, m, d) if 1 < m < n - 1 else None
    stack = [(0, m, 0, ())]
    while stack:
        j, r, start, held = stack.pop()
        if r == 1:
            # One unit left to choose, each of u[j:] in turn.
            yield start, fsum(held) + u[..., j:]
        elif r == n - j - 1:
            # One unit left out, the last one first.
            yield start, fsum(held + tuple(units[j:])) - u[..., j:][..., ::-1]
        elif j == d:
            yield start, fsum(held) + suffix[r]
        else:
            # Subsets holding unit j come first, comb(n - j - 1, r - 1) of them.
            stack.append((j + 1, r, start + math.comb(n - j - 1, r - 1), held))
            stack.append((j + 1, r - 1, start, held + (units[j],)))


def _arm_sums(
    x_t: np.ndarray, x_c: np.ndarray, m: int, tables: dict | None
) -> Iterator[tuple[int, bool, np.ndarray]]:
    """Each arm's rows ``(sum x, sum x^2)`` of its centered outcomes ``x_t``
    or ``x_c`` on every size-``m`` treated subset of a group's ``n`` units in
    lexicographic order, as ``(first index, control, piece)`` runs that
    together cover both arms once: :func:`_lex_sums` streams, the control
    arm's over the complements, laid out as the module docstring says.
    """
    n = len(x_t)
    radix = math.comb(n, m)
    streams: dict = {}
    for x, size, control in ((x_t, m, False), (x_c, n - m, True)):
        streams.setdefault(size, []).append((x, control))
    for size, arms in streams.items():
        rows = np.array([row for x, _ in arms for row in (x, x * x)])
        for start, sums in _lex_sums(rows, size, tables):
            for (_, control), piece in zip(arms, sums.reshape(len(arms), 2, -1)):
                if control:
                    yield radix - start - piece.shape[1], True, piece[:, ::-1]
                else:
                    yield start, False, piece


def _group_vectors(
    table: PotentialOutcomeTable, design: DesignSpec, statistic: str
) -> tuple[float, list[np.ndarray]]:
    """A statistic that sums over the design's groups, as ``(c, vectors)``.

    ``vectors[k]`` holds group ``k``'s terms over its own subsets in
    lexicographic order, so the statistic on the assignment that takes
    subset ``i_k`` of every group ``k`` is ``c + sum_k vectors[k][i_k]``.
    ``tau_hat``'s terms are the group's :func:`_lex_sums` of ``u`` and its
    ``c`` comes from :func:`_tau_hat_linear`. An estimator's ``c`` is 0 and
    its term ``(n_k/n)^2 (SS_T / (m (m - 1)) + SS_C / ((n_k - m) (n_k - m -
    1)))``, with each arm's ``SS = sum x^2 - (sum x)^2 / size`` from
    :func:`_arm_sums`. Each group's runs are added into one zeroed vector,
    so the design holds ``sum_k comb(n_k, m_k)`` floats whatever its
    assignment count.
    """
    groups, treated = design_groups(design, table)
    # Building a group's mask table costs about as much as its suffix sums,
    # so it pays only when blocks of one shape share it.
    tables = {} if len(groups) > 1 else None
    if statistic == "tau_hat":
        c, u = _tau_hat_linear(table, design, treated)
        terms = [_lex_sums(u[units], m, tables) for units, m in zip(groups, treated)]
    else:
        per_block = statistic == "var_est_blocked"
        bad = [[min(m, len(units) - m) < 2 for units, m in zip(groups, treated)]]
        _raise_undefined(np.array(bad), 0, _UNDEFINED[statistic, per_block])
        c = 0.0
        _, _, (x_t, x_c) = _centered(table, per_block)

        def estimator_terms(units, m):
            weight = (len(units) / table.n) ** 2
            for start, control, (s1, s2) in _arm_sums(x_t[units], x_c[units], m, tables):
                size = len(units) - m if control else m
                yield start, (s2 - s1**2 / size) * (weight / (size * (size - 1)))

        terms = [estimator_terms(units, m) for units, m in zip(groups, treated)]
    vectors = []
    for units, m, pieces in zip(groups, treated, terms):
        vector = np.zeros(math.comb(len(units), m))
        for start, piece in pieces:
            vector[start : start + len(piece)] += piece
        vectors.append(vector)
    return float(c), vectors


def _misapplied_moments(table: PotentialOutcomeTable, design: Blocked) -> tuple[float, float]:
    """Mean and variance of ``var_est_cr`` over a blocked design's assignments.

    On pooled-centered outcomes the estimator is ``l - a B^2 - g D^2``: ``B``
    and ``D`` sum the treated and control outcomes, ``l = alpha sum_T x_t^2 +
    gamma sum_C x_c^2`` with ``alpha = 1 / (n_t (n_t - 1))``, ``gamma`` alike,
    ``a = alpha / n_t`` and ``g = gamma / n_c``. Each block adds its vectors
    of ``l_k``, ``B_k`` and ``D_k`` from :func:`_arm_sums` over its subsets,
    and its joint cumulants to those of ``(l, B, D)`` (Kendall & Stuart, *The
    Advanced Theory of Statistics*, vol. 1): the central moments of orders 2
    and 3 and, with ``b``, ``d`` the centered ``B_k``, ``D_k``, ``k_BBBB =
    E[b^4] - 3 E[b^2]^2``, ``k_DDDD`` alike and ``k_BBDD = E[b^2 d^2] - E[b^2]
    E[d^2] - 2 E[bd]^2``. Then::

        mean = mu_l - a (k_BB + mu_B^2) - g (k_DD + mu_D^2)
        Var = k_ll + a^2 V(B^2) + g^2 V(D^2) - 2a C(l, B^2) - 2g C(l, D^2)
              + 2ag C(B^2, D^2)
        V(B^2) = k_BBBB + 4 mu_B k_BBB + 4 mu_B^2 k_BB + 2 k_BB^2
        C(l, B^2) = k_lBB + 2 mu_B k_lB
        C(B^2, D^2) = k_BBDD + 2 mu_D k_BBD + 2 mu_B k_BDD + 4 mu_B mu_D k_BD + 2 k_BD^2
    """
    groups, treated = design_groups(design, table)
    n_t = sum(treated)
    n_c = table.n - n_t
    _raise_undefined(np.array([[min(n_t, n_c) < 2]]), 0, _UNDEFINED["var_est_cr", False])
    alpha, gamma = 1 / (n_t * (n_t - 1)), 1 / (n_c * (n_c - 1))
    _, _, (x_t, x_c) = _centered(table, False)
    tables = {} if len(groups) > 1 else None
    per_group = []
    for units, m in zip(groups, treated):
        l, b, d = vectors = np.zeros((3, math.comb(len(units), m)))
        for start, control, (s1, s2) in _arm_sums(x_t[units], x_c[units], m, tables):
            (d if control else b)[start : start + len(s1)] += s1
            l[start : start + len(s1)] += (gamma if control else alpha) * s2
        means = vectors.mean(axis=1)
        vectors -= means[:, None]
        # Products are summed over fixed blocks, as population_moments sums
        # squares, so a large block holds its three vectors and little more.
        sums = []
        for lo in range(0, vectors.shape[1], _MOMENT_BLOCK):
            l, b, d = vectors[:, lo : lo + _MOMENT_BLOCK]
            b2, d2 = b * b, d * d
            pairs = [(l, l), (l, b), (l, d), (b, b), (d, d), (b, d), (l, b2), (l, d2), (b2, b),
                     (d2, d), (b2, d), (b, d2), (b2, b2), (d2, d2), (b2, d2)]
            sums.append([float(np.sum(x * y)) for x, y in pairs])
        *moments, b4, d4, b2d2 = [_total(column) / vectors.shape[1] for column in zip(*sums)]
        k_bb, k_dd, k_bd = moments[3:6]
        fourth = (b4 - 3 * k_bb * k_bb, d4 - 3 * k_dd * k_dd, b2d2 - k_bb * k_dd - 2 * k_bd * k_bd)
        per_group.append((*means.tolist(), *moments, *fourth))
    mu_l, mu_b, mu_d, ll, lb, ld, bb, dd, bd, lbb, ldd, bbb, ddd, bbd, bdd, bbbb, dddd, bbdd = (
        map(_total, zip(*per_group))
    )
    a, g = alpha / n_t, gamma / n_c
    var_b2 = bbbb + 4 * mu_b * bbb + 4 * mu_b * mu_b * bb + 2 * bb * bb
    var_d2 = dddd + 4 * mu_d * ddd + 4 * mu_d * mu_d * dd + 2 * dd * dd
    cov_b2d2 = bbdd + 2 * mu_d * bbd + 2 * mu_b * bdd + 4 * mu_b * mu_d * bd + 2 * bd * bd
    mean = mu_l - a * (bb + mu_b * mu_b) - g * (dd + mu_d * mu_d)
    variance = (
        ll + a * a * var_b2 + g * g * var_d2 - 2 * a * (lbb + 2 * mu_b * lb)
        - 2 * g * (ldd + 2 * mu_d * ld) + 2 * a * g * cov_b2d2
    )
    return mean, variance


def _total(values) -> float:
    """``math.fsum``, or inf where it raises on overflow or on ``inf - inf``."""
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        return math.inf


#: Values per block of :func:`population_moments`' sum of squares.
_MOMENT_BLOCK = 1 << 14


def population_moments(values: np.ndarray) -> tuple[float, float]:
    """Mean and population variance of ``values`` in two passes.

    The mean is numpy's pairwise sum; the squared deviations from it are
    summed in fixed blocks of :data:`_MOMENT_BLOCK` values, and the block
    sums with ``math.fsum``, so no full-size temporary is made and the
    rounding does not depend on how the values were computed.
    """
    mean = np.mean(values)
    sums = []
    for lo in range(0, len(values), _MOMENT_BLOCK):
        deviations = values[lo : lo + _MOMENT_BLOCK] - mean
        sums.append(float(np.sum(np.square(deviations, out=deviations))))
    return float(mean), math.fsum(sums) / len(values)


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
    #: The work ``cap`` bounds: the ``sum_k comb(n_k, m_k)`` group subsets a
    #: named statistic's terms are evaluated on, or a callable's ``count``.
    evaluated: int


def exact_moments(
    table: PotentialOutcomeTable,
    design: DesignSpec,
    statistic="tau_hat",
    cap: int = DEFAULT_CAP,
) -> ExactMoments:
    """Exact mean and population variance of a statistic over all assignments.

    ``cap`` bounds :attr:`ExactMoments.evaluated`. The statistic must be
    defined for every assignment of the design; otherwise the offending
    assignment index is reported.
    """
    if not callable(statistic) and statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}")
    subsets = [math.comb(len(units), m) for units, m in zip(*design_groups(design, table))]
    total = math.prod(subsets)
    evaluated = total if callable(statistic) else sum(subsets)
    if evaluated > cap:
        of = "" if evaluated == total else f"{evaluated} group subsets of "
        raise ValueError(f"{of}{total} assignments exceed the enumeration cap {cap}")
    blocked = isinstance(design, Blocked)
    if statistic == "var_est_blocked" and not blocked and table.num_blocks > 1:
        raise ValueError(
            f"var_est_blocked is undefined under complete randomization of {table.num_blocks} "
            "blocks: some assignment leaves a block with fewer than 2 units in an arm"
        )
    if callable(statistic):
        values = np.empty(total)
        i = -1
        for i, mask in enumerate(iter_assignments(table, design)):
            try:
                values[i] = statistic(table, mask)
            except ValueError as err:
                raise ValueError(f"statistic undefined on assignment #{i}: {err}") from err
        assert i + 1 == total
        with np.errstate(over="ignore", invalid="ignore"):
            mean, variance = population_moments(values)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            if statistic == "var_est_cr" and blocked:
                mean, variance = _misapplied_moments(table, design)
            else:
                c, vectors = _group_vectors(table, design, statistic)
                means, variances = zip(*map(population_moments, vectors))
                mean, variance = c + _total(means), _total(variances)
    require_finite_moments("the statistic's" if callable(statistic) else statistic, mean, variance)
    return ExactMoments(mean, variance, total, evaluated)


def require_finite_moments(name: str, mean: float, variance: float) -> None:
    """Refuse a statistic's mean or variance that overflowed float64 (inf or nan)."""
    if not (math.isfinite(mean) and math.isfinite(variance)):
        raise ValueError(
            f"{name} moments overflow float64 (mean {mean:.3g}, variance {variance:.3g}): "
            "the outcomes are too large"
        )
