"""Closed-form design variances and variance differences, plus two
expectation-form differences evaluated by Monte Carlo.

Notation, for a table summarized per block ``k``:

* ``S2_tk, S2_ck`` sample variances of the potential outcomes in block ``k``
  (``n_k - 1`` divisor), ``S2_tck`` the sample variance of unit effects;
* ``var(tau_hat_k) = S2_tk/n_tk + S2_ck/n_ck - S2_tck/n_k``, the exact
  randomization variance of the block's difference in means;
* ``var_k(x, w)`` the weighted between-block variance
  ``sum_k w_k (x_k - sum_j w_j x_j)^2`` with block-share weights
  ``w_k = n_k / n``.

Superpopulation operations consume :class:`~blockcalc.pop_model.StrataMoments`
with per-stratum means ``mu(z,k)`` and variances ``sigma2(z,k)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import mc
from .pop_model import (
    Blocked,
    PotentialOutcomeTable,
    StrataMoments,
    WEIGHT_ATOL,
    blocked_design_for_proportion,
    table_from_arrays,
    validate_design,
)

FRAMEWORK_FINITE = "finite"
FRAMEWORK_SRS = "srs"
FRAMEWORK_STRATIFIED = "stratified"
FRAMEWORK_SITE = "site-sampling"
FRAMEWORK_TWO_STAGE = "two-stage"
FRAMEWORK_MIXED = "mixed"

MODE_CR_SRS_VS_BK_STRAT = "cr_srs_vs_bk_strat"
MODE_CR_SRS_VS_CR_STRAT = "cr_srs_vs_cr_strat"

#: Default replication count for the Monte Carlo operations.
DEFAULT_REPS = 10_000


@dataclass(frozen=True)
class VarianceReport:
    """A variance comparison between complete randomization and blocking.

    ``diff`` is stored rather than derived because several operations
    compute it from a decomposition; construction checks it agrees with
    ``var_cr - var_bk`` to 1e-12 (relative). ``ratio`` is ``None`` when
    ``var_cr`` is zero. For Monte Carlo frameworks the fields are averages
    over draws and ``mc_se`` is the standard error of ``diff``.
    """

    framework: str
    var_cr: float
    var_bk: float
    diff: float
    decomposition: dict[str, float] | None = None
    mc_se: float | None = None
    reps: int | None = None

    def __post_init__(self):
        scale = max(1.0, abs(self.var_cr), abs(self.var_bk))
        if abs(self.diff - (self.var_cr - self.var_bk)) > 1e-12 * scale:
            raise ValueError("diff is inconsistent with var_cr - var_bk")

    @property
    def ratio(self) -> float | None:
        if self.var_cr == 0:
            return None
        return self.var_bk / self.var_cr


def var_k(values, weights) -> float:
    """Weighted between-block variance ``sum w (x - weighted mean)^2``."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if values.shape != weights.shape or values.ndim != 1:
        raise ValueError("values and weights must be 1-d with equal length")
    if np.any(weights <= 0) or abs(float(weights.sum()) - 1.0) > WEIGHT_ATOL:
        raise ValueError("weights must be positive and sum to 1")
    center = float(weights @ values)
    return float(weights @ (values - center) ** 2)


def _composite_block_means(mu_c, mu_t, p: float) -> np.ndarray:
    # The linear combination of arm means whose between-block variance is
    # exactly the blocking gain: sqrt(p/(1-p)) mu_c + sqrt((1-p)/p) mu_t.
    a = math.sqrt(p / (1 - p))
    b = math.sqrt((1 - p) / p)
    return a * np.asarray(mu_c, dtype=float) + b * np.asarray(mu_t, dtype=float)


def neyman_var_cr(table: PotentialOutcomeTable, n_t: int) -> float:
    """Exact randomization variance of the difference in means under
    complete randomization: ``S2_t/n_t + S2_c/n_c - S2_tc/n``."""
    n = table.n
    if n < 2:
        raise ValueError("need n >= 2")
    if not 0 < n_t < n:
        raise ValueError(f"n_t={n_t} out of range for n={n}")
    st = table.stats
    return st.pooled_s2("t") / n_t + st.pooled_s2("c") / (n - n_t) - st.pooled_s2("tc") / n


def neyman_var_blocked(table: PotentialOutcomeTable, design: Blocked) -> float:
    """Exact randomization variance of the blocked estimator:
    ``sum_k (n_k/n)^2 (S2_tk/n_tk + S2_ck/n_ck - S2_tck/n_k)``."""
    weights = table.block_sizes / table.n
    return float(weights**2 @ block_estimator_variances(table, design))


def block_estimator_variances(table: PotentialOutcomeTable, design: Blocked) -> np.ndarray:
    """Per-block randomization variances ``var(tau_hat_k)``."""
    validate_design(design, table)
    st = table.stats
    n_tk = np.asarray(design.n_tk, dtype=float)
    return st.s2("t") / n_tk + st.s2("c") / (st.n_k - n_tk) - st.s2("tc") / st.n_k


def var_diff_finite(table: PotentialOutcomeTable, p: float) -> VarianceReport:
    """Finite-sample variance difference, decomposed between vs. within.

    Requires the same treated proportion ``p`` in every block with integer
    counts, and no singleton blocks. The difference is::

        diff = between_term - within_term
        between_term = var_k(sqrt(p/(1-p)) mean_ck + sqrt((1-p)/p) mean_tk) / (n-1)
        within_term  = sum_k (n_k/n)((n-n_k)/n) var(tau_hat_k) / (n-1)

    and agrees with ``neyman_var_cr - neyman_var_blocked`` to 1e-12.
    """
    design = blocked_design_for_proportion(table, p)
    st = table.stats
    n = st.n
    weights = st.n_k / n
    # var_k is shift invariant, so the block means enter as deviations from
    # the pooled means and a large outcome offset never reaches the squares.
    between = var_k(_composite_block_means(st.c.dev, st.t.dev, p), weights) / (n - 1)
    block_vars = block_estimator_variances(table, design)
    within = float((weights * (1 - weights)) @ block_vars) / (n - 1)
    return VarianceReport(
        framework=FRAMEWORK_FINITE,
        var_cr=neyman_var_cr(table, design.n_t),
        var_bk=neyman_var_blocked(table, design),
        diff=between - within,
        decomposition={"between_term": between, "within_term": within},
    )


# ---------------------------------------------------------------------------
# Superpopulation closed forms


def var_cr_srs(moments: StrataMoments, n_t: int, n_c: int) -> float:
    """Variance of the completely randomized estimator under simple random
    sampling: ``sigma2_t/n_t + sigma2_c/n_c`` with pooled variances."""
    if n_t < 1 or n_c < 1:
        raise ValueError("n_t and n_c must be positive")
    pooled = moments.require_pooled()
    return pooled.sigma2_t / n_t + pooled.sigma2_c / n_c


def var_blocked_strat(moments: StrataMoments, n_k, n_tk) -> float:
    """Variance of the blocked estimator under stratified sampling:
    ``sum_k (n_k/n)^2 (sigma2_tk/n_tk + sigma2_ck/n_ck)``."""
    n_k = np.asarray(n_k, dtype=int)
    n_tk = np.asarray(n_tk, dtype=int)
    if len(n_k) != moments.num_strata or len(n_tk) != moments.num_strata:
        raise ValueError("counts must match the number of strata")
    if np.any(n_tk < 1) or np.any(n_tk >= n_k):
        raise ValueError("need 0 < n_tk < n_k in every stratum")
    n = int(n_k.sum())
    n_ck = n_k - n_tk
    return float(
        np.sum((n_k / n) ** 2 * (moments.sigma2_t / n_tk + moments.sigma2_c / n_ck))
    )


def _stratum_counts(moments: StrataMoments, n: int) -> np.ndarray:
    n_k = moments.weights * n
    if np.any(np.abs(n_k - np.round(n_k)) > 1e-9 * n):
        raise ValueError("weights * n must give integer stratum sizes")
    return np.round(n_k).astype(int)


def _treated_counts(n_k: np.ndarray, p_k: np.ndarray) -> np.ndarray:
    n_tk = p_k * n_k
    if np.any(np.abs(n_tk - np.round(n_tk)) > 1e-9 * np.maximum(1, n_k)):
        raise ValueError("p_k * n_k must be an integer in every stratum")
    return np.round(n_tk).astype(int)


def var_diff_strat(moments: StrataMoments, n: int, p: float) -> VarianceReport:
    """Variance difference under stratified sampling with equal proportions.

    ``diff = var_k(sqrt(p/(1-p)) mu_ck + sqrt((1-p)/p) mu_tk) / (n-1)``,
    a weighted variance of block means, hence always nonnegative: blocking
    cannot hurt in this framework.
    """
    if not 0 < p < 1:
        raise ValueError("p must be in (0, 1)")
    n_k = _stratum_counts(moments, n)
    n_tk = _treated_counts(n_k, np.full(moments.num_strata, p))
    between = var_k(
        _composite_block_means(moments.mu_c, moments.mu_t, p), moments.weights
    ) / (n - 1)
    var_bk = var_blocked_strat(moments, n_k, n_tk)
    return VarianceReport(
        framework=FRAMEWORK_STRATIFIED,
        var_cr=var_bk + between,
        var_bk=var_bk,
        diff=between,
        decomposition={"between_term": between},
    )


def var_diff_strat_unequal(
    moments: StrataMoments, n: int, p_k, p: float | None = None
) -> VarianceReport:
    """Variance difference under stratified sampling, proportions varying.

    The difference gains a sign-indefinite term on top of the equal
    proportion one::

        diff = between_term
             + sum_k (p - p_k) n_k / n^2
                 * [sigma2_ck / ((1-p_k)(1-p)) - sigma2_tk / (p_k p)]

    where ``p`` must equal the size-weighted average of the ``p_k``.
    Reduces exactly to :func:`var_diff_strat` when all ``p_k == p``.
    """
    p_k = np.asarray(p_k, dtype=float)
    if len(p_k) != moments.num_strata:
        raise ValueError("p_k must give one proportion per stratum")
    if np.any(p_k <= 0) or np.any(p_k >= 1):
        raise ValueError("each p_k must be in (0, 1)")
    implied = float(moments.weights @ p_k)
    if p is None:
        p = implied
    elif abs(p - implied) > 1e-12 * max(1.0, abs(p)):
        raise ValueError(f"p={p} does not equal the weighted mean of p_k ({implied})")
    n_k = _stratum_counts(moments, n)
    n_tk = _treated_counts(n_k, p_k)
    between = var_k(
        _composite_block_means(moments.mu_c, moments.mu_t, p), moments.weights
    ) / (n - 1)
    unequal = float(
        np.sum(
            (p - p_k)
            * n_k
            / n**2
            * (
                moments.sigma2_c / ((1 - p_k) * (1 - p))
                - moments.sigma2_t / (p_k * p)
            )
        )
    )
    var_bk = var_blocked_strat(moments, n_k, n_tk)
    diff = between + unequal
    return VarianceReport(
        framework=FRAMEWORK_STRATIFIED,
        var_cr=var_bk + diff,
        var_bk=var_bk,
        diff=diff,
        decomposition={"between_term": between, "unequal_p_term": unequal},
    )


def var_diff_mixed(
    moments: StrataMoments, n_t: int, n_c: int, mode: str
) -> VarianceReport:
    """Cross-framework comparisons involving simple random sampling.

    ``cr_srs_vs_bk_strat`` compares a completely randomized experiment on a
    simple random sample against a blocked experiment on a stratified
    sample; the difference is a sum of squares and always nonnegative.
    ``cr_srs_vs_cr_strat`` compares the completely randomized design under
    the two sampling schemes; the difference is sign-indefinite and the
    report's ``var_bk`` field holds the stratified-sampling variance.
    """
    pooled = moments.require_pooled()
    w = moments.weights
    dev_c = moments.mu_c - pooled.mu_c
    dev_t = moments.mu_t - pooled.mu_t
    cr_srs = var_cr_srs(moments, n_t, n_c)
    if mode == MODE_CR_SRS_VS_BK_STRAT:
        diff = float(w @ dev_c**2) / n_c + float(w @ dev_t**2) / n_t
    elif mode == MODE_CR_SRS_VS_CR_STRAT:
        n = n_t + n_c
        per_stratum = (
            (n_c - 1) / n_c * dev_c**2
            + (n_t - 1) / n_t * dev_t**2
            - 2 * dev_c * dev_t
        )
        diff = float(w @ per_stratum) / (n - 1)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return VarianceReport(
        framework=FRAMEWORK_MIXED,
        var_cr=cr_srs,
        var_bk=cr_srs - diff,
        diff=diff,
    )


# ---------------------------------------------------------------------------
# Monte Carlo frameworks


def _mc_report(framework, var_crs, var_bks, diffs, reps) -> VarianceReport:
    diffs = np.asarray(diffs)
    se = float(np.std(diffs, ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    return VarianceReport(
        framework=framework,
        var_cr=float(np.mean(var_crs)),
        var_bk=float(np.mean(var_bks)),
        diff=float(np.mean(diffs)),
        mc_se=se,
        reps=reps,
    )


def var_diff_site_sampling(
    block_population: Sequence[PotentialOutcomeTable],
    k_draw: int,
    p: float,
    reps: int = DEFAULT_REPS,
    seed: int = 0,
) -> VarianceReport:
    """Expected finite-sample difference when whole blocks are sampled.

    Each draw picks ``k_draw`` blocks i.i.d. with replacement from the
    population (modeling an effectively infinite population of blocks,
    a modeling choice documented in the README), assembles them into one
    table, and evaluates the finite-sample difference at proportion ``p``.
    Reported values are averages over draws with the standard error of the
    mean difference.
    """
    if not block_population:
        raise ValueError("empty block population")
    if k_draw < 1 or reps < 1:
        raise ValueError("k_draw and reps must be positive")
    pool = []
    for j, tbl in enumerate(block_population):
        if tbl.n < 2:
            raise ValueError(f"population block {j} has fewer than 2 units")
        m = p * tbl.n
        if abs(m - round(m)) > 1e-9 * tbl.n:
            raise ValueError(f"p*n_k is not an integer for population block {j}")
        pool.append((tbl.y_t, tbl.y_c))
    var_crs, var_bks, diffs = [], [], []
    for r in range(reps):
        rng = mc.rep_rng(seed, r)
        chosen = rng.integers(len(pool), size=k_draw)
        labels = np.concatenate(
            [np.full(len(pool[j][0]), i + 1) for i, j in enumerate(chosen)]
        )
        y_t = np.concatenate([pool[j][0] for j in chosen])
        y_c = np.concatenate([pool[j][1] for j in chosen])
        report = var_diff_finite(table_from_arrays(labels, y_t, y_c), p)
        var_crs.append(report.var_cr)
        var_bks.append(report.var_bk)
        diffs.append(report.diff)
    return _mc_report(FRAMEWORK_SITE, var_crs, var_bks, diffs, reps)


@dataclass(frozen=True)
class TwoStageStratum:
    """One stratum type for two-stage sampling: moments plus its sample size.

    ``n_k`` is the number of units drawn whenever this stratum is selected;
    the default rule is a constant size, configurable per type.
    """

    mu_t: float
    mu_c: float
    sigma2_t: float
    sigma2_c: float
    n_k: int

    def __post_init__(self):
        if self.n_k < 2:
            raise ValueError("n_k must be at least 2")
        if self.sigma2_t < 0 or self.sigma2_c < 0:
            raise ValueError("variances must be nonnegative")


def two_stage_strata_from_moments(moments: StrataMoments, n_k) -> list[TwoStageStratum]:
    """Build stratum types from a moments table and per-type sizes."""
    n_k = np.broadcast_to(np.asarray(n_k, dtype=int), (moments.num_strata,))
    return [
        TwoStageStratum(
            mu_t=float(moments.mu_t[i]),
            mu_c=float(moments.mu_c[i]),
            sigma2_t=float(moments.sigma2_t[i]),
            sigma2_c=float(moments.sigma2_c[i]),
            n_k=int(n_k[i]),
        )
        for i in range(moments.num_strata)
    ]


def var_diff_two_stage(
    strata_population: Sequence[TwoStageStratum],
    k_draw: int,
    p: float,
    reps: int = DEFAULT_REPS,
    seed: int = 0,
) -> VarianceReport:
    """Expected variance difference under two-stage sampling.

    Strata are drawn uniformly with replacement; each draw contributes the
    stratified-sampling between term evaluated on the drawn strata. Every
    per-draw term is nonnegative, so the estimate is nonnegative by
    construction (blocking cannot hurt here).
    """
    if not strata_population:
        raise ValueError("empty strata population")
    if k_draw < 1 or reps < 1:
        raise ValueError("k_draw and reps must be positive")
    for j, row in enumerate(strata_population):
        m = p * row.n_k
        if abs(m - round(m)) > 1e-9 * row.n_k:
            raise ValueError(f"p*n_k is not an integer for stratum type {j}")
        if not 0 < round(m) < row.n_k:
            raise ValueError(f"stratum type {j} would have an empty arm")
    mu_t = np.asarray([s.mu_t for s in strata_population])
    mu_c = np.asarray([s.mu_c for s in strata_population])
    s2_t = np.asarray([s.sigma2_t for s in strata_population])
    s2_c = np.asarray([s.sigma2_c for s in strata_population])
    sizes = np.asarray([s.n_k for s in strata_population], dtype=float)
    composite = _composite_block_means(mu_c, mu_t, p)
    var_crs, var_bks, diffs = [], [], []
    for r in range(reps):
        rng = mc.rep_rng(seed, r)
        chosen = rng.integers(len(strata_population), size=k_draw)
        n_k = sizes[chosen]
        n = float(n_k.sum())
        weights = n_k / n
        diff = var_k(composite[chosen], weights) / (n - 1)
        n_tk = np.round(p * n_k)
        var_bk = float(
            np.sum(weights**2 * (s2_t[chosen] / n_tk + s2_c[chosen] / (n_k - n_tk)))
        )
        var_crs.append(var_bk + diff)
        var_bks.append(var_bk)
        diffs.append(diff)
    return _mc_report(FRAMEWORK_TWO_STAGE, var_crs, var_bks, diffs, reps)
