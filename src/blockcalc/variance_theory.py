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

import numpy as np

from . import mc
from .pop_model import (
    Blocked,
    PotentialOutcomeTable,
    StrataMoments,
    WEIGHT_ATOL,
    blocked_design_for_proportion,
    pooled_variance,
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
        check_diff(self.var_cr, self.var_bk, self.diff)

    @property
    def ratio(self) -> float | None:
        if self.var_cr == 0:
            return None
        return self.var_bk / self.var_cr


def check_diff(var_cr, var_bk, diff) -> None:
    """Raise unless ``diff`` equals ``var_cr - var_bk`` to 1e-12, relative to
    ``max(1, |var_cr|, |var_bk|)``; arrays are checked element by element."""
    scale = np.maximum(1.0, np.maximum(np.abs(var_cr), np.abs(var_bk)))
    if np.any(np.abs(diff - (var_cr - var_bk)) > 1e-12 * scale):
        raise ValueError("diff is inconsistent with var_cr - var_bk")


def var_k(values, weights):
    """Weighted between-block variance ``sum w (x - weighted mean)^2``.

    Blocks run along the last axis; leading axes hold independent sets of
    blocks (one per Monte Carlo replication, say) and give an array of
    variances instead of a float. Values are first taken relative to the
    first block's, which is exact near a large common offset, so the offset
    cancels before anything is weighted or squared.
    """
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if values.shape != weights.shape or values.ndim == 0:
        raise ValueError("values and weights must share a shape, of equal length per block axis")
    if np.any(weights <= 0) or np.any(np.abs(weights.sum(axis=-1) - 1.0) > WEIGHT_ATOL):
        raise ValueError("weights must be positive and sum to 1")
    values = values - values[..., :1]
    center = (weights * values).sum(axis=-1, keepdims=True)
    result = (weights * (values - center) ** 2).sum(axis=-1)
    return float(result) if values.ndim == 1 else result


def _composite_block_means(mu_c, mu_t, p: float) -> np.ndarray:
    # The linear combination of arm means whose between-block variance is
    # exactly the blocking gain: sqrt(p/(1-p)) mu_c + sqrt((1-p)/p) mu_t.
    # Only its var_k is used, so each arm is first taken relative to its
    # first block (exact near a large offset) and the offset never meets
    # the irrational coefficients.
    a = math.sqrt(p / (1 - p))
    b = math.sqrt((1 - p) / p)
    mu_c, mu_t = np.asarray(mu_c, dtype=float), np.asarray(mu_t, dtype=float)
    return a * (mu_c - mu_c[..., :1]) + b * (mu_t - mu_t[..., :1])


def cr_variance(s2_t, s2_c, s2_tc, n, n_t):
    """``S2_t/n_t + S2_c/n_c - S2_tc/n`` from pooled sample variances (elementwise)."""
    return s2_t / n_t + s2_c / (n - n_t) - s2_tc / n


def block_variances(n_k, n_tk, s2_t, s2_c, s2_tc):
    """``var(tau_hat_k) = S2_tk/n_tk + S2_ck/n_ck - S2_tck/n_k`` (elementwise)."""
    return s2_t / n_tk + s2_c / (n_k - n_tk) - s2_tc / n_k


def blocked_variance(n_k, block_vars):
    """``sum_k (n_k/n)^2 var(tau_hat_k)`` over a trailing block axis."""
    weights = n_k / n_k.sum(axis=-1, keepdims=True)
    return (weights**2 * block_vars).sum(axis=-1)


def neyman_var_cr(table: PotentialOutcomeTable, n_t: int) -> float:
    """Exact randomization variance of the difference in means under
    complete randomization: ``S2_t/n_t + S2_c/n_c - S2_tc/n``."""
    n = table.n
    if n < 2:
        raise ValueError("need n >= 2")
    if not 0 < n_t < n:
        raise ValueError(f"n_t={n_t} out of range for n={n}")
    st = table.stats
    return cr_variance(st.pooled_s2("t"), st.pooled_s2("c"), st.pooled_s2("tc"), n, n_t)


def neyman_var_blocked(table: PotentialOutcomeTable, design: Blocked) -> float:
    """Exact randomization variance of the blocked estimator:
    ``sum_k (n_k/n)^2 (S2_tk/n_tk + S2_ck/n_ck - S2_tck/n_k)``."""
    return float(blocked_variance(table.block_sizes, block_estimator_variances(table, design)))


def block_estimator_variances(table: PotentialOutcomeTable, design: Blocked) -> np.ndarray:
    """Per-block randomization variances ``var(tau_hat_k)``."""
    validate_design(design, table)
    st = table.stats
    n_tk = np.asarray(design.n_tk, dtype=float)
    return block_variances(st.n_k, n_tk, st.s2("t"), st.s2("c"), st.s2("tc"))


def _finite_comparison(n_k, n_tk, arms, block_vars, p: float):
    """``var_cr``, ``var_bk`` and the between and within terms of
    :func:`var_diff_finite`, over a trailing block axis.

    ``arms`` holds ``(dev, ss)`` for t, c and t-c: block means as deviations
    from any common reference, and within-block sums of squares. ``var_cr``
    comes from the pooled within-plus-between identity, so blocks gathered
    from a population give the values of the table they would form.
    """
    n = n_k.sum(axis=-1)
    weights = n_k / n[..., None]
    pooled = [pooled_variance(n_k, dev, ss) for dev, ss in arms]
    var_cr = cr_variance(*pooled, n, n_tk.sum(axis=-1))
    var_bk = blocked_variance(n_k, block_vars)
    (dev_t, _), (dev_c, _), _ = arms
    # var_k is shift invariant, so the block means enter as deviations and a
    # large outcome offset never reaches the squares.
    between = var_k(_composite_block_means(dev_c, dev_t, p), weights) / (n - 1)
    within = (weights * (1 - weights) * block_vars).sum(axis=-1) / (n - 1)
    return var_cr, var_bk, between, within


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
    var_cr, var_bk, between, within = _finite_comparison(
        st.n_k,
        np.asarray(design.n_tk),
        [(arm.dev, arm.ss) for arm in (st.t, st.c, st.tc)],
        block_estimator_variances(table, design),
        p,
    )
    between, within = float(between), float(within)
    return VarianceReport(
        framework=FRAMEWORK_FINITE,
        var_cr=float(var_cr),
        var_bk=float(var_bk),
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
    pooled = moments.pooled
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
    pooled = moments.pooled
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


def _check_mc_reps(reps: int) -> None:
    if reps < 2:
        raise ValueError(f"Monte Carlo needs reps >= 2 for a standard error, got {reps}")


def _mc_report(framework, var_crs, var_bks, diffs, reps) -> VarianceReport:
    diffs = np.asarray(diffs)
    se = float(np.std(diffs, ddof=1) / math.sqrt(reps))
    return VarianceReport(
        framework=framework,
        var_cr=float(np.mean(var_crs)),
        var_bk=float(np.mean(var_bks)),
        diff=float(np.mean(diffs)),
        mc_se=se,
        reps=reps,
    )


def _monte_carlo(num_types, k_draw, reps, seed, evaluate) -> np.ndarray:
    """Per-rep ``var_cr``, ``var_bk`` and ``diff`` as the rows of a ``(3, reps)`` array.

    Rep ``r`` draws ``k_draw`` type indices with one ``integers(num_types,
    size=k_draw)`` call on the generator ``mc.rep_rngs`` yields for it (the
    state of ``mc.rep_rng(seed, r)``); that generator is reused, so each
    rep's draw is made before the next rep's generator is asked for. Draws
    are stacked into index matrices of at most ``mc.CHUNK_SIZE`` rows, and
    ``evaluate`` maps a matrix to the three values of every row.
    """
    values = np.empty((3, reps))
    for lo, hi in mc.chunk_bounds(reps):
        chosen = np.stack(
            [rng.integers(num_types, size=k_draw) for rng in mc.rep_rngs(seed, lo, hi)]
        )
        values[:, lo:hi] = evaluate(chosen)
    return values


def var_diff_site_sampling(
    population: PotentialOutcomeTable,
    k_draw: int,
    p: float,
    reps: int = DEFAULT_REPS,
    seed: int = 0,
) -> VarianceReport:
    """Expected finite-sample difference when whole blocks are sampled.

    Block ``j`` of ``population`` (in label order) is population block
    ``j``. Each draw picks ``k_draw`` blocks i.i.d. with replacement
    (modeling an effectively infinite population of blocks, a modeling
    choice documented in the README), assembles them into one table, and
    evaluates the finite-sample difference at proportion ``p``. Reported
    values are averages over draws with the standard error of the mean
    difference, so at least 2 draws are needed; :func:`site_sampling_reps`
    gives the draws.
    """
    _check_mc_reps(reps)
    values = site_sampling_reps(population, k_draw, p, reps, seed)
    return _mc_report(FRAMEWORK_SITE, *values, reps)


def site_sampling_reps(
    population: PotentialOutcomeTable,
    k_draw: int,
    p: float,
    reps: int = DEFAULT_REPS,
    seed: int = 0,
) -> np.ndarray:
    """Per-draw ``var_cr``, ``var_bk`` and ``diff`` of
    :func:`var_diff_site_sampling`, as the rows of a ``(3, reps)`` array.

    No table is assembled: every population block's size, treated count,
    arm means (as deviations from the population's pooled means), within
    sums of squares and ``var(tau_hat_j)`` are computed once, and each draw
    gathers the rows it picked. Every draw's ``diff`` is checked against its
    ``var_cr - var_bk`` as :class:`VarianceReport` checks one report.
    """
    if k_draw < 1 or reps < 1:
        raise ValueError("k_draw and reps must be positive")
    st = population.stats
    small = st.singletons()
    if small:
        raise ValueError(f"population block {small[0]} has fewer than 2 units")
    design = blocked_design_for_proportion(population, p)
    n_tk = np.asarray(design.n_tk)
    block_vars = block_estimator_variances(population, design)

    def evaluate(chosen):
        arms = [(arm.dev[chosen], arm.ss[chosen]) for arm in (st.t, st.c, st.tc)]
        var_cr, var_bk, between, within = _finite_comparison(
            st.n_k[chosen], n_tk[chosen], arms, block_vars[chosen], p
        )
        diff = between - within
        check_diff(var_cr, var_bk, diff)
        return var_cr, var_bk, diff

    return _monte_carlo(population.num_blocks, k_draw, reps, seed, evaluate)


def var_diff_two_stage(
    moments: StrataMoments,
    n_k,
    k_draw: int,
    p: float,
    reps: int = DEFAULT_REPS,
    seed: int = 0,
) -> VarianceReport:
    """Expected variance difference under two-stage sampling.

    Stratum types are drawn uniformly with replacement, and type ``j``
    brings ``n_k[j]`` units whenever it is drawn. Each draw contributes the
    stratified-sampling between term evaluated on the drawn strata, from
    the types' ``mu_t``, ``mu_c``, ``sigma2_t`` and ``sigma2_c``;
    ``weights`` and ``sigma2_tc`` are not read. Every per-draw term is
    nonnegative, so the estimate is nonnegative by construction (blocking
    cannot hurt here). Like :func:`var_diff_site_sampling` it needs at least
    2 draws; :func:`two_stage_reps` gives the draws.
    """
    _check_mc_reps(reps)
    values = two_stage_reps(moments, n_k, k_draw, p, reps, seed)
    return _mc_report(FRAMEWORK_TWO_STAGE, *values, reps)


def two_stage_reps(
    moments: StrataMoments,
    n_k,
    k_draw: int,
    p: float,
    reps: int = DEFAULT_REPS,
    seed: int = 0,
) -> np.ndarray:
    """Per-draw ``var_cr``, ``var_bk`` and ``diff`` of
    :func:`var_diff_two_stage`, as the rows of a ``(3, reps)`` array."""
    sizes = np.asarray(n_k, dtype=float)
    if sizes.shape != (moments.num_strata,):
        raise ValueError(
            f"n_k must give one size per stratum ({moments.num_strata}), got {sizes.size}"
        )
    if k_draw < 1 or reps < 1:
        raise ValueError("k_draw and reps must be positive")
    treated = _treated_counts(sizes, p)
    if not np.all((treated > 0) & (treated < sizes)):
        raise ValueError("p * n_k must leave both arms nonempty in every stratum")
    s2_t, s2_c = moments.sigma2_t, moments.sigma2_c
    composite = _composite_block_means(moments.mu_c, moments.mu_t, p)

    def evaluate(chosen):
        n_k = sizes[chosen]
        n = n_k.sum(axis=-1)
        diff = var_k(composite[chosen], n_k / n[:, None]) / (n - 1)
        n_tk = treated[chosen]
        var_bk = blocked_variance(n_k, s2_t[chosen] / n_tk + s2_c[chosen] / (n_k - n_tk))
        return var_bk + diff, var_bk, diff

    return _monte_carlo(moments.num_strata, k_draw, reps, seed, evaluate)
