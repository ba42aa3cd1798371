"""Standard variance estimators and their exact expectations under blocking.

The completely randomized estimator ``s2_c/n_c + s2_t/n_t`` is conservative
in the finite sample (bias ``S2_tc/n``) when the experiment really was
completely randomized. Applying it to a blocked experiment is a different
story: its expectation has a closed form whose bias against the true blocked
variance can be negative, i.e. ignoring the blocking can be anti-conservative.
Under stratified sampling the same misuse is always conservative.

The blocked estimator here requires at least two treated and two control
units per block. Estimators for singleton arms exist in the literature on
blocked variance estimation but are out of scope; callers get an explicit
error naming the offending block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mc
from .oracle import batch_statistic, chunk_rows, count_assignments, enumerate_statistic
from .pop_model import (
    Blocked,
    CompleteRandomization,
    DesignSpec,
    PotentialOutcomeTable,
    StrataMoments,
    blocked_design_for_proportion,
    equal_proportions,
    validate_design,
)
from .randomizer import draw_masks, shuffle_plan

#: Exact enumeration replaces Monte Carlo below this many assignments.
EXACT_ENUMERATION_LIMIT = 1_000_000


@dataclass(frozen=True)
class ObservedSample:
    """What the analyst sees: block label, treated flag and observed outcome per unit.

    ``blocks``, ``treated`` and ``y_obs`` are stored as read-only integer,
    boolean and float arrays.
    """

    blocks: np.ndarray
    treated: np.ndarray
    y_obs: np.ndarray

    def __post_init__(self):
        blocks = np.array(self.blocks, dtype=np.intp)
        treated = np.array(self.treated, dtype=bool)
        y_obs = np.array(self.y_obs, dtype=float)
        if not len(blocks) == len(treated) == len(y_obs):
            raise ValueError("fields must share one length")
        for name, arr in (("blocks", blocks), ("treated", treated), ("y_obs", y_obs)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_schedule(
        cls, table: PotentialOutcomeTable, treated_mask: np.ndarray
    ) -> "ObservedSample":
        y_obs = np.where(treated_mask, table.y_t, table.y_c)
        return cls(blocks=table.blocks, treated=treated_mask, y_obs=y_obs)


def _estimate(obs: ObservedSample, statistic: str) -> float:
    """A named variance estimator on the sample, as one row of the oracle's kernel.

    The observed outcomes stand in for both potential outcomes (a no-impact
    table), so each arm reads exactly the values observed in it. The kernel
    reads no design for the variance estimators.
    """
    unit_ids = tuple(str(i) for i in range(len(obs.y_obs)))
    table = PotentialOutcomeTable(unit_ids, obs.blocks, obs.y_obs, obs.y_obs)
    return float(batch_statistic(table, None, statistic, obs.treated[None])[0])


def var_est_cr(obs: ObservedSample) -> float:
    """Standard variance estimate for complete randomization:
    ``s2_c/n_c + s2_t/n_t`` with sample variances per arm."""
    return _estimate(obs, "var_est_cr")


def var_est_blocked(obs: ObservedSample) -> float:
    """Blocked variance estimate ``sum_k (n_k/n)^2 (s2_ck/n_ck + s2_tk/n_tk)``.

    Raises if any block has fewer than two units in either arm.
    """
    return _estimate(obs, "var_est_blocked")


def _require_equal_proportions(table: PotentialOutcomeTable, design: Blocked) -> float:
    validate_design(design, table)
    if not equal_proportions(design, table):
        raise ValueError("this expectation requires an equal treated proportion in every block")
    return design.n_t / table.n


def expected_s2_under_blocking(
    table: PotentialOutcomeTable, arm: str, design: Blocked
) -> float:
    """Exact expectation of an arm's sample variance under blocked assignment.

    With equal proportions, arm-z assignment probability ``p_z`` and arm size
    ``n_z``::

        E[s2_z] = sum_k (n_k/n - p_z (n - n_k) / (n (n_z - 1))) S2_zk
                + 1/(n_z - 1) * sum_k n_zk (mean_zk - mean_z)^2

    For a single block this collapses to ``S2_z`` (the estimator is unbiased
    within one block).
    """
    if arm not in ("t", "c"):
        raise ValueError("arm must be 't' or 'c'")
    _require_equal_proportions(table, design)
    n = table.n
    n_z = design.n_t if arm == "t" else n - design.n_t
    p_z = n_z / n
    if n_z < 2:
        raise ValueError("arm size must be at least 2")
    st = table.stats
    s2_zk = st.s2(arm)
    n_zk = np.asarray(design.n_tk) if arm == "t" else st.n_k - np.asarray(design.n_tk)
    within = float((st.n_k / n - p_z * (n - st.n_k) / (n * (n_z - 1))) @ s2_zk)
    between = float(n_zk @ st.arm(arm).dev ** 2) / (n_z - 1)
    return within + between


@dataclass(frozen=True)
class CrEstimatorUnderBlocking:
    """Expectation of the complete-randomization variance estimator when the
    experiment was actually blocked, against the true blocked variance."""

    expected_varest_cr: float
    true_var_bk: float
    bias: float


def cr_varest_bias_under_blocking(
    table: PotentialOutcomeTable, p: float
) -> CrEstimatorUnderBlocking:
    """Closed-form bias of the misapplied estimator in the finite sample.

    ``bias = E[varest_cr | blocked design] - var(tau_hat_bk)`` equals::

        1/(n_c - 1) sum_k w_k (mean_ck - mean_c)^2
      + 1/(n_t - 1) sum_k w_k (mean_tk - mean_t)^2
      - [ sum_k (n - n_k) S2_ck / (n^2 (n_c - 1))
        + sum_k (n - n_k) S2_tk / (n^2 (n_t - 1))
        - sum_k n_k S2_tck / n^2 ]

    which can be negative: between-block spread pushes it up, within-block
    spread pulls it down. The sign is exact for any correlation of the
    potential outcomes. With one block it collapses to ``S2_tc/n``, the
    classical conservatism of the estimator under its own design.
    """
    from .variance_theory import neyman_var_blocked

    design = blocked_design_for_proportion(table, p)
    n = table.n
    n_t = design.n_t
    n_c = n - n_t
    if n_t < 2 or n_c < 2:
        raise ValueError("both arms need at least 2 units")
    st = table.stats
    s2_t, s2_c, s2_tc = st.s2("t"), st.s2("c"), st.s2("tc")
    w = st.n_k / n
    rest = n - st.n_k
    bias = (
        float(w @ st.c.dev**2) / (n_c - 1)
        + float(w @ st.t.dev**2) / (n_t - 1)
        - float(rest @ s2_c) / (n**2 * (n_c - 1))
        - float(rest @ s2_t) / (n**2 * (n_t - 1))
        + float(st.n_k @ s2_tc) / n**2
    )
    true_var_bk = neyman_var_blocked(table, design)
    return CrEstimatorUnderBlocking(
        expected_varest_cr=true_var_bk + bias,
        true_var_bk=true_var_bk,
        bias=bias,
    )


def cr_varest_bias_strat(moments: StrataMoments, n: int, p: float) -> float:
    """Bias of the misapplied estimator under stratified sampling.

    ``1/(n_c-1) sum w_k (mu_ck - mu_c)^2 + 1/(n_t-1) sum w_k (mu_tk - mu_t)^2``,
    a sum of squares: the misuse is never anti-conservative here.
    """
    if not 0 < p < 1:
        raise ValueError("p must be in (0, 1)")
    n_t = p * n
    if abs(n_t - round(n_t)) > 1e-9 * n:
        raise ValueError("p*n must be an integer")
    n_t = round(n_t)
    n_c = n - n_t
    if n_t < 2 or n_c < 2:
        raise ValueError("both arms need at least 2 units")
    pooled = moments.pooled
    w = moments.weights
    return float(w @ (moments.mu_c - pooled.mu_c) ** 2) / (n_c - 1) + float(
        w @ (moments.mu_t - pooled.mu_t) ** 2
    ) / (n_t - 1)


@dataclass(frozen=True)
class VarestVariability:
    mean_varest: float
    var_of_varest: float
    method: str
    reps_used: int


def varest_variability(
    table: PotentialOutcomeTable,
    design: DesignSpec,
    reps: int = 5_000,
    seed: int = 0,
    exact_limit: int = EXACT_ENUMERATION_LIMIT,
) -> VarestVariability:
    """Mean and variance of the design's own variance estimator.

    Uses the estimator matching the design (arm-pooled for complete
    randomization, per-block for blocking). All assignments are enumerated
    exactly when their count is at most ``exact_limit``; otherwise ``reps``
    seeded assignments (at least 2) are drawn and the sample variance is
    reported. Either way the estimator is evaluated on batches of masks by
    :func:`~blockcalc.oracle.batch_statistic`; Monte Carlo draw ``r`` comes
    from the generator :func:`~blockcalc.mc.rep_rngs` yields for rep ``r``
    (the state of ``mc.rep_rng(seed, r)``), through
    :func:`~blockcalc.randomizer.draw_masks`, which is done with each
    generator before it asks for the next (the draws of
    :func:`~blockcalc.randomizer.assign_cr` and
    :func:`~blockcalc.randomizer.assign_blocked`).
    """
    validate_design(design, table)
    blocked = isinstance(design, Blocked)
    statistic = "var_est_blocked" if blocked else "var_est_cr"
    total = count_assignments(design, table)
    if total <= exact_limit:
        values, _ = enumerate_statistic(table, design, statistic)
        return VarestVariability(
            mean_varest=float(np.mean(values)),
            var_of_varest=float(np.var(values)),
            method="enumeration",
            reps_used=total,
        )

    if reps < 2:
        raise ValueError(
            f"Monte Carlo needs reps >= 2 for a sample variance of the estimator, got {reps}"
        )
    plan = shuffle_plan(table, design)
    values = np.empty(reps)
    rows = chunk_rows(table.n)
    for start in range(0, reps, rows):
        stop = min(start + rows, reps)
        masks = draw_masks(plan, mc.rep_rngs(seed, start, stop))
        values[start:stop] = batch_statistic(table, design, statistic, masks, first=start)
    return VarestVariability(
        mean_varest=float(np.mean(values)),
        var_of_varest=float(np.var(values, ddof=1)),
        method="monte_carlo",
        reps_used=reps,
    )
