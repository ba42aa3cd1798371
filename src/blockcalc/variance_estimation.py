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
from typing import Sequence

import numpy as np

from . import mc
from .oracle import batch_statistic, count_assignments, enumerate_statistic, population_moments
from .pop_model import (
    Blocked,
    CompleteRandomization,
    DesignSpec,
    PotentialOutcomeTable,
    StrataMoments,
    _integer_counts,
    blocked_design_for_proportion,
    equal_proportions,
    validate_design,
)
from .randomizer import draw_masks, shuffle_plan

#: Exact enumeration replaces Monte Carlo below this many assignments.
EXACT_ENUMERATION_LIMIT = 1_000_000


@dataclass(frozen=True, eq=False)
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
    n_t = design.n_t
    if n_t < 2 or table.n - n_t < 2:
        raise ValueError("both arms need at least 2 units")
    st = table.stats
    n_tk = np.asarray(design.n_tk)
    bias = float(cr_varest_bias(st.n_k, n_tk, st.t, st.c, st.s2("t"), st.s2("c"), st.s2("tc")))
    true_var_bk = neyman_var_blocked(table, design)
    return CrEstimatorUnderBlocking(
        expected_varest_cr=true_var_bk + bias,
        true_var_bk=true_var_bk,
        bias=bias,
    )


def cr_varest_bias(n_k, n_tk, t, c, s2_t, s2_c, s2_tc):
    """The bias of :func:`cr_varest_bias_under_blocking` over a trailing block
    axis, from sizes ``n_k``, equal-proportion counts ``n_tk``, the block
    moments ``t`` and ``c`` and the block sample variances, which may carry
    leading axes (one population per row, all with blocks ``n_k``)."""
    n, n_t = int(n_k.sum()), int(n_tk.sum())
    n_c = n - n_t
    w = n_k / n
    rest = n - n_k
    return (
        c.dev**2 @ w / (n_c - 1)
        + t.dev**2 @ w / (n_t - 1)
        - s2_c @ rest / (n**2 * (n_c - 1))
        - s2_t @ rest / (n**2 * (n_t - 1))
        + s2_tc @ n_k / n**2
    )


def cr_varest_bias_strat(moments: StrataMoments, n: int, p: float) -> float:
    """Bias of the misapplied estimator under stratified sampling.

    ``1/(n_c-1) sum w_k (mu_ck - mu_c)^2 + 1/(n_t-1) sum w_k (mu_tk - mu_t)^2``,
    a sum of squares: the misuse is never anti-conservative here.
    """
    if not 0 < p < 1:
        raise ValueError("p must be in (0, 1)")
    n_t = int(_integer_counts(p, n, "p*n must be an integer"))
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
) -> VarestVariability:
    """Mean and variance of the design's own variance estimator.

    Uses the estimator matching the design (arm-pooled for complete
    randomization, per-block for blocking). All assignments are enumerated
    exactly when their count is at most ``EXACT_ENUMERATION_LIMIT``;
    otherwise ``reps`` seeded assignments (at least 2) are drawn and the
    sample variance is reported, draw ``r`` being the shuffle of
    ``mc.rep_rng(seed, r)``. This is the one-table call of
    :func:`varest_variabilities`.
    """
    return varest_variabilities([table], design, [seed], reps)[0]


def varest_variabilities(
    tables: Sequence[PotentialOutcomeTable],
    design: DesignSpec,
    seeds: Sequence[int],
    reps: int = 5_000,
) -> list[VarestVariability]:
    """:func:`varest_variability` of every table under one design, table
    ``p`` with master seed ``seeds[p]``.

    The tables share one block labelling, so the design's assignment count
    and shuffle steps are those of the first table. A design with at most
    ``EXACT_ENUMERATION_LIMIT`` assignments (read at call time) is
    enumerated on every table. Otherwise each chunk of
    ``mc.chunk_bounds(reps, n)`` takes every table's step draws from one
    :func:`~blockcalc.mc.rep_integers` call, turns them into masks with one
    :func:`~blockcalc.randomizer.draw_masks` call and evaluates each
    table's masks of the chunk in one :func:`~blockcalc.oracle.batch_statistic`
    call, numbered from the chunk's first rep.
    """
    first = tables[0]
    if any(not np.array_equal(table.blocks, first.blocks) for table in tables):
        raise ValueError("the tables must share one block labelling")
    validate_design(design, first)
    statistic = "var_est_blocked" if isinstance(design, Blocked) else "var_est_cr"
    total = count_assignments(design, first)
    if total <= EXACT_ENUMERATION_LIMIT:
        moments = [population_moments(enumerate_statistic(table, design, statistic)[0])
                   for table in tables]
        return [VarestVariability(mean, variance, "enumeration", total)
                for mean, variance in moments]
    if reps < 2:
        raise ValueError(
            f"Monte Carlo needs reps >= 2 for a sample variance of the estimator, got {reps}"
        )
    plan = shuffle_plan(first, design)
    values = np.empty((len(tables), reps))
    for start, stop in mc.chunk_bounds(reps, first.n):
        draws = mc.rep_integers(seeds, start, stop, plan.highs)
        masks = draw_masks(plan, draws).reshape(len(tables), stop - start, first.n)
        for p, table in enumerate(tables):
            values[p, start:stop] = batch_statistic(
                table, design, statistic, masks[p], first=start
            )
    return [VarestVariability(float(np.mean(v)), float(np.var(v, ddof=1)), "monte_carlo", reps)
            for v in values]
