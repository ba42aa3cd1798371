"""Blocking algorithms, a block-predictiveness measure, and data generators
for the simulation studies.

The predictiveness measure ``r2_blocks`` is the between-group share of the
total sum of squares computed on the stacked vector of all control outcomes
followed by all treated outcomes, each grouped by block (2K groups). Both
the spread of control means across blocks and the spread of block effects
move it, which is why the stacked form is used; see the README for the
rationale. It is 0 when every block looks the same on average and tends to
1 as within-block variation vanishes.

Sorting ties are always broken by unit order: determinism over elegance.
When a block count does not divide the sample, leftover units are absorbed
into the last block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pop_model import PotentialOutcomeTable, grouped_moments, read_csv_columns, table_from_arrays

DGPS = ("linear", "indep", "odd")


@dataclass(frozen=True)
class CovariateSample:
    """Units with a single numeric blocking covariate."""

    unit_ids: tuple[str, ...]
    x: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.x, dtype=float).copy()
        if len(arr) != len(self.unit_ids):
            raise ValueError("x length mismatch")
        if arr.size and not np.isfinite(arr).all():
            raise ValueError("non-finite covariate")
        arr.setflags(write=False)
        object.__setattr__(self, "x", arr)

    @property
    def n(self) -> int:
        return len(self.unit_ids)


def covariate_sample_from_values(x) -> CovariateSample:
    x = np.asarray(x, dtype=float)
    return CovariateSample(unit_ids=tuple(f"u{i + 1}" for i in range(len(x))), x=x)


def read_covariate_csv(path) -> CovariateSample:
    """Read ``unit_id,x`` rows."""
    cols = read_csv_columns(path, "covariate", ["unit_id", "x"])
    return CovariateSample(unit_ids=cols["unit_id"], x=cols["x"])


def _sorted_order(sample: CovariateSample) -> np.ndarray:
    # Stable sort on x; ties resolved by position, i.e. unit order.
    return np.argsort(sample.x, kind="stable")


def labels_in_order(order: np.ndarray, sizes) -> np.ndarray:
    """1-based labels giving the units of ``order`` to blocks of ``sizes`` in turn:
    the first ``sizes[0]`` units listed form block 1, the next ``sizes[1]``
    block 2, and so on."""
    labels = np.empty(len(order), dtype=int)
    labels[order] = np.repeat(np.arange(1, len(sizes) + 1), sizes)
    return labels


def make_blocks_flex(sample: CovariateSample, block_size: int) -> np.ndarray:
    """Sort by the covariate and chunk into consecutive groups.

    The principled method: blocks are as internally homogeneous in ``x`` as
    sorted chunking allows.
    """
    if block_size < 2:
        raise ValueError("block_size must be at least 2")
    if block_size > sample.n:
        raise ValueError("block_size exceeds the sample size")
    k = sample.n // block_size
    sizes = [block_size] * (k - 1) + [sample.n - (k - 1) * block_size]
    return labels_in_order(_sorted_order(sample), sizes)


def make_blocks_interleave(sample: CovariateSample, k: int) -> np.ndarray:
    """Deal sorted units round-robin so each block spans the full x range.

    This deliberately makes the blocks as similar to each other as possible,
    the exact opposite of useful blocking.
    """
    if k < 2:
        raise ValueError("need at least 2 blocks")
    if 2 * k > sample.n:
        raise ValueError("blocks would have fewer than 2 units")
    labels = np.empty(sample.n, dtype=int)
    labels[_sorted_order(sample)] = np.arange(sample.n) % k + 1
    return labels


def make_blocks_peevish(sample: CovariateSample, block_size: int) -> np.ndarray:
    """Compact-by-x blocks that also balance odd and even covariate values.

    Odd-x and even-x units are sorted separately and each block takes the
    next ``block_size/2`` of each, so blocks are x-compact within parity but
    parity-balanced, a plausible-looking choice that backfires whenever the
    outcome depends on parity.
    """
    if block_size < 2 or block_size % 2:
        raise ValueError("block_size must be even and at least 2")
    x = sample.x
    if not np.all(x == np.round(x)):
        raise ValueError("peevish blocking needs integer-valued x")
    parity = np.asarray(x, dtype=int) % 2
    odd_units = np.flatnonzero(parity == 1)
    even_units = np.flatnonzero(parity == 0)
    if len(odd_units) != len(even_units):
        raise ValueError("peevish blocking needs equal counts of odd and even x")
    odd_sorted = odd_units[np.argsort(x[odd_units], kind="stable")]
    even_sorted = even_units[np.argsort(x[even_units], kind="stable")]
    half = block_size // 2
    k = sample.n // block_size
    block_of_rank = np.minimum(np.arange(len(odd_units)) // half, k - 1) + 1
    labels = np.empty(sample.n, dtype=int)
    labels[odd_sorted] = block_of_rank
    labels[even_sorted] = block_of_rank
    return labels


def make_blocks_random(n: int, sizes, rng: np.random.Generator) -> np.ndarray:
    """Uniform random partition of ``n`` units into blocks of the given sizes."""
    sizes = [int(s) for s in sizes]
    if sum(sizes) != n:
        raise ValueError("sizes must sum to n")
    return labels_in_order(rng.permutation(n), sizes)


def between_total_ss(values: np.ndarray, groups: np.ndarray) -> tuple[float, float]:
    """Between-group and total sums of squares around the grand mean."""
    counts, moments = grouped_moments(values, groups)
    between = float(counts @ moments.dev**2)
    return between, float(moments.ss.sum()) + between


def r2_blocks(table: PotentialOutcomeTable) -> float | None:
    """Share of outcome variation explained by block membership, in [0, 1].

    Computed on the stacked (control then treated) outcome vector with 2K
    groups, so both control-mean spread and effect spread register. ``None``
    when the stacked vector is constant (zero total sum of squares).
    """
    stacked = np.concatenate([table.y_c, table.y_t])
    groups = np.concatenate([table.labels, table.labels + table.num_blocks])
    between, total = between_total_ss(stacked, groups)
    if total == 0:
        return None
    return between / total


def within_variance_ratio(values, labels):
    """Average within-block sample variance over the overall sample variance.

    ``None`` when the values are constant. ``values`` may carry leading axes
    (one outcome vector per row, all under the same ``labels``); the result
    is then an array of ratios.
    """
    counts, moments = grouped_moments(values, labels)
    total = np.sum(moments.ss, axis=-1) + moments.dev**2 @ counts
    kept = counts >= 2
    within = np.mean(moments.ss[..., kept] / (counts[kept] - 1), axis=-1)
    if np.ndim(total):
        return within / (total / (counts.sum() - 1))
    if total == 0:
        return None
    return float(within) / (total / (counts.sum() - 1))


# ---------------------------------------------------------------------------
# Data generating processes


@dataclass(frozen=True)
class ScenarioConfig:
    """One finite-population setting for the variance-ratio studies.

    Block control means and block effects are tied to block size with a
    negative relationship (larger blocks get lower means and smaller
    effects), scaled by the two spread knobs. ``rho`` is the within-block
    correlation of the two potential outcomes; 1 means additive effects.
    """

    block_sizes: tuple[int, ...]
    treated_counts: tuple[int, ...]
    control_mean_spread: float
    effect_spread: float
    rho: float
    base_sigma: float
    seed: int

    def __post_init__(self):
        if len(self.block_sizes) != len(self.treated_counts):
            raise ValueError("treated_counts must match block_sizes")
        if any(not 0 < m < s for m, s in zip(self.treated_counts, self.block_sizes)):
            raise ValueError("need 0 < treated < size in every block")
        if not -1 <= self.rho <= 1:
            raise ValueError("rho must be in [-1, 1]")
        if self.base_sigma <= 0:
            raise ValueError("base_sigma must be positive")
        if self.control_mean_spread < 0 or self.effect_spread < 0:
            raise ValueError("spreads must be nonnegative")


def _size_scores(sizes: np.ndarray) -> np.ndarray:
    # Decreasing in block size, centered, range 1 when sizes differ.
    lo, hi = sizes.min(), sizes.max()
    if hi == lo:
        return np.zeros(len(sizes))
    return (sizes.mean() - sizes) / (hi - lo)


def _standardized(values: np.ndarray) -> np.ndarray:
    centered = values - values.mean()
    sd = centered.std(ddof=1)
    if sd == 0:
        raise ValueError("degenerate draw; cannot standardize")
    return centered / sd


def gen_scenario_population(config: ScenarioConfig) -> PotentialOutcomeTable:
    """Draw a finite population whose block moments match targets exactly.

    Per block: control outcomes are drawn from a normal generator and then
    affinely standardized so the empirical block mean and sample variance
    hit the targets exactly; treated outcomes are built from the control
    residuals via Gram-Schmidt so the empirical within-block correlation is
    exactly ``rho``, then standardized to the treated targets. Needs at
    least 3 units per block for the correlation to be well defined.
    """
    sizes = np.asarray(config.block_sizes, dtype=int)
    if np.any(sizes < 3):
        raise ValueError("every block needs at least 3 units")
    rng = np.random.default_rng(config.seed)
    scores = _size_scores(sizes)
    mu_c = config.control_mean_spread * scores
    tau = config.effect_spread * scores
    y_t, y_c = [], []
    for k, size in enumerate(sizes):
        e_c = _standardized(rng.standard_normal(size))
        raw = rng.standard_normal(size)
        resid = raw - raw.mean() - (raw @ e_c) / (e_c @ e_c) * e_c
        e_u = _standardized(resid)
        e_t = config.rho * e_c + np.sqrt(1 - config.rho**2) * e_u
        y_c.append(mu_c[k] + config.base_sigma * e_c)
        y_t.append(mu_c[k] + tau[k] + config.base_sigma * e_t)
    labels = np.repeat(np.arange(1, len(sizes) + 1), sizes)
    return table_from_arrays(labels, np.concatenate(y_t), np.concatenate(y_c))


def gen_xy_population(
    dgp: str, n: int, noise_sigma: float, rng: np.random.Generator
) -> tuple[CovariateSample, PotentialOutcomeTable]:
    """Covariate-outcome populations with a strict zero treatment effect.

    ``x`` cycles the integers 1..16 equally often. The outcome is
    ``x + noise`` (linear), pure noise (indep), or ``10 * [x is odd] + noise``
    (odd). Both potential outcomes equal the realized outcome, so design
    variances can be compared without any role for treatment effects.
    """
    x = xy_covariate(n)
    y = xy_outcome(dgp, x, noise_sigma * rng.standard_normal(n))
    sample = covariate_sample_from_values(x)
    table = table_from_arrays(np.ones(n, dtype=int), y, y, unit_ids=sample.unit_ids)
    return sample, table


def xy_covariate(n: int) -> np.ndarray:
    """The covariate of :func:`gen_xy_population`: the integers 1..16 cycled."""
    if n % 16:
        raise ValueError("n must be a multiple of 16")
    return np.tile(np.arange(1, 17), n // 16).astype(float)


def xy_outcome(dgp: str, x: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Outcome of a DGP of :func:`gen_xy_population` given covariate and noise.

    ``eps`` may carry leading axes (one noise vector per row).
    """
    dgp = dgp.lower()
    if dgp not in DGPS:
        raise ValueError(f"dgp must be one of {DGPS}")
    if dgp == "linear":
        return x + eps
    if dgp == "indep":
        return eps
    return 10.0 * (x.astype(int) % 2 == 1) + eps
