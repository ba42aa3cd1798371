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

from .pop_model import (
    ArmStats,
    PotentialOutcomeTable,
    _group_sums,
    _read_only,
    centered_moments,
    default_unit_ids,
    grouped_moments,
    read_csv_columns,
    table_from_arrays,
)

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
    return CovariateSample(unit_ids=default_unit_ids(len(x)), x=x)


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


def r2_blocks(table: PotentialOutcomeTable) -> float | None:
    """Share of outcome variation explained by block membership, in [0, 1].

    Computed on the stacked (control then treated) outcome vector with 2K
    groups, so both control-mean spread and effect spread register. ``None``
    when the stacked vector is constant (zero total sum of squares). Read
    from ``table.stats`` by :func:`stacked_r2`.
    """
    st = table.stats
    r2 = stacked_r2(st.n_k, st.c, st.t, st.tc.mean)
    return None if np.isnan(r2) else float(r2)


def stacked_r2(n_k: np.ndarray, c: ArmStats, t: ArmStats, tau):
    """:func:`r2_blocks` from block sizes ``n_k``, the block moments of the
    control and treated arms and the mean effect ``tau``; the moments may
    carry leading axes (one population per row, all with blocks ``n_k``).
    ``nan`` where the stacked vector is constant.

    The arm means sit ``tau / 2`` below and above the stacked mean, so the
    between sum of squares is both arms' own plus ``n * tau**2 / 2``, and
    the total adds both arms' within-block sums of squares. Every moment is
    first divided by the largest of ``|dev|``, ``sqrt(ss)`` and ``|tau|``,
    so no square or sum over- or underflows at any outcome scale.
    """
    peak = np.abs(tau)
    for part in (c.dev, t.dev, np.sqrt(c.ss), np.sqrt(t.ss)):
        peak = np.maximum(peak, np.abs(part).max(axis=-1))
    scale = peak[..., None]
    with np.errstate(invalid="ignore"):  # 0 / 0 where every moment is 0
        between = ((c.dev / scale) ** 2 + (t.dev / scale) ** 2) @ n_k
        between = between + n_k.sum() * (tau / peak) ** 2 / 2
        within = ((c.ss / scale + t.ss / scale) / scale).sum(axis=-1)
        return between / (between + within)


def within_variance_ratio(values, labels):
    """Average within-block sample variance over the overall sample variance.

    ``None`` when the values are constant. ``values`` may carry leading axes
    (one outcome vector per row, all under the same ``labels``); the result
    is then an array of ratios.
    """
    return grouped_within_ratio(*grouped_moments(values, labels))


def grouped_within_ratio(counts, moments: ArmStats):
    """:func:`within_variance_ratio` of :func:`grouped_moments`'s result;
    singleton groups are left out of the within-block average."""
    total = np.sum(moments.ss, axis=-1) + moments.dev**2 @ counts
    if np.ndim(total) == 0 and total == 0:
        return None
    kept = counts >= 2
    within = np.mean(moments.ss[..., kept] / (counts[kept] - 1), axis=-1)
    return within / (total / (counts.sum() - 1))


# ---------------------------------------------------------------------------
# Data generating processes


@dataclass(frozen=True)
class ScenarioConfig:
    """One finite-population setting for the variance-ratio studies.

    Block control means and block effects are tied to block size with a
    negative relationship (larger blocks get lower means and smaller
    effects), scaled by the two spread knobs. ``rho`` is the within-block
    correlation of the two potential outcomes; 1 means additive effects.
    ``seed`` seeds the draw of :func:`gen_scenario_outcomes`; a population
    scored from its target moments alone is never drawn and leaves it 0.
    """

    block_sizes: tuple[int, ...]
    treated_counts: tuple[int, ...]
    control_mean_spread: float
    effect_spread: float
    rho: float
    base_sigma: float
    seed: int = 0

    def __post_init__(self):
        if len(self.block_sizes) != len(self.treated_counts):
            raise ValueError("treated_counts must match block_sizes")
        # Two units have a within-block correlation of +-1 whatever rho asks.
        if any(size < 3 for size in self.block_sizes):
            raise ValueError("every block needs at least 3 units")
        if any(not 0 < m < s for m, s in zip(self.treated_counts, self.block_sizes)):
            raise ValueError("need 0 < treated < size in every block")
        for name in ("base_sigma", "control_mean_spread", "effect_spread"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not -1 <= self.rho <= 1:
            raise ValueError("rho must be in [-1, 1]")
        if self.base_sigma <= 0:
            raise ValueError("base_sigma must be positive")
        if self.control_mean_spread < 0 or self.effect_spread < 0:
            raise ValueError("spreads must be nonnegative")
        scores = _size_scores(np.asarray(self.block_sizes, dtype=int))
        means = (self.control_mean_spread * scores, self.effect_spread * scores)
        object.__setattr__(self, "_block_means", tuple(map(_read_only, means)))

    def block_means(self) -> tuple[np.ndarray, np.ndarray]:
        """Target control means and block effects per block, fixed at construction (read-only)."""
        return self._block_means


def _size_scores(sizes: np.ndarray) -> np.ndarray:
    # Decreasing in block size, centered, range 1 when sizes differ.
    lo, hi = sizes.min(), sizes.max()
    if hi == lo:
        return np.zeros(len(sizes))
    return (sizes.mean() - sizes) / (hi - lo)


def _standardized(values: np.ndarray, labels: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The rows of ``values`` centered and scaled to sample sd 1 within each
    block of ``labels``."""
    moments = centered_moments(values, labels, sizes)
    sd = np.sqrt(moments.ss / (sizes - 1))
    if not sd.all():
        raise ValueError("degenerate draw; cannot standardize")
    return (values - moments.mean[:, None] - moments.dev[:, labels]) / sd[:, labels]


def gen_scenario_outcomes(configs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw the populations of ``configs``, which share ``block_sizes``, as one
    batch: the 0-based block labels and ``y_t`` and ``y_c`` as ``(points, n)``
    arrays, row ``i`` the population of ``configs[i]``.

    Each population's block moments match its targets exactly: per block,
    control outcomes are drawn from a normal generator and then affinely
    standardized so the empirical block mean and sample variance hit the
    targets; treated outcomes are built from the control residuals via
    Gram-Schmidt so the empirical within-block correlation is exactly
    ``rho``, then standardized to the treated targets (``ScenarioConfig``
    refuses blocks of fewer than 3 units, whose correlation is +-1).

    Row ``i`` takes one ``default_rng(configs[i].seed).standard_normal(2n)``
    draw, read block by block as ``[c_1, raw_1, c_2, raw_2, ...]``: block
    ``k``'s control draws, then its raw draws for the treated residual,
    ``size_k`` normals each. That is the order of one pair of
    ``standard_normal(size_k)`` calls per block, so populations match
    earlier versions to 1e-12. Every per-block mean, variance and
    projection is a segment sum over the block labels, for every row at
    once (:func:`pop_model.centered_moments`). A degenerate draw in any
    row fails the batch.
    """
    sizes = np.asarray(configs[0].block_sizes, dtype=int)
    if any(config.block_sizes != configs[0].block_sizes for config in configs):
        raise ValueError("a scenario batch needs one block_sizes")
    k = len(sizes)
    labels = np.repeat(np.arange(k), sizes)
    n = len(labels)
    draws = np.stack([np.random.default_rng(c.seed).standard_normal(2 * n) for c in configs])
    # Unit i of block l sits i - start_l into the block, so its control draw
    # is at 2 * start_l + (i - start_l) and its raw draw size_l further on.
    control_at = np.arange(n) + (np.cumsum(sizes) - sizes)[labels]
    e_c = _standardized(draws[:, control_at], labels, sizes)
    raw = draws[:, control_at + sizes[labels]]
    slope = _group_sums(raw * e_c, labels, k) / _group_sums(e_c * e_c, labels, k)
    # The residual is left uncentered: _standardized centers it.
    e_u = _standardized(raw - slope[:, labels] * e_c, labels, sizes)
    rho = np.array([[c.rho] for c in configs])
    base_sigma = np.array([[c.base_sigma] for c in configs])
    e_t = rho * e_c + np.sqrt(1 - rho**2) * e_u
    mu_c, tau = np.stack([c.block_means() for c in configs], axis=1)
    y_c = mu_c[:, labels] + base_sigma * e_c
    y_t = (mu_c + tau)[:, labels] + base_sigma * e_t
    return labels, y_t, y_c


def require_noise_resolved(config: ScenarioConfig) -> None:
    """Refuse a ``base_sigma`` below one ulp of the largest target block mean.

    Added to such means the within-block noise is lost to rounding, and
    what is left of it is rounding residue, not the population asked for.
    :func:`gen_scenario_population` and ``misconceptions`` check it right
    after a population's outcome checks (the ``PotentialOutcomeTable``
    constructor), which refuse means too large for float64 first.
    ``ratio-sweep`` draws no population and checks it right after the
    point's ``ScenarioConfig``.
    """
    mu_c, tau = config.block_means()
    peak = max(float(np.abs(mu_c).max()), float(np.abs(mu_c + tau).max()))
    if config.base_sigma < np.spacing(peak):
        raise ValueError(
            f"base_sigma {config.base_sigma!r} is below one ulp of the largest target block "
            f"mean {peak!r} (control_mean_spread {config.control_mean_spread!r}, effect_spread "
            f"{config.effect_spread!r}): float64 cannot hold the within-block spread"
        )


def gen_scenario_population(config: ScenarioConfig) -> PotentialOutcomeTable:
    """The population of one config: :func:`gen_scenario_outcomes` of the batch
    ``[config]`` as a table with unit ids ``u1..un``, whose noise
    :func:`require_noise_resolved` has checked."""
    labels, y_t, y_c = gen_scenario_outcomes([config])
    table = PotentialOutcomeTable(default_unit_ids(len(labels)), labels + 1, y_t[0], y_c[0])
    require_noise_resolved(config)
    return table


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
    return (np.arange(n) % 16 + 1).astype(float)


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
