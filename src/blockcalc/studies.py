"""The three canonical simulation studies, exposed to the CLI.

Every study is deterministic given (config, seed): replications draw from
generators derived via ``SeedSequence(seed, spawn_key=...)``, and partial
results are reduced in a fixed order, every batch in one process.

``ratio-sweep`` and ``misconceptions`` walk one grid of (spread scale, rho)
points, each point a scenario population whose block means, block
variances and within-block correlation :func:`gen_scenario_outcomes` hits
exactly. Their closed forms depend on the schedule only through those
moments, so both studies score them from the targets alone
(:func:`target_moments`), one array pass over the points. ``ratio-sweep``
therefore draws nothing and its rows do not depend on the seed.
``misconceptions`` maps over the grid batches of :func:`batch_bounds`,
sized in cells: each batch draws its populations in one
:func:`gen_scenario_outcomes` call only to build the tables of its
estimator Monte Carlo, which draws the assignments of every point together,
one design at a time (:func:`~blockcalc.variance_estimation.varest_variabilities`),
and equals a point-by-point run bit for bit. Batch bounds depend on the grid
alone, as a batch's shape can move a drawn population's last bits (by 9e-16).
``flexible-blocking`` sums each batch of reps into one ``(3, methods,
dgps)`` array. A study variance that under- or overflows float64 ends the
study in one error naming the config field that sets the outcome scale
(:func:`_require_float_range`).
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import mc
from .blocking_lab import (
    CovariateSample,
    ScenarioConfig,
    covariate_sample_from_values,
    gen_scenario_outcomes,
    grouped_within_ratio,
    make_blocks_flex,
    make_blocks_interleave,
    make_blocks_peevish,
    require_noise_resolved,
    stacked_r2,
    within_variance_ratio,
    xy_covariate,
    xy_outcome,
)
from .pop_model import (
    ArmStats,
    Blocked,
    CompleteRandomization,
    PotentialOutcomeTable,
    default_unit_ids,
    grouped_moments,
    pooled_variance,
    validate_block_counts,
)
from .variance_estimation import cr_varest_bias, varest_variabilities
from .variance_theory import block_variances, blocked_variance, cr_variance

METHODS = ("flex", "interleave", "peevish")

#: Spread scales swept by the ratio study; larger scale separates the blocks
#: more, pushing the block-predictiveness measure toward 1.
DEFAULT_SCALES = (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0)

#: Default Monte Carlo reps of ``flexible-blocking`` and, per estimator and
#: grid point, of ``misconceptions``.
FLEX_BLOCKING_REPS = 10_000
MISCONCEPTIONS_REPS = 5_000


def _point_seeds(master_seed: int, lo: int, hi: int) -> list[list[int]]:
    """The child seeds ``(index, 0)``, ``(index, 1)`` and ``(index, 2)`` of
    every grid point ``index`` in ``lo..hi-1``, from one :func:`mc.child_seeds` pass."""
    keys = np.stack(np.divmod(np.arange(3 * lo, 3 * hi), 3), axis=1)
    return mc.child_seeds(master_seed, keys).reshape(hi - lo, 3).tolist()


def batch_bounds(cfg, reps: int) -> list[tuple[int, int]]:
    """A study's ``mc.chunk_bounds``: ``cfg.n`` cells per rep, ``sum(block_sizes)`` per point."""
    if isinstance(cfg, FlexBlockingConfig):
        return mc.chunk_bounds(reps, cfg.n)
    return mc.chunk_bounds(len(cfg.spread_scales) * len(cfg.rhos), sum(cfg.block_sizes))


def _require_float_range(where: str, **values) -> None:
    """Refuse study variances (or sums of them or of their ratios) that are
    positive and finite in exact arithmetic but underflowed to 0 or
    overflowed; callers compute them with numpy's overflow warnings off, so
    this is the one report. ``where`` names the outcome-scale config field."""
    for name, value in values.items():
        if not 0 < value < math.inf:
            raise ValueError(f"{name} is {float(value)!r} at {where}: outside float64's range")


def _scenario_configs(cfg, treated_counts, points) -> tuple[list, ValueError | None]:
    """The ``ScenarioConfig`` of every ``(scale, rho)`` of ``points``, or of
    every ``(scale, rho, seed)`` of a population to be drawn, in grid order
    up to the first one refused, and that refusal (None if there is none).
    A refusal of the first point is raised, since no point is left to check
    before it."""
    configs = []
    for scale, rho, *seed in points:
        spreads = (scale, cfg.effect_spread_factor * scale)
        try:
            configs.append(
                ScenarioConfig(cfg.block_sizes, treated_counts, *spreads, rho, cfg.base_sigma, *seed)
            )
        except ValueError as err:
            if not configs:
                raise
            return configs, err
    return configs, None


def target_moments(configs) -> tuple[np.ndarray, list[ArmStats], list[np.ndarray]]:
    """Block sizes ``n_k``, the block moments of t, c and t - c of the
    populations of ``configs``, which share ``block_sizes``, and their block
    variances ``s2``, each with a leading point axis, from the targets that
    :func:`gen_scenario_outcomes` hits: block means ``mu_c + tau`` and
    ``mu_c`` (``ScenarioConfig.block_means``), ``s2 = base_sigma**2`` in both
    arms and, the within-block correlation being ``rho``,
    ``2 base_sigma**2 (1 - rho)`` for t - c, and ``ss = (n_k - 1) s2``. No
    population is drawn."""
    n_k = np.asarray(configs[0].block_sizes)
    mu_c, tau = np.stack([config.block_means() for config in configs], axis=1)
    base_sigma, rho = np.array([[config.base_sigma, config.rho] for config in configs]).T
    s2_arm = np.broadcast_to(base_sigma[:, None] ** 2, (len(configs), len(n_k)))
    s2 = [s2_arm, s2_arm, s2_arm * 2 * (1 - rho[:, None])]
    weights = n_k / n_k.sum()
    arms = []
    for means, s2_k in zip((mu_c + tau, mu_c, tau), s2):
        mean = means @ weights
        arms.append(ArmStats(mean=mean, dev=means - mean[:, None], ss=(n_k - 1) * s2_k))
    return n_k, arms, s2


def _scenario_scale(config: ScenarioConfig) -> str:
    scale, rho = config.control_mean_spread, config.rho
    return f"base_sigma {config.base_sigma!r} (spread_scale {scale!r}, rho {rho!r})"


def _scenario_row(config: ScenarioConfig, columns, values, checked) -> dict:
    """The row ``columns`` of one grid point (spread scale, rho, then
    ``values``), once :func:`require_noise_resolved` and the float64 range
    of its ``checked`` columns pass."""
    require_noise_resolved(config)
    row = dict(zip(columns, [config.control_mean_spread, config.rho, *values]))
    _require_float_range(_scenario_scale(config), **{name: row[name] for name in checked})
    return row


# ---------------------------------------------------------------------------
# Ratio sweep


@dataclass(frozen=True)
class RatioSweepConfig:
    """Finite-sample variance-ratio sweep over block separation settings.

    Eight blocks of sizes 10/15/20 (115 units, 23 treated). The equal
    proportion arm treats 20% in every block; the unequal arm perturbs the
    per-block proportions around 20% (more disparate in smaller blocks,
    because counts are integers) while keeping 23 treated overall so the
    completely randomized comparison is the same in both arms.
    """

    block_sizes: tuple[int, ...] = (10, 10, 10, 15, 15, 15, 20, 20)
    treated_equal: tuple[int, ...] = (2, 2, 2, 3, 3, 3, 4, 4)
    treated_unequal: tuple[int, ...] = (1, 3, 3, 2, 4, 2, 3, 5)
    spread_scales: tuple[float, ...] = DEFAULT_SCALES
    effect_spread_factor: float = 0.5
    rhos: tuple[float, ...] = (0.0, 0.5, 1.0)
    base_sigma: float = 1.0

    def __post_init__(self):
        if sum(self.treated_equal) != sum(self.treated_unequal):
            raise ValueError("both treatment arms must treat the same total")
        validate_block_counts(Blocked(self.treated_unequal).n_tk, self.block_sizes)


RATIO_SWEEP_COLUMNS = [
    "spread_scale",
    "rho",
    "r2",
    "var_cr",
    "var_bk_equal_p",
    "var_bk_unequal_p",
    "ratio_equal_p",
    "ratio_unequal_p",
]


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def study_ratio_sweep(config: RatioSweepConfig | None = None) -> list[dict]:
    """Rows in grid order, every spread scale, then every ``rho`` within it,
    scored from :func:`target_moments` in one pass. Nothing is drawn, so the
    study takes no seed. Each point is checked in grid order: its
    ``ScenarioConfig`` (a refused one ends the study once the points before
    it pass), then :func:`require_noise_resolved`, then the float64 range of
    ``var_cr`` and both ``var_bk`` columns."""
    cfg = config or RatioSweepConfig()
    points = itertools.product(cfg.spread_scales, cfg.rhos)
    configs, refusal = _scenario_configs(cfg, cfg.treated_equal, points)
    n_k, (t, c, tc), s2 = target_moments(configs)
    pooled = (pooled_variance(n_k, arm.dev, arm.ss) for arm in (t, c, tc))
    var_cr = cr_variance(*pooled, n_k.sum(), sum(cfg.treated_equal))
    eq, uneq = (
        blocked_variance(n_k, block_variances(n_k, np.asarray(n_tk), *s2))
        for n_tk in (cfg.treated_equal, cfg.treated_unequal)
    )
    values = [stacked_r2(n_k, c, t, tc.mean), var_cr, eq, uneq, eq / var_cr, uneq / var_cr]
    rows = [
        _scenario_row(config, RATIO_SWEEP_COLUMNS, cells, RATIO_SWEEP_COLUMNS[3:6])
        for config, cells in zip(configs, np.stack(values, axis=-1).tolist())
    ]
    if refusal is not None:
        raise refusal
    return rows


# ---------------------------------------------------------------------------
# Flexible blocking


@dataclass(frozen=True)
class FlexBlockingConfig:
    """Blocking-method comparison under three covariate-outcome relationships.

    Half the units are treated; every method forms blocks from the same
    integer covariate cycling 1..16. Outcomes carry a strict zero treatment
    effect so design variances compare cleanly.
    """

    n: int = 64
    block_size: int = 8
    interleave_blocks: int = 8
    noise_sigma: float = 1.0
    dgps: tuple[str, ...] = ("linear", "indep", "odd")
    methods: tuple[str, ...] = METHODS

    def __post_init__(self):
        if self.n < 16 or self.n % 16:
            raise ValueError(f"n must be a positive multiple of 16, got {self.n}")
        if self.noise_sigma <= 0:
            raise ValueError(f"noise_sigma must be positive, got {self.noise_sigma}")
        if self.block_size < 2:
            raise ValueError(f"block_size must be at least 2, got {self.block_size}")
        if self.n % self.block_size:
            raise ValueError("block_size must divide n")
        if self.block_size % 2:
            raise ValueError("block_size must be even")


FLEX_BLOCKING_COLUMNS = [
    "method",
    "dgp",
    "rel_se_pct",
    "x_within_over_total_pct",
    "y_within_over_total_pct",
    "reps",
]


def _method_labels(cfg: FlexBlockingConfig) -> tuple[CovariateSample, dict[str, np.ndarray]]:
    # The covariate is deterministic, so each method's labels are fixed
    # across replications.
    sample = covariate_sample_from_values(xy_covariate(cfg.n))
    out = {}
    for method in cfg.methods:
        if method == "flex":
            out[method] = make_blocks_flex(sample, cfg.block_size)
        elif method == "interleave":
            out[method] = make_blocks_interleave(sample, cfg.interleave_blocks)
        elif method == "peevish":
            out[method] = make_blocks_peevish(sample, cfg.block_size)
        else:
            raise ValueError(f"unknown blocking method {method!r}")
    return sample, out


@np.errstate(over="ignore", invalid="ignore")
def _flex_blocking_chunk(args) -> np.ndarray:
    """Sums over the reps ``lo..hi-1`` of ``var_cr`` (the same for every
    method), ``var_bk`` and the outcome within-variance ratio, as one
    ``(3, methods, dgps)`` array.

    Replication ``r`` draws one ``standard_normal(n)`` per DGP, in DGP
    order, as :func:`gen_xy_population` would, from the generator
    ``mc.rep_rngs`` yields for it (the state of ``mc.rep_rng(seed, r)``);
    that generator is reused, so each rep's draw is made before the next
    rep's generator is asked for. The outcomes of every rep and DGP form
    one ``(dgps, reps, n)`` array; one grouped pass per method feeds both
    ``var_bk`` (half of every block treated) and the within-variance ratio.
    The two potential outcomes are equal, so every ``S2_tc`` term is 0.
    """
    cfg, master_seed, lo, hi = args
    sample, labels = _method_labels(cfg)
    n, n_t = cfg.n, cfg.n // 2
    noise = np.stack(
        [rng.standard_normal((len(cfg.dgps), n)) for rng in mc.rep_rngs(master_seed, lo, hi)],
        axis=1,
    )
    y = np.stack(
        [xy_outcome(dgp, sample.x, cfg.noise_sigma * eps) for dgp, eps in zip(cfg.dgps, noise)]
    )
    s2 = np.var(y, axis=-1, ddof=1)
    sums = np.empty((3, len(cfg.methods), len(cfg.dgps)))
    sums[0] = cr_variance(s2, s2, 0.0, n, n_t).sum(axis=1)
    for m, method in enumerate(cfg.methods):
        counts, moments = grouped_moments(y, labels[method])
        s2_k = moments.ss / (counts - 1)
        var_bk = blocked_variance(counts, block_variances(counts, counts // 2, s2_k, s2_k, 0.0))
        sums[1, m] = var_bk.sum(axis=1)
        sums[2, m] = grouped_within_ratio(counts, moments).sum(axis=1)
    return sums


def study_flexible_blocking(
    config: FlexBlockingConfig | None = None,
    seed: int = 0,
    reps: int = FLEX_BLOCKING_REPS,
    bounds=None,
) -> list[dict]:
    cfg = config or FlexBlockingConfig()
    chunks = [(cfg, seed, lo, hi) for lo, hi in bounds or batch_bounds(cfg, reps)]
    partials = mc.map_ordered(_flex_blocking_chunk, chunks)
    var_cr, var_bk, y_ratio = functools.reduce(operator.add, partials)
    sample, labels = _method_labels(cfg)
    rows = []
    for m, method in enumerate(cfg.methods):
        x_ratio = within_variance_ratio(sample.x, labels[method])
        for d, dgp in enumerate(cfg.dgps):
            _require_float_range(
                f"noise_sigma {cfg.noise_sigma!r} (method {method!r}, dgp {dgp!r})",
                var_cr=var_cr[m, d],
                var_bk=var_bk[m, d],
                y_within_ratio=y_ratio[m, d],
            )
            rows.append(
                {
                    "method": method,
                    "dgp": dgp,
                    "rel_se_pct": 100.0 * float(np.sqrt(var_bk[m, d] / var_cr[m, d])),
                    "x_within_over_total_pct": 100.0 * x_ratio,
                    "y_within_over_total_pct": 100.0 * float(y_ratio[m, d]) / reps,
                    "reps": reps,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Misconceptions


@dataclass(frozen=True)
class MisconceptionsConfig:
    """Variance-estimator behavior across the same population grid.

    Equal proportions only: ``treated_counts`` must fit ``block_sizes``,
    treat the same share of every block and leave both arms 2 units. For
    each population the expectations of both variance estimators under the
    blocked design come from closed forms; the variability of each estimator
    under its own design is simulated.
    """

    block_sizes: tuple[int, ...] = (10, 10, 10, 15, 15, 15, 20, 20)
    treated_counts: tuple[int, ...] = (2, 2, 2, 3, 3, 3, 4, 4)
    spread_scales: tuple[float, ...] = (0.0, 0.25, 0.5, 1.0, 2.0, 3.0)
    effect_spread_factor: float = 0.5
    rhos: tuple[float, ...] = (0.0, 0.5, 1.0)
    base_sigma: float = 1.0

    def __post_init__(self):
        counts, sizes = list(self.treated_counts), list(self.block_sizes)
        try:
            validate_block_counts(counts, sizes)
        except ValueError as err:
            message = f"treated_counts {counts} do not fit block_sizes {sizes}: {err}"
            raise ValueError(message) from None
        n, n_t = sum(sizes), sum(counts)
        if any(m * n != n_t * size for m, size in zip(counts, sizes)):
            raise ValueError(f"treated_counts {counts} must treat the same share of every block")
        if min(n_t, n - n_t) < 2:
            raise ValueError(f"treated_counts {counts} must leave at least 2 units in each arm")


MISCONCEPTIONS_COLUMNS = [
    "spread_scale",
    "rho",
    "r2",
    "var_bk",
    "expected_varest_cr_over_var_bk",
    "expected_varest_bk_over_var_bk",
    "var_varest_cr",
    "var_varest_bk",
    "var_varest_cr_over_bk",
    "reps",
]


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _misconceptions_chunk(args) -> list[dict]:
    """The rows of the grid points ``lo..hi-1``, scored from
    :func:`target_moments` and each completed by both variance estimators'
    variability under their own designs, child seeds ``(index, 1)`` for
    complete randomization and ``(index, 2)`` for blocking.

    The estimator Monte Carlo needs each point's table, so the batch's
    populations are drawn in one :func:`gen_scenario_outcomes` call, point
    ``index`` from child seed ``(index, 0)``. Each point is then checked
    in grid order, all before any Monte Carlo: its ``ScenarioConfig`` (a
    refused one ends the batch once the points before it pass), its
    outcomes (the ``PotentialOutcomeTable`` constructor), then
    :func:`require_noise_resolved`, then the float64 range of ``var_bk``.
    One :func:`varest_variabilities` call per design draws and scores
    every point, and the ``var_varest_*`` range is then checked in grid
    order.
    """
    cfg, master_seed, reps, lo, hi = args
    points = itertools.islice(itertools.product(cfg.spread_scales, cfg.rhos), lo, hi)
    seeds = _point_seeds(master_seed, lo, hi)
    points = [(*point, point_seeds[0]) for point, point_seeds in zip(points, seeds)]
    configs, refusal = _scenario_configs(cfg, cfg.treated_counts, points)
    n_k, (t, c, tc), s2 = target_moments(configs)
    n_tk = np.asarray(cfg.treated_counts)
    var_bk = blocked_variance(n_k, block_variances(n_k, n_tk, *s2))
    # The blocked estimator's own conservatism is sum_k (n_k/n)^2 S2_tck / n_k.
    bias = (cr_varest_bias(n_k, n_tk, t, c, *s2), s2[2] @ n_k / int(n_k.sum()) ** 2)
    values = [stacked_r2(n_k, c, t, tc.mean), var_bk, *((var_bk + b) / var_bk for b in bias)]
    labels, y_t, y_c = gen_scenario_outcomes(configs)
    unit_ids = default_unit_ids(len(labels))
    tables, checked = [], []
    for config, cells, *outcomes in zip(configs, np.stack(values, axis=-1).tolist(), y_t, y_c):
        tables.append(PotentialOutcomeTable(unit_ids, labels + 1, *outcomes))
        checked.append(_scenario_row(config, MISCONCEPTIONS_COLUMNS, cells, ("var_bk",)))
    del y_t, y_c, outcomes  # the tables hold their own copies
    if refusal is not None:
        raise refusal
    designs = (CompleteRandomization(sum(cfg.treated_counts)), Blocked(cfg.treated_counts))
    results = [varest_variabilities(tables, design, [s[key] for s in seeds], reps)
               for key, design in enumerate(designs, 1)]
    rows = []
    for config, row, cr, bk in zip(configs, checked, *results):
        cr, bk = cr.var_of_varest, bk.var_of_varest
        _require_float_range(_scenario_scale(config), var_varest_cr=cr, var_varest_bk=bk)
        rows.append({**row, **dict(zip(MISCONCEPTIONS_COLUMNS[6:], (cr, bk, cr / bk, reps)))})
    return rows


def study_misconceptions(
    config: MisconceptionsConfig | None = None,
    seed: int = 0,
    reps: int = MISCONCEPTIONS_REPS,
    bounds=None,
) -> list[dict]:
    """Rows in grid order, every spread scale, then every ``rho`` within it,
    from :func:`_misconceptions_chunk` mapped over the ``bounds`` (or
    :func:`batch_bounds`) batches of grid points. A batch's config, outcome,
    noise and ``var_bk`` range checks all run before any of its Monte Carlo;
    the ``var_varest_*`` range is checked after, in grid order."""
    cfg = config or MisconceptionsConfig()
    batches = [(cfg, seed, reps, lo, hi) for lo, hi in bounds or batch_bounds(cfg, 0)]
    return [row for rows in mc.map_ordered(_misconceptions_chunk, batches) for row in rows]


STUDIES = {
    "ratio-sweep": (RatioSweepConfig, RATIO_SWEEP_COLUMNS, 0),
    "flexible-blocking": (FlexBlockingConfig, FLEX_BLOCKING_COLUMNS, FLEX_BLOCKING_REPS),
    "misconceptions": (MisconceptionsConfig, MISCONCEPTIONS_COLUMNS, MISCONCEPTIONS_REPS),
}


def config_from_dict(name: str, overrides: dict | None):
    """Build a study config, replacing defaults with JSON-sourced fields
    (``None``, or a config file holding JSON ``null``, keeps every default)."""
    cls = STUDIES[name][0]
    cfg = cls()
    if overrides is None:
        return cfg
    if not isinstance(overrides, dict):
        raise ValueError(f"config for {name} must be a JSON object")
    fields = {f.name for f in dataclasses.fields(cls)}
    unknown = set(overrides) - fields
    if unknown:
        raise ValueError(f"unknown config fields for {name}: {sorted(unknown)}")
    cleaned = {}
    for key, value in overrides.items():
        default = getattr(cfg, key)
        if isinstance(default, tuple):
            ok = isinstance(value, list) and len(value) > 0 and all(
                _json_type_matches(v, default[0]) for v in value
            )
            expected = f"a non-empty list of {_JSON_TYPE_NAMES[type(default[0])]}s"
        else:
            ok = _json_type_matches(value, default)
            expected = f"a JSON {_JSON_TYPE_NAMES[type(default)]}"
        if not ok:
            raise ValueError(f"config field {key!r} for {name} must be {expected}, got {value!r}")
        cleaned[key] = tuple(value) if isinstance(default, tuple) else value
    return dataclasses.replace(cfg, **cleaned)


_JSON_TYPE_NAMES = {bool: "boolean", int: "integer", float: "finite number", str: "string"}


def _json_type_matches(value, default) -> bool:
    # bool is an int subclass in Python but a separate JSON type.
    if isinstance(value, bool):
        return isinstance(default, bool)
    if isinstance(default, float):
        # JSON's NaN and Infinity, and numbers past the float range such as
        # 1e400, parse to floats that are not finite.
        return isinstance(value, int) or (isinstance(value, float) and math.isfinite(value))
    return isinstance(value, type(default))


def run_study(
    name: str,
    config_overrides: dict | None = None,
    seed: int = 0,
    reps: int | None = None,
) -> tuple[list[dict], list[str], dict, dict]:
    """Run a named study.

    Returns (rows, column order, resolved config dict, counts). ``counts``
    has the Monte Carlo ``reps`` (per estimator and grid point for
    ``misconceptions``, 0 for ``ratio-sweep``), the ``chunks`` of work
    handed to :func:`mc.map_ordered` (the one :func:`batch_bounds` list
    the study maps over) and ``workers``, always 1; ``ratio-sweep``
    scores its grid in one pass, so one chunk. It rejects any ``reps``,
    because it would ignore them.
    """
    if name not in STUDIES:
        raise ValueError(f"unknown study {name!r}; choose from {sorted(STUDIES)}")
    if name == "ratio-sweep" and reps is not None:
        raise ValueError(
            f"study ratio-sweep takes no reps (it draws no Monte Carlo replications), got {reps}"
        )
    if reps is not None and reps < 1:
        raise ValueError(f"reps must be at least 1, got {reps}")
    cfg = config_from_dict(name, config_overrides)
    _, columns, default_reps = STUDIES[name]
    reps = default_reps if reps is None else reps
    if name == "ratio-sweep":
        rows, chunks = study_ratio_sweep(cfg), 1
    else:
        bounds = batch_bounds(cfg, reps)
        study = study_flexible_blocking if name == "flexible-blocking" else study_misconceptions
        rows, chunks = study(cfg, seed=seed, reps=reps, bounds=bounds), len(bounds)
    counts = {"reps": reps, "chunks": chunks, "workers": 1}
    return rows, columns, dataclasses.asdict(cfg), counts
