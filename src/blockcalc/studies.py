"""The three canonical simulation studies, exposed to the CLI.

Every study is deterministic given (config, seed): grid points and
replications draw from generators derived via ``SeedSequence(seed,
spawn_key=...)``, and partial results are reduced in a fixed order, so the
worker count never changes the output.

Every study maps over the batches of :func:`batch_bounds`, sized in cells.
``ratio-sweep`` and ``misconceptions`` walk one grid of (spread scale, rho)
points, each point a scenario population (:func:`_map_grid`). A batch is
scored by :func:`_scenario_chunk`: one draw per point, then one
grouped-moments pass per arm over the batch feeds every closed form.
``misconceptions`` then wraps each checked point in a table for its
estimator Monte Carlo, which draws the assignments of every point and both
designs together (:func:`~blockcalc.variance_estimation.varest_variabilities`).
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
    Blocked,
    CompleteRandomization,
    PotentialOutcomeTable,
    centered_moments,
    default_unit_ids,
    grouped_moments,
    outcome_rows_fit,
    pooled_variance,
    require_outcomes_fit,
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


def _child_seed(master_seed: int, *key: int) -> int:
    return int(np.random.SeedSequence(entropy=master_seed, spawn_key=key).generate_state(1)[0])


def batch_bounds(cfg, reps: int) -> list[tuple[int, int]]:
    """A study's ``mc.chunk_bounds``: ``cfg.n`` cells per rep, ``sum(block_sizes)`` per point."""
    if isinstance(cfg, FlexBlockingConfig):
        return mc.chunk_bounds(reps, cfg.n)
    return mc.chunk_bounds(len(cfg.spread_scales) * len(cfg.rhos), sum(cfg.block_sizes))


def _map_grid(chunk, cfg, seed: int, threads: int, bounds) -> list[dict]:
    """The rows of a scenario study in grid order: ``chunk`` mapped over the
    ``bounds`` (or :func:`batch_bounds`) batches of work items
    ``(cfg, seed, index, scale, rho)``, every spread scale, then every
    ``rho`` within it, numbered in turn."""
    pairs = itertools.product(cfg.spread_scales, cfg.rhos)
    grid = [(cfg, seed, i, scale, rho) for i, (scale, rho) in enumerate(pairs)]
    batches = [grid[lo:hi] for lo, hi in bounds or batch_bounds(cfg, 0)]
    return [row for rows in mc.map_ordered(chunk, batches, threads) for row in rows]


def _require_float_range(where: str, **values) -> None:
    """Refuse study variances (or sums of them or of their ratios) that are
    positive and finite in exact arithmetic but underflowed to 0 or
    overflowed; callers compute them with numpy's overflow warnings off, so
    this is the one report. ``where`` names the outcome-scale config field."""
    for name, value in values.items():
        if not 0 < value < math.inf:
            raise ValueError(f"{name} is {float(value)!r} at {where}: outside float64's range")


def _scenario_scale(cfg, scale: float, rho: float) -> str:
    return f"base_sigma {cfg.base_sigma!r} (spread_scale {scale!r}, rho {rho!r})"


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _scenario_chunk(points, treated_counts, key: tuple[int, ...], score):
    """The rows of ``points``, consecutive work items of :func:`_map_grid`, and
    the 0-based block labels and ``(points, n)`` outcomes ``y_t``, ``y_c``.

    Point ``index`` draws from the child seed ``(index, *key)``, the batch
    in one :func:`gen_scenario_outcomes` call; one ``centered_moments`` pass
    per arm (t, c, t - c) feeds ``score(n_k, t, c, tc)``, which returns
    ``{column: value per point}`` and the columns to range-check. Each point
    is then checked in grid order: its ``ScenarioConfig`` (a refused one
    ends the chunk once the points before it pass), its outcomes (a table's
    checks, tested for the whole batch in one :func:`outcome_rows_fit`
    pass, with the message built for the first row that fails), then
    :func:`require_noise_resolved`, then its checked columns' float64
    range. Only a degenerate draw fails the whole batch at once.
    """
    cfg = points[0][0]
    configs, refusal = [], None
    try:
        for _, master_seed, index, scale, rho in points:
            config = ScenarioConfig(
                block_sizes=cfg.block_sizes,
                treated_counts=treated_counts,
                control_mean_spread=scale,
                effect_spread=cfg.effect_spread_factor * scale,
                rho=rho,
                base_sigma=cfg.base_sigma,
                seed=_child_seed(master_seed, index, *key),
            )
            configs.append(config)
    except ValueError as err:
        refusal = err
    if not configs:
        raise refusal
    labels, y_t, y_c = gen_scenario_outcomes(configs)
    n_k = np.bincount(labels)
    t, c, tc = (centered_moments(y, labels, n_k) for y in (y_t, y_c, y_t - y_c))
    columns, checked = score(n_k, t, c, tc)
    cells = np.stack(list(columns.values()), axis=-1).tolist()
    fits = outcome_rows_fit(y_t, y_c)
    rows = []
    for config, fit, y_t_i, y_c_i, point, values in zip(configs, fits, y_t, y_c, points, cells):
        scale, rho = point[3:]
        if not fit:
            require_outcomes_fit(y_t_i, y_c_i)
        require_noise_resolved(config)
        row = dict(zip(["spread_scale", "rho", *columns], [scale, rho, *values]))
        _require_float_range(
            _scenario_scale(cfg, scale, rho), **{name: row[name] for name in checked}
        )
        rows.append(row)
    if refusal is not None:
        raise refusal
    return rows, labels, y_t, y_c


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


def _ratio_sweep_chunk(points) -> list[dict]:
    """The rows of ``points`` (:func:`_scenario_chunk`, child seeds ``(index,)``)."""
    cfg = points[0][0]

    def score(n_k, t, c, tc):
        pooled = (pooled_variance(n_k, arm.dev, arm.ss) for arm in (t, c, tc))
        var_cr = cr_variance(*pooled, n_k.sum(), sum(cfg.treated_equal))
        s2 = [arm.ss / (n_k - 1) for arm in (t, c, tc)]
        eq, uneq = (
            blocked_variance(n_k, block_variances(n_k, np.asarray(n_tk), *s2))
            for n_tk in (cfg.treated_equal, cfg.treated_unequal)
        )
        values = [stacked_r2(n_k, c, t, tc.mean), var_cr, eq, uneq, eq / var_cr, uneq / var_cr]
        return dict(zip(RATIO_SWEEP_COLUMNS[2:], values)), RATIO_SWEEP_COLUMNS[3:6]

    return _scenario_chunk(points, cfg.treated_equal, (), score)[0]


def study_ratio_sweep(
    config: RatioSweepConfig | None = None, seed: int = 0, threads: int = 1, bounds=None
) -> list[dict]:
    """Rows in grid order, from batches of :func:`_ratio_sweep_chunk`."""
    return _map_grid(_ratio_sweep_chunk, config or RatioSweepConfig(), seed, threads, bounds)


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
    threads: int = 1,
    bounds=None,
) -> list[dict]:
    cfg = config or FlexBlockingConfig()
    chunks = [(cfg, seed, lo, hi) for lo, hi in bounds or batch_bounds(cfg, reps)]
    partials = mc.map_ordered(_flex_blocking_chunk, chunks, threads=threads)
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


@np.errstate(over="ignore", invalid="ignore")
def _misconceptions_chunk(points, reps: int) -> list[dict]:
    """The rows of ``points`` (:func:`_scenario_chunk`, child seeds
    ``(index, 0)``), each completed by both variance estimators'
    variability under their own designs, child seeds ``(index, 1)`` for
    complete randomization and ``(index, 2)`` for blocking.

    Every check of :func:`_scenario_chunk` runs before any Monte Carlo:
    each checked row becomes a table, one :func:`varest_variabilities`
    call draws and scores every point under both designs, and the
    ``var_varest_*`` range is then checked in grid order.
    """
    cfg = points[0][0]
    n_tk = np.asarray(cfg.treated_counts)

    def score(n_k, t, c, tc):
        s2 = [arm.ss / (n_k - 1) for arm in (t, c, tc)]
        var_bk = blocked_variance(n_k, block_variances(n_k, n_tk, *s2))
        # The blocked estimator's own conservatism is sum_k (n_k/n)^2 S2_tck / n_k.
        bias = (cr_varest_bias(n_k, n_tk, t, c, *s2), s2[2] @ n_k / int(n_k.sum()) ** 2)
        values = [stacked_r2(n_k, c, t, tc.mean), var_bk, *((var_bk + b) / var_bk for b in bias)]
        return dict(zip(MISCONCEPTIONS_COLUMNS[2:6], values)), ("var_bk",)

    checked, labels, y_t, y_c = _scenario_chunk(points, cfg.treated_counts, (0,), score)
    unit_ids = default_unit_ids(len(labels))
    tables = [PotentialOutcomeTable(unit_ids, labels + 1, *outcomes) for outcomes in zip(y_t, y_c)]
    designs = (CompleteRandomization(sum(cfg.treated_counts)), Blocked(cfg.treated_counts))
    seeds = [[_child_seed(point[1], point[2], key) for key in (1, 2)] for point in points]
    results = varest_variabilities(tables, designs, seeds, reps)
    rows = []
    for point, row, (cr, bk) in zip(points, checked, results):
        cr, bk = cr.var_of_varest, bk.var_of_varest
        _require_float_range(_scenario_scale(cfg, *point[3:]), var_varest_cr=cr, var_varest_bk=bk)
        rows.append({**row, **dict(zip(MISCONCEPTIONS_COLUMNS[6:], (cr, bk, cr / bk, reps)))})
    return rows


def study_misconceptions(
    config: MisconceptionsConfig | None = None,
    seed: int = 0,
    reps: int = MISCONCEPTIONS_REPS,
    threads: int = 1,
    bounds=None,
) -> list[dict]:
    """Rows in grid order, from batches of :func:`_misconceptions_chunk`
    mapped as ``ratio-sweep``'s are. A batch's config, outcome, noise and
    ``var_bk`` range checks all run before any of its Monte Carlo; the
    ``var_varest_*`` range is checked after, in grid order."""
    chunk = functools.partial(_misconceptions_chunk, reps=reps)
    return _map_grid(chunk, config or MisconceptionsConfig(), seed, threads, bounds)


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
    threads: int = 1,
) -> tuple[list[dict], list[str], dict, dict]:
    """Run a named study.

    Returns (rows, column order, resolved config dict, counts). ``counts``
    has the Monte Carlo ``reps`` (per estimator and grid point for
    ``misconceptions``, 0 for ``ratio-sweep``), the ``chunks`` of work
    handed to :func:`mc.map_ordered` (the one :func:`batch_bounds` list
    the study maps over) and the ``workers`` it used. ``ratio-sweep``
    rejects any ``reps``, because it would ignore them.
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
    bounds = batch_bounds(cfg, reps)
    if name == "ratio-sweep":
        rows = study_ratio_sweep(cfg, seed=seed, threads=threads, bounds=bounds)
    elif name == "flexible-blocking":
        rows = study_flexible_blocking(cfg, seed=seed, reps=reps, threads=threads, bounds=bounds)
    else:
        rows = study_misconceptions(cfg, seed=seed, reps=reps, threads=threads, bounds=bounds)
    workers = mc.effective_workers(threads, len(bounds))
    counts = {"reps": reps, "chunks": len(bounds), "workers": workers}
    return rows, columns, dataclasses.asdict(cfg), counts
