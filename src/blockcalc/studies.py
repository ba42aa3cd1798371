"""The three canonical simulation studies, exposed to the CLI.

Every study is deterministic given (config, seed): grid points and
replications draw from generators derived via ``SeedSequence(seed,
spawn_key=...)``, and partial results are reduced in a fixed order, so the
worker count never changes the output.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import mc
from .blocking_lab import (
    CovariateSample,
    ScenarioConfig,
    covariate_sample_from_values,
    gen_scenario_population,
    make_blocks_flex,
    make_blocks_interleave,
    make_blocks_peevish,
    r2_blocks,
    within_variance_ratio,
    xy_covariate,
    xy_outcome,
)
from .pop_model import Blocked, CompleteRandomization, grouped_moments
from .variance_estimation import cr_varest_bias_under_blocking, varest_variability
from .variance_theory import (
    block_variances,
    blocked_variance,
    cr_variance,
    neyman_var_blocked,
    neyman_var_cr,
)

METHODS = ("flex", "interleave", "peevish")

#: Spread scales swept by the ratio study; larger scale separates the blocks
#: more, pushing the block-predictiveness measure toward 1.
DEFAULT_SCALES = (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0)


def _child_seed(master_seed: int, *key: int) -> int:
    return int(np.random.SeedSequence(entropy=master_seed, spawn_key=key).generate_state(1)[0])


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


def _scenario(cfg, scale: float, rho: float, seed: int) -> ScenarioConfig:
    return ScenarioConfig(
        block_sizes=cfg.block_sizes,
        treated_counts=cfg.treated_equal,
        control_mean_spread=scale,
        effect_spread=cfg.effect_spread_factor * scale,
        rho=rho,
        base_sigma=cfg.base_sigma,
        seed=seed,
    )


def _ratio_sweep_point(args) -> dict:
    cfg, master_seed, index, scale, rho = args
    table = gen_scenario_population(_scenario(cfg, scale, rho, _child_seed(master_seed, index)))
    n_t = sum(cfg.treated_equal)
    var_cr = neyman_var_cr(table, n_t)
    var_bk_eq = neyman_var_blocked(table, Blocked(cfg.treated_equal))
    var_bk_uneq = neyman_var_blocked(table, Blocked(cfg.treated_unequal))
    return {
        "spread_scale": scale,
        "rho": rho,
        "r2": r2_blocks(table),
        "var_cr": var_cr,
        "var_bk_equal_p": var_bk_eq,
        "var_bk_unequal_p": var_bk_uneq,
        "ratio_equal_p": var_bk_eq / var_cr,
        "ratio_unequal_p": var_bk_uneq / var_cr,
    }


def study_ratio_sweep(
    config: RatioSweepConfig | None = None, seed: int = 0, threads: int = 1
) -> list[dict]:
    cfg = config or RatioSweepConfig()
    grid = [
        (cfg, seed, i, scale, rho)
        for i, (scale, rho) in enumerate(
            (s, r) for s in cfg.spread_scales for r in cfg.rhos
        )
    ]
    return mc.map_ordered(_ratio_sweep_point, grid, threads=threads)


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
        if self.n % 16:
            raise ValueError("n must be a multiple of 16")
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


def _flex_blocking_chunk(args) -> dict:
    """Sums over the reps ``lo..hi-1`` of ``var_cr`` per DGP and of each
    method's ``var_bk`` and outcome within-variance ratio.

    Replication ``r`` draws one ``standard_normal(n)`` per DGP, in DGP
    order, as :func:`gen_xy_population` would, from the generator
    ``mc.rep_rngs`` yields for it (the state of ``mc.rep_rng(seed, r)``);
    that generator is reused, so each rep's draw is made before the next
    rep's generator is asked for. The outcomes of every rep and DGP form
    one ``(dgps, reps, n)`` array, evaluated under each method's fixed
    labels by grouped sums; the two potential outcomes are equal, so every
    ``S2_tc`` term is 0.
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
    var_cr = cr_variance(s2, s2, 0.0, n, n_t)
    sums = {
        "var_cr": {dgp: float(v) for dgp, v in zip(cfg.dgps, var_cr.sum(axis=1))},
        "var_bk": {},
        "y_ratio": {},
    }
    for method in cfg.methods:
        counts, moments = grouped_moments(y, labels[method])
        s2_k = moments.ss / (counts - 1)
        n_tk = np.asarray(Blocked(tuple(int(c) // 2 for c in counts)).n_tk)
        var_bk = blocked_variance(counts, block_variances(counts, n_tk, s2_k, s2_k, 0.0))
        y_ratio = within_variance_ratio(y, labels[method])
        for d, dgp in enumerate(cfg.dgps):
            sums["var_bk"][(method, dgp)] = float(var_bk[d].sum())
            sums["y_ratio"][(method, dgp)] = float(y_ratio[d].sum())
    return sums


def study_flexible_blocking(
    config: FlexBlockingConfig | None = None,
    seed: int = 0,
    reps: int = 10_000,
    threads: int = 1,
) -> list[dict]:
    cfg = config or FlexBlockingConfig()
    chunks = [(cfg, seed, lo, hi) for lo, hi in mc.chunk_bounds(reps)]
    partials = mc.map_ordered(_flex_blocking_chunk, chunks, threads=threads)
    totals = partials[0]
    for part in partials[1:]:
        for group in totals:
            for key in totals[group]:
                totals[group][key] += part[group][key]
    sample, labels = _method_labels(cfg)
    rows = []
    for method in cfg.methods:
        x_ratio = within_variance_ratio(sample.x, labels[method])
        for dgp in cfg.dgps:
            rows.append(
                {
                    "method": method,
                    "dgp": dgp,
                    "rel_se_pct": 100.0
                    * float(
                        np.sqrt(totals["var_bk"][(method, dgp)] / totals["var_cr"][dgp])
                    ),
                    "x_within_over_total_pct": 100.0 * x_ratio,
                    "y_within_over_total_pct": 100.0
                    * totals["y_ratio"][(method, dgp)]
                    / reps,
                    "reps": reps,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Misconceptions


@dataclass(frozen=True)
class MisconceptionsConfig:
    """Variance-estimator behavior across the same population grid.

    Equal proportions only. For each population the expectations of both
    variance estimators under the blocked design come from closed forms;
    the variability of each estimator under its own design is simulated.
    """

    block_sizes: tuple[int, ...] = (10, 10, 10, 15, 15, 15, 20, 20)
    treated_counts: tuple[int, ...] = (2, 2, 2, 3, 3, 3, 4, 4)
    spread_scales: tuple[float, ...] = (0.0, 0.25, 0.5, 1.0, 2.0, 3.0)
    effect_spread_factor: float = 0.5
    rhos: tuple[float, ...] = (0.0, 0.5, 1.0)
    base_sigma: float = 1.0


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


def _misconceptions_point(args) -> dict:
    cfg, master_seed, index, scale, rho, reps = args
    scenario = ScenarioConfig(
        block_sizes=cfg.block_sizes,
        treated_counts=cfg.treated_counts,
        control_mean_spread=scale,
        effect_spread=cfg.effect_spread_factor * scale,
        rho=rho,
        base_sigma=cfg.base_sigma,
        seed=_child_seed(master_seed, index, 0),
    )
    table = gen_scenario_population(scenario)
    design = Blocked(cfg.treated_counts)
    n = table.n
    n_t = design.n_t
    p = n_t / n
    var_bk = neyman_var_blocked(table, design)
    misuse = cr_varest_bias_under_blocking(table, p)
    # The blocked estimator's own conservatism: sum_k (n_k/n)^2 S2_tck / n_k.
    st = table.stats
    bk_bias = float(st.n_k @ st.s2("tc")) / n**2
    var_cr_est = varest_variability(
        table, CompleteRandomization(n_t), reps=reps, seed=_child_seed(master_seed, index, 1)
    )
    var_bk_est = varest_variability(
        table, design, reps=reps, seed=_child_seed(master_seed, index, 2)
    )
    return {
        "spread_scale": scale,
        "rho": rho,
        "r2": r2_blocks(table),
        "var_bk": var_bk,
        "expected_varest_cr_over_var_bk": misuse.expected_varest_cr / var_bk,
        "expected_varest_bk_over_var_bk": (var_bk + bk_bias) / var_bk,
        "var_varest_cr": var_cr_est.var_of_varest,
        "var_varest_bk": var_bk_est.var_of_varest,
        "var_varest_cr_over_bk": var_cr_est.var_of_varest / var_bk_est.var_of_varest,
        "reps": reps,
    }


def study_misconceptions(
    config: MisconceptionsConfig | None = None,
    seed: int = 0,
    reps: int = 5_000,
    threads: int = 1,
) -> list[dict]:
    cfg = config or MisconceptionsConfig()
    grid = [
        (cfg, seed, i, scale, rho, reps)
        for i, (scale, rho) in enumerate(
            (s, r) for s in cfg.spread_scales for r in cfg.rhos
        )
    ]
    return mc.map_ordered(_misconceptions_point, grid, threads=threads)


STUDIES = {
    "ratio-sweep": (RatioSweepConfig, RATIO_SWEEP_COLUMNS),
    "flexible-blocking": (FlexBlockingConfig, FLEX_BLOCKING_COLUMNS),
    "misconceptions": (MisconceptionsConfig, MISCONCEPTIONS_COLUMNS),
}


def config_from_dict(name: str, overrides: dict | None):
    """Build a study config, replacing defaults with JSON-sourced fields."""
    cls, _ = STUDIES[name]
    cfg = cls()
    if not overrides:
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
            ok = isinstance(value, list) and all(_json_type_matches(v, default[0]) for v in value)
            expected = f"a list of {_JSON_TYPE_NAMES[type(default[0])]}s"
        else:
            ok = _json_type_matches(value, default)
            expected = f"a JSON {_JSON_TYPE_NAMES[type(default)]}"
        if not ok:
            raise ValueError(f"config field {key!r} for {name} must be {expected}, got {value!r}")
        cleaned[key] = tuple(value) if isinstance(default, tuple) else value
    return dataclasses.replace(cfg, **cleaned)


_JSON_TYPE_NAMES = {bool: "boolean", int: "integer", float: "number", str: "string"}


def _json_type_matches(value, default) -> bool:
    # bool is an int subclass in Python but a separate JSON type.
    if isinstance(value, bool):
        return isinstance(default, bool)
    if isinstance(default, float):
        return isinstance(value, (int, float))
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
    handed to :func:`mc.map_ordered` (rep chunks for ``flexible-blocking``,
    grid points otherwise) and the ``workers`` it used. ``ratio-sweep``
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
    _, columns = STUDIES[name]
    if name == "ratio-sweep":
        reps = 0
        rows = study_ratio_sweep(cfg, seed=seed, threads=threads)
        chunks = len(rows)
    elif name == "flexible-blocking":
        reps = 10_000 if reps is None else reps
        rows = study_flexible_blocking(cfg, seed=seed, reps=reps, threads=threads)
        chunks = math.ceil(reps / mc.CHUNK_SIZE)
    else:
        reps = 5_000 if reps is None else reps
        rows = study_misconceptions(cfg, seed=seed, reps=reps, threads=threads)
        chunks = len(rows)
    counts = {"reps": reps, "chunks": chunks, "workers": mc.effective_workers(threads, chunks)}
    return rows, columns, dataclasses.asdict(cfg), counts
