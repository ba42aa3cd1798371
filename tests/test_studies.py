"""The study paths against per-table references: flexible-blocking chunks
against the per-rep loop, and ratio-sweep's target moments and
misconceptions batches against one drawn table per grid point."""

import itertools
import tracemalloc

import numpy as np
import pytest

from blockcalc import blocking_lab, mc, oracle, studies
from blockcalc.blocking_lab import (
    ScenarioConfig,
    gen_scenario_outcomes,
    gen_scenario_population,
    gen_xy_population,
    r2_blocks,
    within_variance_ratio,
)
from blockcalc.pop_model import Blocked, CompleteRandomization, table_from_arrays
from blockcalc.studies import (
    MISCONCEPTIONS_COLUMNS,
    RATIO_SWEEP_COLUMNS,
    FlexBlockingConfig,
    MisconceptionsConfig,
    RatioSweepConfig,
    _flex_blocking_chunk,
    _method_labels,
    _point_seeds,
    run_study,
    study_flexible_blocking,
    study_misconceptions,
    study_ratio_sweep,
)
from blockcalc.variance_estimation import cr_varest_bias_under_blocking, varest_variabilities
from blockcalc.variance_theory import neyman_var_blocked, neyman_var_cr

from conftest import reference_varest_variability


def _child_seed(master_seed: int, *key: int) -> int:
    """The first state word of ``SeedSequence(master_seed, spawn_key=key)``:
    the reference for ``mc.child_seeds``."""
    return int(np.random.SeedSequence(entropy=master_seed, spawn_key=key).generate_state(1)[0])


def reference_chunk(cfg, master_seed, lo, hi):
    """One table per rep and DGP, and one relabelled table per method, summed
    into the chunk's ``(3, methods, dgps)`` array: ``var_cr``, ``var_bk`` and
    the outcome within-variance ratio."""
    _, labels = _method_labels(cfg)
    n_t = cfg.n // 2
    sums = np.zeros((3, len(cfg.methods), len(cfg.dgps)))
    for r in range(lo, hi):
        rng = mc.rep_rng(master_seed, r)
        for d, dgp in enumerate(cfg.dgps):
            _, table = gen_xy_population(dgp, cfg.n, cfg.noise_sigma, rng)
            sums[0, :, d] += neyman_var_cr(table, n_t)
            for m, method in enumerate(cfg.methods):
                blocked_table = table_from_arrays(
                    labels[method], table.y_t, table.y_c, unit_ids=table.unit_ids
                )
                design = Blocked(tuple(int(s) // 2 for s in blocked_table.block_sizes))
                sums[1, m, d] += neyman_var_blocked(blocked_table, design)
                sums[2, m, d] += within_variance_ratio(table.y_c, labels[method])
    return sums


CONFIGS = [
    FlexBlockingConfig(),
    # Interleaving 32 units into 5 blocks gives unequal, odd block sizes.
    FlexBlockingConfig(n=32, block_size=4, interleave_blocks=5, noise_sigma=0.5),
    FlexBlockingConfig(n=48, block_size=6, interleave_blocks=7, dgps=("odd", "Linear")),
]


@pytest.mark.parametrize("cfg", CONFIGS)
@pytest.mark.parametrize("lo, hi", [(0, 1), (0, 70), (256, 300)])
def test_chunk_sums_match_reference(cfg, lo, hi):
    got = _flex_blocking_chunk((cfg, 5, lo, hi))
    want = reference_chunk(cfg, 5, lo, hi)
    assert got.shape == want.shape == (3, len(cfg.methods), len(cfg.dgps))
    for group, name in enumerate(["var_cr", "var_bk", "y_ratio"]):
        scale = np.abs(want[group]).max()
        assert np.all(np.abs(got[group] - want[group]) <= 1e-12 * scale), name


def test_study_reduces_chunks_in_order(monkeypatch):
    # Batches of 40 reps of 32 units, so 60 reps are two chunks.
    cfg = CONFIGS[1]
    monkeypatch.setattr(oracle, "CHUNK_CELLS", 40 * cfg.n)
    reps = 60
    rows = study_flexible_blocking(cfg, seed=8, reps=reps)
    bounds = mc.chunk_bounds(reps, cfg.n)
    assert bounds == [(0, 40), (40, 60)]
    parts = [reference_chunk(cfg, 8, lo, hi) for lo, hi in bounds]
    var_cr, var_bk, y_ratio = sum(parts)
    for row in rows:
        m, d = cfg.methods.index(row["method"]), cfg.dgps.index(row["dgp"])
        rel_se = 100 * np.sqrt(var_bk[m, d] / var_cr[m, d])
        assert row["rel_se_pct"] == pytest.approx(rel_se, rel=1e-12)
        y_within = 100 * y_ratio[m, d] / reps
        assert row["y_within_over_total_pct"] == pytest.approx(y_within, rel=1e-12)
        assert row["reps"] == reps


@pytest.mark.parametrize("seed", [0, 2**32 + 5, 2**200 + 1])
@pytest.mark.parametrize("lo, hi", [(0, 1), (0, 18), (7, 18), (299, 300)])
def test_batched_child_seeds_are_seed_sequences(seed, lo, hi):
    # Master seeds of 1, 2 and 7 32-bit words; batches from the grid's start and mid-grid.
    want = [[_child_seed(seed, index, key) for key in range(3)] for index in range(lo, hi)]
    assert _point_seeds(seed, lo, hi) == want


def test_child_seeds_of_keys_up_to_the_last_word():
    keys = np.array([[0], [1], [2**31], [2**32 - 1]])
    got = mc.child_seeds(2**64 + 9, keys)
    assert got.dtype == np.uint32
    assert got.tolist() == [_child_seed(2**64 + 9, *key) for key in keys.tolist()]


def reference_configs(cfg, seed, treated_counts, *key):
    """``(index, scale, rho, config)`` of every grid point in grid order, the
    config drawing from the child seed ``(index, *key)``."""
    for index, (scale, rho) in enumerate(itertools.product(cfg.spread_scales, cfg.rhos)):
        config = ScenarioConfig(
            block_sizes=cfg.block_sizes,
            treated_counts=treated_counts,
            control_mean_spread=scale,
            effect_spread=cfg.effect_spread_factor * scale,
            rho=rho,
            base_sigma=cfg.base_sigma,
            seed=_child_seed(seed, index, *key),
        )
        yield index, scale, rho, config


def reference_tables(cfg, seed, treated_counts, *key):
    """``(index, scale, rho, table)`` of every grid point in grid order, one
    table per point from the child seed ``(index, *key)``."""
    for index, scale, rho, config in reference_configs(cfg, seed, treated_counts, *key):
        yield index, scale, rho, gen_scenario_population(config)


def batch_drawn_tables(cfg, seed, treated_counts, *key):
    """The table of every grid point in grid order, from the outcomes of its
    batch of ``mc.chunk_bounds``, drawn as the studies draw them."""
    configs = [config for *_, config in reference_configs(cfg, seed, treated_counts, *key)]
    for lo, hi in mc.chunk_bounds(len(configs), sum(cfg.block_sizes)):
        labels, y_t, y_c = gen_scenario_outcomes(configs[lo:hi])
        for outcomes in zip(y_t, y_c):
            yield table_from_arrays(labels + 1, *outcomes)


def reference_ratio_sweep(cfg, seed):
    """The ratio-sweep rows from one table per grid point, in grid order."""
    rows = []
    for _, scale, rho, table in reference_tables(cfg, seed, cfg.treated_equal):
        var_cr = neyman_var_cr(table, sum(cfg.treated_equal))
        var_eq = neyman_var_blocked(table, Blocked(cfg.treated_equal))
        var_uneq = neyman_var_blocked(table, Blocked(cfg.treated_unequal))
        r2 = r2_blocks(table)
        rows.append([scale, rho, r2, var_cr, var_eq, var_uneq, var_eq / var_cr, var_uneq / var_cr])
    return np.array(rows)


#: 100 scales by 3 rhos: 300 grid points of 115 units.
WIDE_GRID = RatioSweepConfig(spread_scales=tuple(0.06 * i for i in range(100)), base_sigma=0.7)


@pytest.mark.parametrize(
    "cfg, seed", [(RatioSweepConfig(), 0), (RatioSweepConfig(), 7), (RatioSweepConfig(), 12),
                  (WIDE_GRID, 3)],
)
def test_ratio_sweep_rows_match_per_point_reference(cfg, seed):
    rows = study_ratio_sweep(cfg)
    got = np.array([[row[name] for name in RATIO_SWEEP_COLUMNS] for row in rows])
    want = reference_ratio_sweep(cfg, seed)
    assert got.shape == want.shape == (len(cfg.spread_scales) * len(cfg.rhos), 8)
    scale = np.abs(want).max(axis=0)
    for j, name in enumerate(RATIO_SWEEP_COLUMNS):
        assert np.all(np.abs(got[:, j] - want[:, j]) <= 1e-13 * scale[j]), name


def test_ratio_sweep_r2_is_zero_at_spread_zero():
    # Every block has the same target means, so no between-block share is left.
    rows = study_ratio_sweep(RatioSweepConfig(spread_scales=(0.0, 1.0)))
    assert [row["r2"] for row in rows[:3]] == [0.0, 0.0, 0.0]
    assert all(row["r2"] > 0 for row in rows[3:])


def test_ratio_sweep_draws_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("ratio-sweep drew a population or seed")

    monkeypatch.setattr(studies, "gen_scenario_outcomes", refuse)
    monkeypatch.setattr(mc, "child_seeds", refuse)
    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    rows, _, _, counts = run_study("ratio-sweep", {"spread_scales": [0.05 * i for i in range(100)]})
    assert len(rows) == 300
    assert counts == {"reps": 0, "chunks": 1, "workers": 1}


def test_each_grid_point_computes_its_block_means_once(monkeypatch):
    """Every check and draw of a point reads one computation of its target
    block means, across batches too."""
    calls = []

    def counting(sizes):
        calls.append(len(sizes))
        return size_scores(sizes)

    size_scores = blocking_lab._size_scores
    monkeypatch.setattr(blocking_lab, "_size_scores", counting)
    study_ratio_sweep()
    cfg = RatioSweepConfig()
    assert len(calls) == len(cfg.spread_scales) * len(cfg.rhos)
    calls.clear()
    study_misconceptions(reps=2, bounds=[(0, 7), (7, 18)])
    assert len(calls) == 18


def reference_misconceptions(cfg, seed, reps):
    """The misconceptions rows in grid order: the closed forms from one table
    per grid point, and each estimator's variability from the per-point
    path (one generator from ``mc.rep_rngs`` per rep) on the table of the
    point's batched draw."""
    design = Blocked(cfg.treated_counts)
    rows = []
    for (index, scale, rho, table), drawn in zip(
        reference_tables(cfg, seed, cfg.treated_counts, 0),
        batch_drawn_tables(cfg, seed, cfg.treated_counts, 0),
    ):
        var_bk = neyman_var_blocked(table, design)
        misuse = cr_varest_bias_under_blocking(table, design.n_t / table.n)
        bk_bias = float(table.stats.n_k @ table.stats.s2("tc")) / table.n**2
        var_varest_cr, var_varest_bk = (
            reference_varest_variability(drawn, d, reps, _child_seed(seed, index, key))[1]
            for key, d in ((1, CompleteRandomization(design.n_t)), (2, design))
        )
        rows.append([
            scale, rho, r2_blocks(table), var_bk, misuse.expected_varest_cr / var_bk,
            (var_bk + bk_bias) / var_bk, var_varest_cr, var_varest_bk,
            var_varest_cr / var_varest_bk, reps,
        ])
    return np.array(rows)


#: 100 scales by 3 rhos: 300 grid points of 115 units, three batches of mc.chunk_bounds.
WIDE_MISCONCEPTIONS = MisconceptionsConfig(spread_scales=tuple(0.06 * i for i in range(100)))


@pytest.mark.parametrize(
    "cfg, seed, reps",
    [(MisconceptionsConfig(), 0, 30), (MisconceptionsConfig(), 7, 30), (WIDE_MISCONCEPTIONS, 3, 4)]
    + [(MisconceptionsConfig(), seed, reps) for seed in (0, 7) for reps in (2, 20, 150)],
)
def test_misconceptions_rows_match_per_point_reference(cfg, seed, reps):
    rows = study_misconceptions(cfg, seed=seed, reps=reps)
    got = np.array([[row[name] for name in MISCONCEPTIONS_COLUMNS] for row in rows])
    want = reference_misconceptions(cfg, seed, reps)
    assert got.shape == want.shape == (len(cfg.spread_scales) * len(cfg.rhos), 10)
    scale = np.abs(want).max(axis=0)
    for j, name in enumerate(MISCONCEPTIONS_COLUMNS[:6]):
        assert np.all(np.abs(got[:, j] - want[:, j]) <= 1e-13 * scale[j]), name
    # The estimator Monte Carlo draws the same assignments and scores them in
    # the same chunks as the per-point path, so its columns are equal.
    assert np.array_equal(got[:, 6:], want[:, 6:])


def test_misconceptions_checks_a_batch_before_any_monte_carlo(monkeypatch):
    # Points 0-2 (scale 0) pass; points 3-5 overflow. No point's Monte Carlo
    # may run before the overflow is reported.
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return varest_variabilities(*args, **kwargs)

    monkeypatch.setattr(studies, "varest_variabilities", counting)
    cfg = MisconceptionsConfig(spread_scales=(0.0, 1e308))
    with pytest.raises(ValueError, match="y_t outcomes too large"):
        study_misconceptions(cfg, reps=4)
    assert calls == []


#: 40 points of 4096 units, a quarter of every block treated: ten batches of
#: chunk_rows(4096) = 4 points.
WIDE_TABLE_GRID = MisconceptionsConfig(
    block_sizes=(512,) * 8,
    treated_counts=(128,) * 8,
    spread_scales=tuple(0.1 * i for i in range(20)),
    rhos=(0.0, 0.5),
)


def traced_peak(bounds) -> int:
    """The ``tracemalloc`` peak of ``WIDE_TABLE_GRID`` at two reps, after a warm-up run."""
    study_misconceptions(WIDE_TABLE_GRID, seed=1, reps=2, bounds=bounds)
    tracemalloc.start()
    try:
        rows = study_misconceptions(WIDE_TABLE_GRID, seed=1, reps=2, bounds=bounds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 40
    return peak


@pytest.fixture(scope="module")
def wide_table_grid_peak() -> int:
    assert len(studies.batch_bounds(WIDE_TABLE_GRID, 0)) == 10
    return traced_peak(None)


def test_wide_table_grid_memory_does_not_grow_with_the_grid(wide_table_grid_peak):
    # As one batch the 40 points peak above 12 MiB.
    assert wide_table_grid_peak < traced_peak([(0, 40)]) / 4


def test_wide_table_grid_memory_stays_within_a_few_batches(wide_table_grid_peak):
    assert wide_table_grid_peak < 16 * oracle.CHUNK_CELLS * 8


@pytest.mark.parametrize(
    "name, overrides, reps, chunks",
    [
        ("flexible-blocking", {"n": 32, "block_size": 4}, 600, 2),
        ("misconceptions", {"spread_scales": [0.5], "rhos": [0.0]}, 4, 1),
        ("misconceptions", {"spread_scales": [0.05 * i for i in range(100)]}, 2, 3),
    ],
)
def test_run_study_counts_the_bounds_it_maps(monkeypatch, name, overrides, reps, chunks):
    calls = []
    chunk_bounds = mc.chunk_bounds

    def counting(count, width):
        calls.append(chunk_bounds(count, width))
        return calls[-1]

    monkeypatch.setattr(mc, "chunk_bounds", counting)
    mapped = []
    map_ordered = mc.map_ordered

    def recording(fn, items, threads=1):
        mapped.append(len(items))
        return map_ordered(fn, items, threads)

    monkeypatch.setattr(mc, "map_ordered", recording)
    _, _, _, counts = run_study(name, overrides, seed=2, reps=reps)
    assert mapped == [len(calls[0])] == [counts["chunks"]] == [chunks]
    # The study's batches are bounded once; each misconceptions batch then
    # bounds the rep chunks of its estimator Monte Carlo once per design.
    assert len(calls) == 1 + 2 * (name == "misconceptions") * chunks
