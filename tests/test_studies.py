"""The batched flexible-blocking chunk against the per-rep, per-table loop."""

import numpy as np
import pytest

from blockcalc import mc
from blockcalc.blocking_lab import gen_xy_population, within_variance_ratio
from blockcalc.pop_model import Blocked, table_from_arrays
from blockcalc.studies import (
    FlexBlockingConfig,
    _flex_blocking_chunk,
    _method_labels,
    study_flexible_blocking,
)
from blockcalc.variance_theory import neyman_var_blocked, neyman_var_cr


def reference_chunk(cfg, master_seed, lo, hi):
    """One table per rep and DGP, and one relabelled table per method."""
    _, labels = _method_labels(cfg)
    n_t = cfg.n // 2
    sums = {
        "var_cr": {dgp: 0.0 for dgp in cfg.dgps},
        "var_bk": {(m, d): 0.0 for m in cfg.methods for d in cfg.dgps},
        "y_ratio": {(m, d): 0.0 for m in cfg.methods for d in cfg.dgps},
    }
    for r in range(lo, hi):
        rng = mc.rep_rng(master_seed, r)
        for dgp in cfg.dgps:
            _, table = gen_xy_population(dgp, cfg.n, cfg.noise_sigma, rng)
            sums["var_cr"][dgp] += neyman_var_cr(table, n_t)
            for method in cfg.methods:
                blocked_table = table_from_arrays(
                    labels[method], table.y_t, table.y_c, unit_ids=table.unit_ids
                )
                design = Blocked(tuple(int(s) // 2 for s in blocked_table.block_sizes))
                sums["var_bk"][(method, dgp)] += neyman_var_blocked(blocked_table, design)
                sums["y_ratio"][(method, dgp)] += within_variance_ratio(table.y_c, labels[method])
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
    assert got.keys() == want.keys()
    for group in want:
        assert got[group].keys() == want[group].keys()
        scale = max(abs(v) for v in want[group].values())
        for key, value in want[group].items():
            assert abs(got[group][key] - value) <= 1e-12 * scale, (group, key)


def test_study_reduces_chunks_in_order():
    cfg = CONFIGS[1]
    reps = 300
    rows = study_flexible_blocking(cfg, seed=8, reps=reps)
    parts = [reference_chunk(cfg, 8, lo, hi) for lo, hi in mc.chunk_bounds(reps)]
    for row in rows:
        key = (row["method"], row["dgp"])
        var_bk = sum(part["var_bk"][key] for part in parts)
        var_cr = sum(part["var_cr"][row["dgp"]] for part in parts)
        y_ratio = sum(part["y_ratio"][key] for part in parts)
        assert row["rel_se_pct"] == pytest.approx(100 * np.sqrt(var_bk / var_cr), rel=1e-12)
        assert row["y_within_over_total_pct"] == pytest.approx(100 * y_ratio / reps, rel=1e-12)
        assert row["reps"] == reps
