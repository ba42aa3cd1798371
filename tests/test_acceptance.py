"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a PASS/FAIL line (run
with ``pytest tests/test_acceptance.py -s`` to see them live). Criteria with
runtime budgets assert them.
"""

import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from blockcalc import (
    Blocked,
    CompleteRandomization,
    StrataMoments,
    cr_varest_bias_strat,
    cr_varest_bias_under_blocking,
    exact_moments,
    gen_xy_population,
    make_blocks_flex,
    neyman_var_blocked,
    neyman_var_cr,
    table_from_arrays,
    var_diff_finite,
    var_diff_strat,
    var_diff_strat_unequal,
    var_k,
)
from blockcalc import mc
from blockcalc.cli import main
from blockcalc.studies import (
    FlexBlockingConfig,
    study_flexible_blocking,
    study_misconceptions,
    study_ratio_sweep,
)

from conftest import (
    equal_p_proportions,
    make_random_blocked_design,
    make_random_table,
    rel_close,
)

MASTER_SEED = 20240615


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} FAIL - {label}")
        raise
    print(f"\nACCEPTANCE {num:02d} PASS - {label}")


def corpus(size=500):
    """Fixed random-table corpus; every other table has all-even block sizes."""
    tables = []
    for i in range(size):
        rng = np.random.default_rng(MASTER_SEED + i)
        tables.append((make_random_table(rng, even_sizes=(i % 2 == 0)), rng))
    return tables


def test_criterion_01_oracle_equivalence():
    with criterion(1, "closed-form variances match exhaustive enumeration"):
        start = time.monotonic()
        for table, rng in corpus():
            n_t = int(rng.integers(1, table.n))
            sate = float(np.mean(table.y_t - table.y_c))
            cr = exact_moments(table, CompleteRandomization(n_t), "tau_hat")
            assert rel_close(neyman_var_cr(table, n_t), cr.variance, 1e-10)
            assert abs(cr.mean - sate) <= 1e-12 * max(1.0, abs(sate))
            design = make_random_blocked_design(rng, table)
            bk = exact_moments(table, design, "tau_hat")
            assert rel_close(neyman_var_blocked(table, design), bk.variance, 1e-10)
            assert abs(bk.mean - sate) <= 1e-12 * max(1.0, abs(sate))
        elapsed = time.monotonic() - start
        assert elapsed < 30, f"took {elapsed:.1f}s"


def test_criterion_02_finite_difference_identity():
    with criterion(2, "between/within decomposition equals the variance difference"):
        checked = 0
        for table, _ in corpus():
            for p in equal_p_proportions(table):
                report = var_diff_finite(table, p)
                direct = report.var_cr - report.var_bk
                assert abs(report.diff - direct) <= 1e-12 * max(1.0, abs(direct))
                checked += 1
        assert checked >= 250
        # Equal blocks, half treated, no effect: the difference collapses to
        # (1/(n-1)) [4 var_k(control means) - (4(K-1)/n) mean_k(S2_ck)].
        for seed in range(40):
            rng = np.random.default_rng(MASTER_SEED ^ seed)
            k = int(rng.integers(2, 5))
            size = int(rng.choice([4, 6, 8]))
            n = k * size
            y = rng.standard_normal(n) + np.repeat(2.0 * rng.standard_normal(k), size)
            labels = np.repeat(np.arange(1, k + 1), size)
            table = table_from_arrays(labels, y, y)
            report = var_diff_finite(table, 0.5)
            means = np.asarray([np.mean(y[labels == j]) for j in range(1, k + 1)])
            s2 = np.asarray([np.var(y[labels == j], ddof=1) for j in range(1, k + 1)])
            simplified = (
                4 * var_k(means, np.full(k, 1.0 / k))
                - 4 * (k - 1) / n * float(np.mean(s2))
            ) / (n - 1)
            assert abs(report.diff - simplified) <= 1e-12 * max(1.0, abs(simplified))


def _fuzzed_moments(rng):
    k = int(rng.integers(1, 7))
    sizes = 2 * rng.integers(2, 13, size=k)
    n = int(sizes.sum())
    moments = StrataMoments(
        weights=sizes / n,
        mu_t=4.0 * rng.standard_normal(k),
        mu_c=4.0 * rng.standard_normal(k),
        sigma2_t=5.0 * rng.random(k),
        sigma2_c=5.0 * rng.random(k),
    )
    return moments, n


def test_criterion_03_stratified_sign_and_reduction():
    with criterion(3, "stratified difference nonnegative; unequal form reduces and hits -1/6"):
        rng = np.random.default_rng(MASTER_SEED + 3)
        for _ in range(10_000):
            moments, n = _fuzzed_moments(rng)
            assert var_diff_strat(moments, n=n, p=0.5).diff >= -1e-12
        for trial in range(50):
            rng2 = np.random.default_rng(trial)
            moments, n = _fuzzed_moments(rng2)
            equal = var_diff_strat(moments, n=n, p=0.5)
            unequal = var_diff_strat_unequal(
                moments, n=n, p_k=[0.5] * moments.num_strata, p=0.5
            )
            assert unequal.diff == equal.diff
        worked = StrataMoments(
            weights=[0.5, 0.5], mu_t=[0.0, 0.0], mu_c=[0.0, 0.0],
            sigma2_t=[1.0, 1.0], sigma2_c=[1.0, 1.0],
        )
        report = var_diff_strat_unequal(worked, n=8, p_k=[0.25, 0.75], p=0.5)
        assert report.diff == pytest.approx(-1.0 / 6.0, abs=1e-15)


def test_criterion_04_misused_estimator_witness():
    with criterion(4, "ignoring the blocking is anti-conservative on the witness table"):
        table = table_from_arrays(
            ["A", "A", "B", "B"], [0.0, 2.0, 0.0, 2.0], [0.0, 2.0, 0.0, 2.0]
        )
        design = Blocked((1, 1))
        est_mean = exact_moments(table, design, "var_est_cr")
        true_var = exact_moments(table, design, "tau_hat")
        assert est_mean.count == 4
        assert est_mean.mean == 1.0
        assert true_var.variance == 2.0
        closed = cr_varest_bias_under_blocking(table, 0.5)
        assert closed.expected_varest_cr == est_mean.mean
        assert closed.true_var_bk == true_var.variance
        assert closed.bias == -1.0


def test_criterion_05_stratified_misuse_never_anti_conservative():
    with criterion(5, "stratified-sampling misuse bias nonnegative on fuzzed inputs"):
        rng = np.random.default_rng(MASTER_SEED + 5)
        for _ in range(10_000):
            moments, n = _fuzzed_moments(rng)
            assert cr_varest_bias_strat(moments, n=n, p=0.5) >= 0.0


def test_criterion_06_four_strata_estimator_variability():
    with criterion(6, "four identical-unit strata: blocked estimate constant, pooled one varies"):
        from blockcalc import varest_variability

        y = np.repeat([1.0, 2.0, 3.0, 4.0], 4)
        table = table_from_arrays(np.repeat([1, 2, 3, 4], 4), y, y)
        blocked = varest_variability(table, Blocked((2, 2, 2, 2)))
        assert blocked.method == "enumeration"
        assert blocked.reps_used == 6**4
        assert blocked.mean_varest == 0.0
        assert blocked.var_of_varest == 0.0
        pooled = varest_variability(table, CompleteRandomization(8))
        assert pooled.method == "enumeration"
        assert pooled.reps_used == math.comb(16, 8)
        assert pooled.var_of_varest > 0.0


def test_criterion_07_independent_covariate_blocking_is_free():
    with criterion(7, "blocking on an independent covariate neither helps nor hurts"):
        start = time.monotonic()
        reps = 20_000
        cfg_n, block_size, sigma = 64, 8, 1.0
        seed = MASTER_SEED + 7
        probe_rng = np.random.default_rng(0)
        sample, _ = gen_xy_population("indep", cfg_n, sigma, probe_rng)
        labels = make_blocks_flex(sample, block_size)
        # Row r is rep r's outcome as gen_xy_population draws it: under the
        # indep DGP the outcome is the noise.
        y = np.stack([sigma * rng.standard_normal(cfg_n) for rng in mc.rep_rngs(seed, 0, reps)])
        # Both potential outcomes equal y, so S2_tc is 0 in every block and
        # var(tau_hat) is S2 (1/n_t + 1/n_c), with half of each block treated.
        var_bk = np.zeros(reps)
        for k in np.unique(labels):
            y_k = y[:, labels == k]
            n_k = y_k.shape[1]
            m_k = n_k // 2
            var_bk += (n_k / cfg_n) ** 2 * y_k.var(axis=1, ddof=1) * (1 / m_k + 1 / (n_k - m_k))
        n_t = cfg_n // 2
        var_cr = y.var(axis=1, ddof=1) * (1 / n_t + 1 / (cfg_n - n_t))
        diffs = var_bk - var_cr
        for r in range(50):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(r,)))
            _, table = gen_xy_population("indep", cfg_n, sigma, rng)
            blocked_table = table_from_arrays(
                labels, table.y_t, table.y_c, unit_ids=table.unit_ids
            )
            design = Blocked(tuple(int(s) // 2 for s in blocked_table.block_sizes))
            library = neyman_var_blocked(blocked_table, design) - neyman_var_cr(table, n_t)
            assert abs(diffs[r] - library) <= 1e-12, (r, diffs[r], library)
        se = float(np.std(diffs, ddof=1) / np.sqrt(reps))
        mean = float(np.mean(diffs))
        assert abs(mean) <= 3 * se, f"mean {mean:.3e} vs 3*se {3 * se:.3e}"
        elapsed = time.monotonic() - start
        assert elapsed < 120, f"took {elapsed:.1f}s"


def _partitions(units, sizes):
    if not sizes:
        yield []
        return
    head, *tail = sizes
    for chosen in combinations(units, head):
        rest = tuple(u for u in units if u not in chosen)
        for others in _partitions(rest, tail):
            yield [chosen] + others


def test_criterion_08_random_blocking_reproduces_complete_randomization():
    with criterion(8, "random blocking composed with blocked assignment is exactly uniform"):
        cases = [
            ((2, 2), (1, 1)),
            ((4, 4), (2, 2)),
            ((2, 3, 3), (1, 1, 2)),  # unequal per-block proportions
            ((2, 2, 2, 2), (1, 1, 1, 1)),
            ((2, 6), (1, 2)),
        ]
        for sizes, n_tk in cases:
            n, n_t = sum(sizes), sum(n_tk)
            assert n <= 8
            law = {}
            parts = list(_partitions(tuple(range(n)), list(sizes)))
            for part in parts:
                arms = [list(combinations(block, m)) for block, m in zip(part, n_tk)]
                weight = Fraction(1, len(parts) * math.prod(len(a) for a in arms))
                for pick in product(*arms):
                    treated = frozenset(u for grp in pick for u in grp)
                    law[treated] = law.get(treated, Fraction(0)) + weight
            expected = Fraction(1, math.comb(n, n_t))
            assert len(law) == math.comb(n, n_t)
            assert all(prob == expected for prob in law.values())


def test_criterion_09_ratio_sweep_bands():
    with criterion(9, "variance-ratio sweep lands in the documented bands"):
        start = time.monotonic()
        rows = study_ratio_sweep()
        scales = sorted({row["spread_scale"] for row in rows})
        lo, hi = scales[0], scales[-1]
        at_zero = [row for row in rows if row["spread_scale"] == lo]
        at_top = [row for row in rows if row["spread_scale"] == hi]
        worst_equal = max(row["ratio_equal_p"] for row in at_zero)
        assert 1.00 <= worst_equal <= 1.12, worst_equal
        assert max(row["ratio_equal_p"] for row in at_top) <= 0.20
        worst_unequal = max(row["ratio_unequal_p"] for row in rows)
        assert 1.15 <= worst_unequal <= 1.45, worst_unequal
        assert max(row["ratio_unequal_p"] for row in at_top) <= 0.20
        rhos = sorted({row["rho"] for row in rows})
        for rho in rhos:
            curve = sorted(
                (row for row in rows if row["rho"] == rho), key=lambda r: r["r2"]
            )
            ratios = [row["ratio_equal_p"] for row in curve]
            assert all(b <= a + 1e-6 for a, b in zip(ratios, ratios[1:]))
        elapsed = time.monotonic() - start
        assert elapsed < 300, f"took {elapsed:.1f}s"


def test_criterion_10_blocking_method_bands():
    with criterion(10, "blocking-method study lands in the documented bands"):
        start = time.monotonic()
        rows = study_flexible_blocking(seed=MASTER_SEED + 10, reps=10_000)
        cell = {(row["method"], row["dgp"]): row for row in rows}
        for method in ("flex", "interleave", "peevish"):
            assert 97.0 <= cell[(method, "indep")]["rel_se_pct"] <= 103.0
        assert cell[("flex", "linear")]["rel_se_pct"] < 50.0
        assert cell[("interleave", "linear")]["rel_se_pct"] > 104.0
        assert cell[("peevish", "odd")]["rel_se_pct"] > 104.0
        assert (
            cell[("peevish", "linear")]["x_within_over_total_pct"]
            < cell[("interleave", "linear")]["x_within_over_total_pct"]
        )
        elapsed = time.monotonic() - start
        assert elapsed < 300, f"took {elapsed:.1f}s"


def test_criterion_11_estimator_variability_crosses_one():
    with criterion(11, "variance-of-estimator ratio exceeds 1 at high R2, dips below at low R2"):
        rows = study_misconceptions(seed=MASTER_SEED + 11, reps=5_000)
        top_r2 = max(row["r2"] for row in rows)
        top_rows = [row for row in rows if row["r2"] == top_r2]
        assert all(row["var_varest_cr_over_bk"] > 1.0 for row in top_rows)
        assert any(row["var_varest_cr_over_bk"] < 1.0 for row in rows)
        # The misused estimator's expectation dips below the true variance
        # somewhere near R2 = 0.
        assert any(
            row["expected_varest_cr_over_var_bk"] < 1.0
            for row in rows
            if row["r2"] < 0.05
        )


def test_criterion_12_thread_count_never_changes_study_bytes(tmp_path, no_process_pool):
    with criterion(12, "same seed, different --threads: byte-identical study CSVs, one worker"):
        runs = [
            ("ratio-sweep", []),
            ("flexible-blocking", ["--reps", "600"]),
            ("misconceptions", ["--reps", "150"]),
        ]
        for name, extra in runs:
            outputs = []
            for threads in ("1", "3"):
                out = tmp_path / f"{name}-t{threads}"
                rc = main(
                    ["study", name, "--seed", "77", "--threads", threads,
                     "--out", str(out), *extra]
                )
                assert rc == 0
                outputs.append(
                    (out / f"study_{name.replace('-', '_')}.csv").read_bytes()
                )
                manifest = json.loads((out / "run_manifest.json").read_text())
                assert manifest["counts"]["workers"] == 1
            assert outputs[0] == outputs[1], f"{name} differs across thread counts"
