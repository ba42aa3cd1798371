from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockcalc import (
    Blocked,
    CompleteRandomization,
    StrataMoments,
    exact_moments,
    neyman_var_blocked,
    neyman_var_cr,
    table_from_arrays,
    var_blocked_strat,
    var_cr_srs,
    var_diff_finite,
    var_diff_mixed,
    var_diff_site_sampling,
    var_diff_strat,
    var_diff_strat_unequal,
    var_diff_two_stage,
    var_k,
)
from blockcalc import mc, variance_theory
from blockcalc.variance_theory import (
    MODE_CR_SRS_VS_BK_STRAT,
    MODE_CR_SRS_VS_CR_STRAT,
    VarianceReport,
    check_diff,
    site_sampling_reps,
    two_stage_reps,
)

from conftest import equal_p_proportions, make_random_table, rel_close


def simple_moments(mu_t, mu_c, sigma2=1.0, weights=None, sigma2_t=None, sigma2_c=None):
    k = len(mu_t)
    return StrataMoments(
        weights=weights if weights is not None else np.full(k, 1.0 / k),
        mu_t=mu_t,
        mu_c=mu_c,
        sigma2_t=sigma2_t if sigma2_t is not None else np.full(k, sigma2),
        sigma2_c=sigma2_c if sigma2_c is not None else np.full(k, sigma2),
        sigma2_tc=np.zeros(k),
    )


class TestVarK:
    def test_two_point(self):
        assert var_k([0.0, 4.0], [0.5, 0.5]) == pytest.approx(4.0)

    def test_constants(self):
        assert var_k([3.0, 3.0, 3.0], [0.2, 0.3, 0.5]) == 0.0

    def test_single_value(self):
        assert var_k([7.0], [1.0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            var_k([1.0, 2.0], [1.0])

    def test_bad_weights(self):
        with pytest.raises(ValueError, match="weights"):
            var_k([1.0, 2.0], [0.5, 0.6])

    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=8),
        st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_nonnegative_and_shift_invariant(self, values, seed):
        rng = np.random.default_rng(seed)
        w = rng.random(len(values)) + 0.05
        w /= w.sum()
        base = var_k(values, w)
        assert base >= 0
        shifted = var_k(np.asarray(values) + 17.5, w)
        assert shifted == pytest.approx(base, abs=1e-8)


class TestNeymanVarCr:
    def test_two_unit_hand_value(self, two_unit_table):
        assert neyman_var_cr(two_unit_table, 1) == pytest.approx(1.0)

    def test_additive_effect_drops_effect_variance(self):
        rng = np.random.default_rng(1)
        y_c = rng.standard_normal(6)
        table = table_from_arrays([1] * 6, y_c + 5.0, y_c)
        s2 = float(np.var(y_c, ddof=1))
        assert neyman_var_cr(table, 2) == pytest.approx(s2 / 2 + s2 / 4)

    def test_mirrored_blocks(self, mirrored_blocks_table):
        assert neyman_var_cr(mirrored_blocks_table, 2) == pytest.approx(4.0 / 3.0)

    def test_tiny_table_rejected(self):
        table = table_from_arrays([1], [1.0], [0.0])
        with pytest.raises(ValueError, match="n >= 2"):
            neyman_var_cr(table, 1)


class TestNeymanVarBlocked:
    def test_mirrored_blocks(self, mirrored_blocks_table):
        assert neyman_var_blocked(mirrored_blocks_table, Blocked((1, 1))) == pytest.approx(2.0)

    def test_single_block_equals_cr(self):
        rng = np.random.default_rng(2)
        table = table_from_arrays([1] * 8, rng.standard_normal(8), rng.standard_normal(8))
        assert neyman_var_blocked(table, Blocked((3,))) == pytest.approx(
            neyman_var_cr(table, 3)
        )

    def test_constant_table(self):
        table = table_from_arrays([1, 1, 2, 2], [1.0] * 4, [1.0] * 4)
        assert neyman_var_blocked(table, Blocked((1, 1))) == 0.0

    def test_singleton_block_rejected(self):
        table = table_from_arrays([1, 2, 2, 2], np.arange(4.0), np.zeros(4))
        with pytest.raises(ValueError):
            neyman_var_blocked(table, Blocked((1, 1)))


class TestVarDiffFinite:
    def test_mirrored_blocks_decomposition(self, mirrored_blocks_table):
        report = var_diff_finite(mirrored_blocks_table, 0.5)
        assert report.decomposition["between_term"] == 0.0
        assert report.decomposition["within_term"] == pytest.approx(2.0 / 3.0)
        assert report.diff == pytest.approx(-2.0 / 3.0)
        assert report.diff == pytest.approx(report.var_cr - report.var_bk)

    def test_single_block_diff_zero(self):
        rng = np.random.default_rng(3)
        table = table_from_arrays([1] * 6, rng.standard_normal(6), rng.standard_normal(6))
        report = var_diff_finite(table, 0.5)
        assert report.diff == pytest.approx(0.0, abs=1e-15)

    def test_pure_between_spread_benefits_blocking(self):
        table = table_from_arrays([1, 1, 2, 2], [0, 0, 2, 2], [0, 0, 2, 2])
        report = var_diff_finite(table, 0.5)
        assert report.decomposition["within_term"] == 0.0
        assert report.diff == pytest.approx(report.decomposition["between_term"])
        assert report.diff > 0

    def test_fractional_counts_rejected(self, mirrored_blocks_table):
        with pytest.raises(ValueError, match="not an integer"):
            var_diff_finite(mirrored_blocks_table, 0.25)

    @pytest.mark.parametrize("seed", range(30))
    def test_identity_with_closed_forms_on_random_tables(self, seed):
        rng = np.random.default_rng(1000 + seed)
        table = make_random_table(rng)
        for p in equal_p_proportions(table):
            report = var_diff_finite(table, p)
            direct = report.var_cr - report.var_bk
            assert abs(report.diff - direct) <= 1e-12 * max(1.0, abs(direct))

    @pytest.mark.parametrize("seed", range(10))
    def test_equal_blocks_half_treated_null_effect_simplification(self, seed):
        # With K equal even blocks, half of each treated, and y_t == y_c,
        # the difference collapses to
        #   (1/(n-1)) [4 var_k(mean_ck) - (4(K-1)/n) mean_k(S2_ck)].
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 5))
        size = int(rng.choice([4, 6, 8]))
        n = k * size
        y = rng.standard_normal(n) + np.repeat(rng.standard_normal(k), size)
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


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(25))
    def test_closed_forms_match_enumeration(self, seed):
        rng = np.random.default_rng(7000 + seed)
        table = make_random_table(rng)
        n_t = int(rng.integers(1, table.n))
        cr = exact_moments(table, CompleteRandomization(n_t), "tau_hat")
        assert rel_close(neyman_var_cr(table, n_t), cr.variance, 1e-10)
        design = Blocked(tuple(int(rng.integers(1, s)) for s in table.block_sizes))
        bk = exact_moments(table, design, "tau_hat")
        assert rel_close(neyman_var_blocked(table, design), bk.variance, 1e-10)


class TestVarCrSrs:
    def test_arithmetic(self):
        moments = simple_moments([0.0], [0.0])
        assert var_cr_srs(moments, 10, 10) == pytest.approx(0.2)

    def test_degenerate_arm(self):
        moments = StrataMoments(
            weights=[1.0], mu_t=[0.0], mu_c=[0.0], sigma2_t=[0.0], sigma2_c=[2.0], sigma2_tc=[0.0]
        )
        assert var_cr_srs(moments, 5, 4) == pytest.approx(0.5)

    def test_mixture_built_pooled(self):
        moments = simple_moments([0.0, 2.0], [0.0, 2.0])
        assert moments.pooled.sigma2_c == pytest.approx(2.0)
        assert var_cr_srs(moments, 2, 2) == pytest.approx(2.0)


class TestVarBlockedStrat:
    def test_arithmetic(self):
        moments = simple_moments([0.0, 0.0], [0.0, 0.0])
        assert var_blocked_strat(moments, [2, 2], [1, 1]) == pytest.approx(1.0)

    def test_zero_variances(self):
        moments = simple_moments([0.0, 1.0], [0.0, 1.0], sigma2=0.0)
        assert var_blocked_strat(moments, [4, 4], [2, 2]) == 0.0

    def test_single_stratum_reduces_to_srs_form(self):
        moments = simple_moments([0.0], [0.0], sigma2=3.0)
        assert var_blocked_strat(moments, [10], [4]) == pytest.approx(3.0 / 4 + 3.0 / 6)


class TestVarDiffStrat:
    def test_worked_two_stratum_example(self):
        moments = simple_moments([0.0, 2.0], [0.0, 2.0])
        report = var_diff_strat(moments, n=4, p=0.5)
        assert report.diff == pytest.approx(4.0 / 3.0)

    def test_equal_means_give_zero(self):
        moments = simple_moments([1.0, 1.0], [2.0, 2.0])
        report = var_diff_strat(moments, n=8, p=0.5)
        assert report.diff == pytest.approx(0.0, abs=1e-15)

    def test_single_stratum_gives_zero(self):
        moments = simple_moments([3.0], [1.0])
        assert var_diff_strat(moments, n=6, p=0.5).diff == pytest.approx(0.0, abs=1e-15)

    def test_nonnegative_under_fuzzing(self):
        rng = np.random.default_rng(2024)
        for _ in range(500):
            k = int(rng.integers(1, 6))
            sizes = 2 * rng.integers(1, 13, size=k)
            n = int(sizes.sum())
            moments = simple_moments(
                rng.normal(size=k) * 3,
                rng.normal(size=k) * 3,
                weights=sizes / n,
                sigma2_t=rng.random(k) * 4,
                sigma2_c=rng.random(k) * 4,
            )
            report = var_diff_strat(moments, n=n, p=0.5)
            assert report.diff >= -1e-12


class TestVarDiffStratUnequal:
    def test_reduces_to_equal_proportions_exactly(self):
        rng = np.random.default_rng(8)
        k = 3
        w = np.full(k, 1.0 / k)
        moments = simple_moments(
            rng.normal(size=k), rng.normal(size=k), weights=w,
            sigma2_t=rng.random(k) + 0.5, sigma2_c=rng.random(k) + 0.5,
        )
        equal = var_diff_strat(moments, n=12, p=0.5)
        unequal = var_diff_strat_unequal(moments, n=12, p_k=[0.5] * k, p=0.5)
        assert unequal.diff == equal.diff
        assert unequal.decomposition["unequal_p_term"] == 0.0

    def test_worked_negative_example(self):
        moments = simple_moments([0.0, 0.0], [0.0, 0.0])
        report = var_diff_strat_unequal(moments, n=8, p_k=[0.25, 0.75], p=0.5)
        assert report.diff == pytest.approx(-1.0 / 6.0, abs=1e-15)

    def test_equal_means_equal_proportions_zero(self):
        moments = simple_moments([1.0, 1.0], [0.0, 0.0], sigma2_t=[2.0, 3.0], sigma2_c=[1.0, 4.0])
        report = var_diff_strat_unequal(moments, n=8, p_k=[0.5, 0.5])
        assert report.diff == pytest.approx(0.0, abs=1e-15)

    def test_mismatched_average_proportion_rejected(self):
        moments = simple_moments([0.0, 0.0], [0.0, 0.0])
        with pytest.raises(ValueError, match="weighted mean"):
            var_diff_strat_unequal(moments, n=8, p_k=[0.25, 0.75], p=0.4)

    @pytest.mark.parametrize("seed", range(20))
    def test_equal_arm_variance_simplification(self, seed):
        # With sigma2_ck == sigma2_tk == s2_k the varying-proportion term
        # equals sum_k n_k/(n^2 p(1-p)) (p-p_k)(p-(1-p_k))/((1-p_k)p_k) s2_k.
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 5))
        sizes = rng.choice([4, 8, 12], size=k)
        n = int(sizes.sum())
        w = sizes / n
        s2 = rng.random(k) * 5
        p_k = rng.choice([0.25, 0.5, 0.75], size=k)
        p = float(w @ p_k)
        if not 0 < p < 1 or np.any(np.round(p_k * sizes) != p_k * sizes):
            pytest.skip("infeasible draw")
        moments = simple_moments(
            rng.normal(size=k), rng.normal(size=k), weights=w, sigma2_t=s2, sigma2_c=s2
        )
        report = var_diff_strat_unequal(moments, n=n, p_k=p_k, p=p)
        simplified = float(
            np.sum(
                sizes / (n**2 * p * (1 - p))
                * (p - p_k) * (p - (1 - p_k)) / ((1 - p_k) * p_k)
                * s2
            )
        )
        assert abs(report.decomposition["unequal_p_term"] - simplified) <= 1e-12 * max(
            1.0, abs(simplified)
        )


class TestVarDiffMixed:
    def test_equal_means_zero_both_modes(self):
        moments = simple_moments([1.0, 1.0], [0.0, 0.0])
        for mode in (MODE_CR_SRS_VS_BK_STRAT, MODE_CR_SRS_VS_CR_STRAT):
            assert var_diff_mixed(moments, 4, 4, mode).diff == pytest.approx(0.0, abs=1e-15)

    def test_srs_vs_blocked_worked_example(self):
        moments = simple_moments([0.0, 2.0], [0.0, 2.0])
        report = var_diff_mixed(moments, 2, 2, MODE_CR_SRS_VS_BK_STRAT)
        assert report.diff == pytest.approx(1.0)

    def test_srs_vs_stratified_cr_can_be_negative(self):
        moments = simple_moments([1.0, 3.0], [0.0, 2.0])
        report = var_diff_mixed(moments, 2, 2, MODE_CR_SRS_VS_CR_STRAT)
        assert report.diff == pytest.approx(-1.0 / 3.0)

    def test_srs_vs_blocked_never_negative_under_fuzzing(self):
        rng = np.random.default_rng(77)
        for _ in range(300):
            k = int(rng.integers(1, 5))
            w = rng.random(k) + 0.1
            moments = simple_moments(
                rng.normal(size=k) * 2, rng.normal(size=k) * 2, weights=w / w.sum()
            )
            report = var_diff_mixed(moments, 5, 7, MODE_CR_SRS_VS_BK_STRAT)
            assert report.diff >= 0


def site_table(*blocks):
    """One table whose block ``j + 1`` holds ``blocks[j]`` as both potential outcomes."""
    values = np.concatenate([np.asarray(v, dtype=float) for v in blocks])
    labels = np.repeat(np.arange(1, len(blocks) + 1), [len(v) for v in blocks])
    return table_from_arrays(labels, values, values)


class TestVarDiffSiteSampling:
    def test_identical_blocks_make_blocking_costly(self):
        population = site_table(*[[0.0, 2.0]] * 3)
        report = var_diff_site_sampling(population, k_draw=4, p=0.5, reps=400, seed=1)
        assert report.diff < 0
        assert report.diff + 3 * report.mc_se < 0

    def test_between_spread_only_makes_blocking_helpful(self):
        population = site_table([0.0, 0.0], [2.0, 2.0])
        report = var_diff_site_sampling(population, k_draw=4, p=0.5, reps=400, seed=2)
        assert report.diff > 0

    def test_same_seed_reproduces(self):
        population = site_table([0.0, 1.0], [3.0, 5.0])
        a = var_diff_site_sampling(population, k_draw=3, p=0.5, reps=200, seed=9)
        b = var_diff_site_sampling(population, k_draw=3, p=0.5, reps=200, seed=9)
        assert a == b

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            var_diff_site_sampling(table_from_arrays([], [], []), k_draw=2, p=0.5)


class TestVarDiffTwoStage:
    def test_identical_means_exactly_zero(self):
        moments = simple_moments([1.0] * 3, [0.0] * 3)
        report = var_diff_two_stage(moments, [4] * 3, k_draw=4, p=0.5, reps=300, seed=3)
        assert report.diff == 0.0

    def test_two_types_give_positive_estimate(self):
        moments = simple_moments([0.0, 2.0], [0.0, 2.0])
        report = var_diff_two_stage(moments, [4, 4], k_draw=4, p=0.5, reps=400, seed=4)
        assert report.diff > 0
        assert report.var_cr == pytest.approx(report.var_bk + report.diff)

    def test_estimate_never_negative(self):
        rng = np.random.default_rng(5)
        mu = rng.normal(size=(5, 2))  # (mu_t, mu_c) per type, drawn in that order
        moments = simple_moments(
            mu[:, 0], mu[:, 1], sigma2_t=np.full(5, 1.0), sigma2_c=np.full(5, 2.0)
        )
        report = var_diff_two_stage(moments, [4] * 5, k_draw=3, p=0.25, reps=500, seed=5)
        assert report.diff >= 0

    def test_same_seed_reproduces(self):
        moments = simple_moments([0.0] * 2, [1.0] * 2)
        a = var_diff_two_stage(moments, [4, 4], k_draw=2, p=0.5, reps=100, seed=6)
        b = var_diff_two_stage(moments, [4, 4], k_draw=2, p=0.5, reps=100, seed=6)
        assert a == b

    def test_weights_and_sigma2_tc_are_not_read(self):
        mu_t, mu_c = [0.0, 1.0, 3.0], [0.5, 0.0, 2.0]
        uniform = simple_moments(mu_t, mu_c)
        skewed = StrataMoments(
            weights=[0.5, 0.25, 0.25], mu_t=mu_t, mu_c=mu_c, sigma2_t=np.ones(3),
            sigma2_c=np.ones(3), sigma2_tc=[0.0, 4.0, 9.0],
        )
        a = var_diff_two_stage(uniform, [4, 6, 8], k_draw=3, p=0.5, reps=100, seed=7)
        b = var_diff_two_stage(skewed, [4, 6, 8], k_draw=3, p=0.5, reps=100, seed=7)
        assert a == b


class TestVarianceReport:
    def test_ratio_undefined_when_var_cr_zero(self):
        report = VarianceReport(framework="finite", var_cr=0.0, var_bk=0.0, diff=0.0)
        assert report.ratio is None

    def test_inconsistent_diff_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            VarianceReport(framework="finite", var_cr=1.0, var_bk=0.5, diff=0.75)


# ---------------------------------------------------------------------------
# Batched Monte Carlo frameworks against per-rep references


def population_blocks(table):
    """``(y_t, y_c)`` of every block of a table, in label order."""
    members = [table.labels == j for j in range(table.num_blocks)]
    return [(table.y_t[mask], table.y_c[mask]) for mask in members]


def reference_site_reps(population, k_draw, p, reps, seed):
    """Per-rep (var_cr, var_bk, diff): assemble each draw's table, call var_diff_finite."""
    blocks = population_blocks(population)
    out = np.empty((3, reps))
    for r in range(reps):
        chosen = mc.rep_rng(seed, r).integers(len(blocks), size=k_draw)
        out[:, r] = site_draw([blocks[j] for j in chosen], p)
    return out


def reference_two_stage_reps(moments, n_k, k_draw, p, reps, seed):
    """Per-rep (var_cr, var_bk, diff) of two-stage sampling, one draw at a time."""
    out = np.empty((3, reps))
    for r in range(reps):
        chosen = mc.rep_rng(seed, r).integers(moments.num_strata, size=k_draw)
        out[:, r] = two_stage_draw(moments, n_k, chosen, p)
    return out


def two_stage_draw(moments, sizes, chosen, p):
    """(var_cr, var_bk, diff) for one ordered draw ``chosen`` of stratum types."""
    n_k = np.asarray([sizes[j] for j in chosen], dtype=float)
    n = float(n_k.sum())
    weights = n_k / n
    a, b = np.sqrt(p / (1 - p)), np.sqrt((1 - p) / p)
    composite = [a * moments.mu_c[j] + b * moments.mu_t[j] for j in chosen]
    diff = var_k(composite, weights) / (n - 1)
    n_tk = np.round(p * n_k)
    s2_t = np.asarray([moments.sigma2_t[j] for j in chosen])
    s2_c = np.asarray([moments.sigma2_c[j] for j in chosen])
    var_bk = float(np.sum(weights**2 * (s2_t / n_tk + s2_c / (n_k - n_tk))))
    return var_bk + diff, var_bk, diff


def assert_reps_close(got, want):
    """Per-rep vectors equal at 1e-12, scaled by each vector's largest magnitude."""
    assert got.shape == want.shape
    for name, g, w in zip(("var_cr", "var_bk", "diff"), got, want):
        scale = max(1e-300, float(np.max(np.abs(w))))
        assert np.max(np.abs(g - w)) <= 1e-12 * scale, name


def site_population(seed, sizes):
    """One table of blocks of the given sizes, each with a block-level shift."""
    rng = np.random.default_rng(seed)
    y_t, y_c = [], []
    for size in sizes:
        shift = rng.standard_normal()
        c = rng.standard_normal(size) + shift
        y_c.append(c)
        y_t.append(c + rng.standard_normal(size) + 0.5 * shift)
    labels = np.repeat(np.arange(1, len(sizes) + 1), sizes)
    return table_from_arrays(labels, np.concatenate(y_t), np.concatenate(y_c))


def two_stage_population(seed, sizes):
    """Moments of ``len(sizes)`` stratum types and the sizes, as ``(moments, n_k)``."""
    rng = np.random.default_rng(seed)
    # mu_t, mu_c, sigma2_t, sigma2_c per type, drawn type by type.
    draws = np.array([
        [rng.normal(), rng.normal(), rng.random() + 0.1, rng.random() + 0.1] for _ in sizes
    ])
    moments = simple_moments(
        draws[:, 0], draws[:, 1], sigma2_t=draws[:, 2], sigma2_c=draws[:, 3]
    )
    return moments, list(sizes)


#: (population sizes, k_draw, p, reps): unequal sizes, k_draw 1, reps that are
#: not a multiple of the 256-rep chunk.
SITE_CASES = [
    ((4, 6, 8, 10, 12, 6, 4), 5, 0.5, 300),
    ((4, 8, 12), 1, 0.25, 257),
    ((6, 9, 3, 12), 3, 1 / 3, 70),
    ((10,) * 5, 8, 0.5, 513),
]


class TestBatchedSiteSampling:
    @pytest.mark.parametrize("sizes, k_draw, p, reps", SITE_CASES)
    def test_per_rep_values_match_reference(self, sizes, k_draw, p, reps):
        population = site_population(len(sizes) + reps, sizes)
        got = site_sampling_reps(population, k_draw, p, reps, seed=17)
        assert_reps_close(got, reference_site_reps(population, k_draw, p, reps, 17))
        report = var_diff_site_sampling(population, k_draw, p, reps, seed=17)
        assert report.reps == reps
        assert report.var_cr == float(np.mean(got[0]))
        assert report.diff == float(np.mean(got[2]))
        assert report.mc_se == float(np.std(got[2], ddof=1) / np.sqrt(reps))

    def test_every_rep_is_checked(self, monkeypatch):
        # Two reps move by opposite amounts, so the means stay consistent and
        # only the per-rep check can see it.
        original = variance_theory._finite_comparison

        def skewed(*args):
            var_cr, var_bk, between, within = original(*args)
            between = between.copy()
            between[5] += 1e-9
            between[6] -= 1e-9
            return var_cr, var_bk, between, within

        monkeypatch.setattr(variance_theory, "_finite_comparison", skewed)
        population = site_population(2, (4, 6, 8))
        with pytest.raises(ValueError, match="inconsistent"):
            var_diff_site_sampling(population, 4, 0.5, reps=20, seed=1)

    def test_rejections_unchanged(self):
        population = site_population(1, (4, 6))
        with pytest.raises(ValueError, match="not an integer"):
            var_diff_site_sampling(population, 2, 0.3, reps=5)
        with pytest.raises(ValueError, match=r"p must be in \(0, 1\)"):
            var_diff_site_sampling(population, 2, 1.5, reps=5)
        with pytest.raises(ValueError, match="population block 1 has fewer than 2"):
            var_diff_site_sampling(site_population(1, (1,)), 2, 0.5, reps=5)
        with pytest.raises(ValueError, match="positive"):
            var_diff_site_sampling(population, 0, 0.5, reps=5)


class TestBatchedTwoStage:
    @pytest.mark.parametrize(
        "sizes, k_draw, p, reps",
        [((4, 6, 8, 4, 12), 4, 0.5, 300), ((4, 8), 1, 0.25, 257), ((6, 3, 9), 3, 1 / 3, 600)],
    )
    def test_per_rep_values_match_reference(self, sizes, k_draw, p, reps):
        moments, n_k = two_stage_population(len(sizes) + reps, sizes)
        got = two_stage_reps(moments, n_k, k_draw, p, reps, seed=23)
        assert_reps_close(got, reference_two_stage_reps(moments, n_k, k_draw, p, reps, 23))
        report = var_diff_two_stage(moments, n_k, k_draw, p, reps, seed=23)
        assert report.diff == float(np.mean(got[2]))

    def test_rejections(self):
        moments, n_k = two_stage_population(1, (4, 6, 8))
        with pytest.raises(ValueError, match=r"n_k must give one size per stratum \(3\), got 2"):
            var_diff_two_stage(moments, [4, 4], 2, 0.5, reps=5)
        with pytest.raises(ValueError, match="must be an integer"):
            var_diff_two_stage(moments, n_k, 2, 0.3, reps=5)
        with pytest.raises(ValueError, match="both arms nonempty"):
            var_diff_two_stage(moments, [4, 0, 8], 2, 0.5, reps=5)
        with pytest.raises(ValueError, match="both arms nonempty"):
            var_diff_two_stage(moments, n_k, 2, 1.5, reps=5)
        with pytest.raises(ValueError, match="positive"):
            var_diff_two_stage(moments, n_k, 0, 0.5, reps=5)


class TestCheckDiff:
    def test_scale_is_the_larger_variance_or_one(self):
        check_diff(1e6, 5e5, 5e5 + 0.9e-6)
        with pytest.raises(ValueError, match="inconsistent"):
            check_diff(1e6, 5e5, 5e5 + 1.1e-6)
        check_diff(0.25, 0.5, -0.25 + 0.9e-12)
        with pytest.raises(ValueError, match="inconsistent"):
            check_diff(0.25, 0.5, -0.25 + 1.1e-12)

    def test_one_bad_element_raises(self):
        var_cr = np.array([1.0, 2.0, 3.0])
        var_bk = np.array([0.5, 1.0, 1.5])
        diff = var_cr - var_bk
        check_diff(var_cr, var_bk, diff)
        diff[1] += 1e-11
        with pytest.raises(ValueError, match="inconsistent"):
            check_diff(var_cr, var_bk, diff)


# ---------------------------------------------------------------------------
# Exact expectations of the two sampling frameworks by enumerating draws


def enumerated_mean(num_types, k_draw, draw_value):
    """Mean of ``draw_value(chosen)`` over all ``num_types ** k_draw`` equally
    likely ordered draws."""
    values = [draw_value(chosen) for chosen in product(range(num_types), repeat=k_draw)]
    return np.mean(values, axis=0)


def site_draw(blocks, p):
    """(var_cr, var_bk, diff) of the table assembled from one ordered draw of
    ``(y_t, y_c)`` blocks."""
    labels = np.concatenate([np.full(len(y_t), i + 1) for i, (y_t, _) in enumerate(blocks)])
    table = table_from_arrays(
        labels,
        np.concatenate([y_t for y_t, _ in blocks]),
        np.concatenate([y_c for _, y_c in blocks]),
    )
    report = var_diff_finite(table, p)
    return report.var_cr, report.var_bk, report.diff


def exact_site(population, k_draw, p):
    blocks = population_blocks(population)
    return enumerated_mean(len(blocks), k_draw, lambda c: site_draw([blocks[j] for j in c], p))


def exact_two_stage(moments, n_k, k_draw, p):
    return enumerated_mean(
        moments.num_strata, k_draw, lambda c: two_stage_draw(moments, n_k, c, p)
    )


def composite_variance(means_c, means_t, p):
    """Var_J of the composite mean over equally likely types (ddof 0)."""
    a, b = np.sqrt(p / (1 - p)), np.sqrt((1 - p) / p)
    composite = a * np.asarray(means_c) + b * np.asarray(means_t)
    return float(np.var(composite))


class TestExactSamplingFrameworks:
    @pytest.mark.parametrize(
        "sizes, k_draw, p",
        [((4, 6, 8), 2, 0.5), ((4, 4, 8, 6), 3, 0.5), ((6, 3), 3, 1 / 3), ((4, 4), 1, 0.25)],
    )
    def test_site_monte_carlo_mean_within_four_se(self, sizes, k_draw, p):
        population = site_population(sum(sizes), sizes)
        exact = exact_site(population, k_draw, p)
        report = var_diff_site_sampling(population, k_draw, p, reps=3000, seed=41)
        if k_draw == 1:
            assert report.diff == 0.0 and exact[2] == 0.0
        else:
            assert abs(report.diff - exact[2]) <= 4 * report.mc_se

    @pytest.mark.parametrize("sizes, k_draw, p", [((4, 6, 8), 2, 0.5), ((4, 4, 8, 12), 3, 0.25)])
    def test_two_stage_monte_carlo_mean_within_four_se(self, sizes, k_draw, p):
        moments, n_k = two_stage_population(sum(sizes), sizes)
        exact = exact_two_stage(moments, n_k, k_draw, p)
        report = var_diff_two_stage(moments, n_k, k_draw, p, reps=3000, seed=43)
        assert abs(report.diff - exact[2]) <= 4 * report.mc_se

    @pytest.mark.parametrize("num_types, k_draw, m", [(2, 2, 4), (3, 3, 6), (4, 3, 4), (4, 2, 8)])
    def test_equal_size_two_stage_closed_form(self, num_types, k_draw, m):
        moments, n_k = two_stage_population(10 * num_types + k_draw, (m,) * num_types)
        p = 0.5
        enumerated = exact_two_stage(moments, n_k, k_draw, p)[2]
        closed = (
            (k_draw - 1) / k_draw
            * composite_variance(moments.mu_c, moments.mu_t, p)
            / (k_draw * m - 1)
        )
        assert abs(enumerated - closed) <= 1e-12 * max(abs(enumerated), abs(closed))

    @pytest.mark.parametrize(
        "num_types, k_draw, m, p", [(2, 2, 4, 0.5), (3, 3, 4, 0.25), (4, 2, 6, 0.5)]
    )
    def test_equal_size_site_closed_form(self, num_types, k_draw, m, p):
        # E[diff] = (K-1)/(K(n-1)) (Var_J(c_j) - mean_J var(tau_hat_j)), n = K m.
        population = site_population(num_types * m, (m,) * num_types)
        enumerated = exact_site(population, k_draw, p)[2]
        design = Blocked((round(p * m),))
        blocks = population_blocks(population)
        block_vars = [
            neyman_var_blocked(table_from_arrays([1] * m, y_t, y_c), design) for y_t, y_c in blocks
        ]
        means_c = [float(np.mean(y_c)) for _, y_c in blocks]
        means_t = [float(np.mean(y_t)) for y_t, _ in blocks]
        n = k_draw * m
        closed = (k_draw - 1) / (k_draw * (n - 1)) * (
            composite_variance(means_c, means_t, p) - float(np.mean(block_vars))
        )
        assert abs(enumerated - closed) <= 1e-12 * max(abs(enumerated), abs(closed))
