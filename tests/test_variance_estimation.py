import math
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from blockcalc import (
    Blocked,
    CompleteRandomization,
    ObservedSample,
    cr_varest_bias_strat,
    cr_varest_bias_under_blocking,
    exact_moments,
    expected_s2_under_blocking,
    neyman_var_blocked,
    neyman_var_cr,
    table_from_arrays,
    var_est_blocked,
    var_est_cr,
    varest_variability,
)
from blockcalc.blocking_lab import ScenarioConfig, gen_scenario_population
from blockcalc.pop_model import StrataMoments, blocked_design_for_proportion, summarize
from blockcalc.oracle import (
    CHUNK_CELLS,
    STATISTICS,
    _lex_sums,
    batch_statistic,
    centered_stack,
    chunk_rows,
    count_assignments,
    iter_assignments,
    stacked_statistic,
)
from blockcalc import variance_estimation
from blockcalc.studies import MisconceptionsConfig
from blockcalc.variance_estimation import varest_variabilities

from conftest import make_random_table, reference_varest_variability, rel_close


def obs(blocks, treated, y):
    return ObservedSample(blocks=tuple(blocks), treated=treated, y_obs=y)


class TestObservedSample:
    def test_fields_are_read_only_arrays(self, mirrored_blocks_table):
        mask = np.array([True, False, False, True])
        sample = ObservedSample.from_schedule(mirrored_blocks_table, mask)
        assert sample.treated.dtype == bool and sample.y_obs.dtype == float
        np.testing.assert_array_equal(sample.treated, mask)
        np.testing.assert_array_equal(sample.y_obs, [0.0, 2.0, 0.0, 2.0])
        mask[0] = False
        assert sample.treated[0]
        with pytest.raises(ValueError):
            sample.treated[0] = False

    @pytest.mark.parametrize("first, second", [(5, 7), ("A", "B"), (7, 5.0)])
    def test_raw_labels_give_the_bits_of_canonical_ones(self, first, second):
        # Labels are numbered 1..K in order of first appearance, as a table's are.
        y = np.random.default_rng(31).normal(size=8)
        treated = [1, 1, 0, 0, 0, 1, 0, 1]
        raw = obs([first] * 4 + [second] * 4, treated, y)
        canonical = obs([1] * 4 + [2] * 4, treated, y)
        np.testing.assert_array_equal(raw.blocks, canonical.blocks)
        assert raw.blocks.dtype == np.intp and not raw.blocks.flags.writeable
        for estimator in (var_est_cr, var_est_blocked):
            assert estimator(raw).hex() == estimator(canonical).hex()

    def test_from_schedule_keeps_the_table_labels(self):
        rng = np.random.default_rng(32)
        table = table_from_arrays(list("bbacacbca"), rng.normal(size=9), rng.normal(size=9))
        mask = np.array([1, 0, 1, 0, 1, 0, 1, 0, 1], dtype=bool)
        sample = ObservedSample.from_schedule(table, mask)
        np.testing.assert_array_equal(sample.blocks, table.blocks)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="one length"):
            obs([1] * 4, [1, 1, 0], [1.0, 3.0, 0.0, 2.0])


class TestVarEstCr:
    def test_arithmetic(self):
        sample = obs([1] * 4, [1, 1, 0, 0], [1.0, 3.0, 0.0, 2.0])
        assert var_est_cr(sample) == pytest.approx(2.0)

    def test_constant_arms(self):
        sample = obs([1] * 4, [1, 1, 0, 0], [1.0, 1.0, 0.0, 0.0])
        assert var_est_cr(sample) == 0.0

    def test_mirrored_observed_split(self, mirrored_blocks_table):
        mask = np.array([True, False, False, True])
        sample = ObservedSample.from_schedule(mirrored_blocks_table, mask)
        assert var_est_cr(sample) == pytest.approx(2.0)

    def test_small_arm_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            var_est_cr(obs([1] * 3, [1, 0, 0], [1.0, 0.0, 2.0]))


class TestVarEstBlocked:
    def test_four_strata_estimate_is_always_zero(self, four_strata_table):
        design = Blocked((2, 2, 2, 2))
        for mask in iter_assignments(four_strata_table, design):
            sample = ObservedSample.from_schedule(four_strata_table, mask)
            assert var_est_blocked(sample) == 0.0

    def test_single_block_equals_cr_estimate(self):
        sample = obs([1] * 6, [1, 1, 1, 0, 0, 0], [1.0, 2.0, 4.0, 0.0, 1.0, 5.0])
        assert var_est_blocked(sample) == pytest.approx(var_est_cr(sample))

    def test_singleton_arm_rejected_with_block_index(self):
        sample = obs([1, 1, 1, 2, 2, 2], [1, 1, 0, 1, 1, 0], np.arange(6.0))
        with pytest.raises(ValueError, match="block 1"):
            var_est_blocked(sample)


def exact_estimate(sample, per_block):
    """``sum_g (n_g/n)^2 (s2_t/n_t + s2_c/n_c)`` over the blocks, or over the
    whole sample, in rational arithmetic on the observed floats."""
    groups = sample.blocks if per_block else np.zeros_like(sample.blocks)
    n, total = len(sample.y_obs), Fraction(0)
    for g in np.unique(groups):
        in_group = groups == g
        for arm in (True, False):
            in_arm = in_group & (sample.treated == arm)
            values = [Fraction(v) for v in sample.y_obs[in_arm].tolist()]
            mean = sum(values) / len(values)
            s2 = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
            total += Fraction(int(in_group.sum()), n) ** 2 * s2 / len(values)
    return total


#: Samples whose treated arm sits 1e4 sigma above the control arm: blocks of
#: 6, 8 and 10 units, half of each treated, and the block (1e4, 1e4 + 1,
#: -1e4, -1e4 + 1) with its first two units treated.
FAR_APART = [
    obs(
        np.repeat([1, 2, 3], [6, 8, 10]),
        np.tile([True, False], 12),
        np.random.default_rng(33).normal(size=24) + 1e4 * np.tile([1.0, 0.0], 12),
    ),
    obs([1] * 4, [1, 1, 0, 0], [1e4, 1e4 + 1, -1e4, -1e4 + 1]),
]


class TestEstimatorAccuracy:
    @pytest.mark.parametrize("sample", FAR_APART)
    @pytest.mark.parametrize("estimator, per_block", [(var_est_cr, False), (var_est_blocked, True)])
    def test_far_apart_arms_match_exact_arithmetic(self, sample, estimator, per_block):
        want = exact_estimate(sample, per_block)
        assert abs(Fraction(estimator(sample)) - want) <= Fraction(1e-12) * want

    @pytest.mark.parametrize("sample", FAR_APART)
    @pytest.mark.parametrize("estimator", [var_est_cr, var_est_blocked])
    def test_scaling_to_the_float64_limit_is_exact(self, sample, estimator):
        # A power of two scales every step exactly, up to where the outcome
        # span squared is about 0.9 of float64's largest value over n.
        n = len(sample.y_obs)
        span = float(np.ptp(sample.y_obs))
        limit = 0.9 * np.finfo(float).max / n
        scale = 2.0 ** math.floor(math.log2(math.sqrt(limit) / span))
        scaled = obs(sample.blocks, sample.treated, scale * sample.y_obs)
        assert limit / 4 < (scale * span) ** 2 <= limit
        got = estimator(scaled)
        assert math.isfinite(got)
        assert got == scale**2 * estimator(sample)

    def test_kernel_scaling_to_the_float64_limit_is_exact(self):
        # Pooled centering leaves an arm's sum far from 0 when the treated
        # units hold the 32 largest outcomes of 64, from 64 to 95 against
        # -95 to -64: squaring that sum near the float64 limit overflows,
        # while the estimate does not.
        y = np.sign(np.arange(64) - 31.5) * (64 + np.arange(64) % 32)
        limit = 0.9 * np.finfo(float).max / 64
        scale = 2.0 ** math.floor(math.log2(math.sqrt(limit) / np.ptp(y)))
        masks = np.zeros((3, 64), dtype=bool)
        masks[0, 32:] = masks[1, ::2] = masks[2, :32] = True
        design = CompleteRandomization(32)
        for statistic in ("var_est_cr", "var_est_blocked"):
            tables = [table_from_arrays([1] * 64, s * y, s * y) for s in (1.0, scale)]
            values = [batch_statistic(table, design, statistic, masks) for table in tables]
            assert np.all(np.isfinite(values[1]))
            assert np.array_equal(values[1], scale**2 * values[0])

    def test_outlier_values_stay_within_the_absolute_bound(self):
        # The outlier pulls the treated arm's center to 1.25e6, so a treated
        # subset without it sits far from the center compared with its own
        # spread: its sum of squares keeps few digits and, unclamped, its
        # rounding falls below 0.
        y_c = np.array([-8, 7, -5, 9, -11, 9, 0, -12]) * 1e-4
        y_t = np.append(y_c[:-1], 1e7)
        table = table_from_arrays([1] * 8, y_t, y_c)
        masks = np.array([np.isin(np.arange(8), c) for c in combinations(range(8), 4)])
        values = batch_statistic(table, CompleteRandomization(4), "var_est_cr", masks)
        assert np.all(values >= 0.0)
        # Every arm's sum of squares is at most its whole table's, Q.
        q = [sum((Fraction(v) - Fraction(sum(map(Fraction, y.tolist()))) / 8) ** 2
                 for v in y.tolist()) for y in (y_t, y_c)]
        bound = 14 * 7 * 2.0**-53 * (q[0] + q[1]) / 12
        for mask, value in zip(masks, values.tolist()):
            arms = [y_t[mask].tolist(), y_c[~mask].tolist()]
            means = [sum(map(Fraction, arm)) / 4 for arm in arms]
            exact = sum(sum((Fraction(v) - mean) ** 2 for v in arm) / 12
                        for arm, mean in zip(arms, means))
            assert abs(Fraction(value) - exact) <= bound


class TestExpectedS2UnderBlocking:
    def test_mirrored_blocks_control_arm(self, mirrored_blocks_table):
        value = expected_s2_under_blocking(mirrored_blocks_table, "c", Blocked((1, 1)))
        assert value == pytest.approx(1.0)

    def test_constant_outcomes(self):
        table = table_from_arrays([1, 1, 2, 2], [2.0] * 4, [2.0] * 4)
        assert expected_s2_under_blocking(table, "t", Blocked((1, 1))) == pytest.approx(0.0)

    def test_single_block_is_unbiased(self):
        rng = np.random.default_rng(0)
        table = table_from_arrays([1] * 8, rng.standard_normal(8), rng.standard_normal(8))
        value = expected_s2_under_blocking(table, "c", Blocked((4,)))
        assert value == pytest.approx(summarize(table).pooled.s2_c)

    def test_unequal_proportions_rejected(self):
        table = table_from_arrays([1, 1, 2, 2, 2, 2], np.arange(6.0), np.zeros(6))
        with pytest.raises(ValueError, match="equal treated proportion"):
            expected_s2_under_blocking(table, "c", Blocked((1, 1)))

    @pytest.mark.parametrize("seed", range(15))
    @pytest.mark.parametrize("arm", ["t", "c"])
    def test_matches_enumeration_mean(self, seed, arm):
        rng = np.random.default_rng(300 + seed)
        table = make_random_table(rng, even_sizes=True)
        from conftest import equal_p_proportions

        options = [
            p for p in equal_p_proportions(table)
            if min(round(p * table.n), table.n - round(p * table.n)) >= 2
        ]
        if not options:
            pytest.skip("no feasible equal-proportion design")
        p = options[0]
        design = blocked_design_for_proportion(table, p)

        def s2_arm(tbl, mask):
            values = tbl.y_t[mask] if arm == "t" else tbl.y_c[~mask]
            return float(np.var(values, ddof=1))

        enumerated = exact_moments(table, design, s2_arm)
        closed = expected_s2_under_blocking(table, arm, design)
        assert rel_close(closed, enumerated.mean, 1e-10)


class TestCrVarestBiasUnderBlocking:
    def test_mirrored_blocks_witness(self, mirrored_blocks_table):
        result = cr_varest_bias_under_blocking(mirrored_blocks_table, 0.5)
        assert result.expected_varest_cr == pytest.approx(1.0)
        assert result.true_var_bk == pytest.approx(2.0)
        assert result.bias == pytest.approx(-1.0)

    def test_pure_between_spread_gives_positive_bias(self):
        table = table_from_arrays([1, 1, 2, 2], [0, 0, 2, 2], [0, 0, 2, 2])
        result = cr_varest_bias_under_blocking(table, 0.5)
        assert result.bias > 0

    def test_single_block_recovers_classical_conservatism(self):
        rng = np.random.default_rng(4)
        table = table_from_arrays([1] * 8, rng.standard_normal(8), rng.standard_normal(8))
        result = cr_varest_bias_under_blocking(table, 0.5)
        assert result.bias == pytest.approx(summarize(table).pooled.s2_tc / table.n)

    @pytest.mark.parametrize("seed", range(15))
    def test_expected_value_matches_enumeration(self, seed):
        rng = np.random.default_rng(900 + seed)
        table = make_random_table(rng, even_sizes=True)
        from conftest import equal_p_proportions

        options = [
            p for p in equal_p_proportions(table)
            if min(round(p * table.n), table.n - round(p * table.n)) >= 2
        ]
        if not options:
            pytest.skip("no feasible equal-proportion design")
        p = options[0]
        design = blocked_design_for_proportion(table, p)
        enumerated = exact_moments(table, design, "var_est_cr")
        result = cr_varest_bias_under_blocking(table, p)
        assert rel_close(result.expected_varest_cr, enumerated.mean, 1e-10)


def expected_varest_cr_by_block_enumeration(table, design):
    """E[var_est_cr] under a blocked design from each block's enumerated arm
    sums. An arm's ``s2 = (B - A^2 / size) / (size - 1)`` with ``A`` and ``B``
    its sums of ``x`` and ``x^2``; the blocks are independent, so
    ``E[A^2] = sum_k var(A_k) + (sum_k E A_k)^2``. A block's control units
    are the complements of its treated ones, one per subset of their size."""
    sizes = table.block_sizes.tolist()
    expected = []
    for y, counts in ((table.y_t, design.n_tk), (table.y_c, np.subtract(sizes, design.n_tk))):
        x = y - np.mean(y)
        means, variances, squares = [], [], []
        for k, m in enumerate(counts, start=1):
            units = x[table.block_indices(k)]
            sums = np.empty((2, math.comb(len(units), int(m))))
            for start, piece in _lex_sums(np.array([units, units**2]), int(m), None):
                sums[:, start : start + piece.shape[1]] = piece
            means.append(np.mean(sums[0]))
            variances.append(np.var(sums[0]))
            squares.append(np.mean(sums[1]))
        size = int(np.sum(counts))
        square_of_sum = math.fsum(variances) + math.fsum(means) ** 2
        expected.append((math.fsum(squares) - square_of_sum / size) / ((size - 1) * size))
    return math.fsum(expected)


class TestCrVarestBiasAtStudySize:
    @pytest.mark.parametrize("scale, rho", [(0.0, 0.0), (1.0, 0.5), (3.0, 1.0)])
    def test_closed_form_matches_enumeration_of_every_block(self, scale, rho):
        # The misconceptions grid's own blocks: about 2e20 blocked
        # assignments, but 3 * 45 + 3 * 455 + 2 * 4845 = 11,190 subsets of the
        # blocks' arms, well within the default enumeration cap.
        table, design = study_size_table(scale, rho)
        assert count_assignments(design, table) > 2 * 10**20
        want = cr_varest_bias_under_blocking(table, design.n_t / table.n).expected_varest_cr
        got = expected_varest_cr_by_block_enumeration(table, design)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("scale, rho", [(0.0, 0.0), (1.0, 0.5), (3.0, 1.0)])
    def test_exact_moments_at_study_size(self, scale, rho):
        # Every named statistic is enumerated under the default cap from the
        # blocks' subsets, and matches its closed form.
        table, design = study_size_table(scale, rho)
        assert design.n_tk == (2, 2, 2, 3, 3, 3, 4, 4)
        assert tuple(table.block_sizes) == (10, 10, 10, 15, 15, 15, 20, 20)
        moments = {s: exact_moments(table, design, s) for s in STATISTICS}
        for m in moments.values():
            assert (m.count, m.evaluated) == (201492689618710546875, 11190)
        blocks = [table.block_indices(k) for k in range(1, 9)]
        weights = [len(units) / table.n for units in blocks]
        s2 = lambda y, units: np.var(y[units], ddof=1)
        tau = moments["tau_hat"]
        assert tau.mean == pytest.approx(np.mean(table.y_t - table.y_c), rel=1e-12)
        assert tau.variance == pytest.approx(neyman_var_blocked(table, design), rel=1e-12)
        want = math.fsum(w * w * (s2(table.y_t, units) / m + s2(table.y_c, units) / (len(units) - m))
                         for w, units, m in zip(weights, blocks, design.n_tk))
        assert moments["var_est_blocked"].mean == pytest.approx(want, rel=1e-12)
        misapplied = moments["var_est_cr"].mean
        assert misapplied == pytest.approx(
            cr_varest_bias_under_blocking(table, 0.2).expected_varest_cr, rel=1e-12
        )
        assert misapplied == pytest.approx(
            expected_varest_cr_by_block_enumeration(table, design), rel=1e-12
        )


def study_size_table(scale, rho):
    """A population of the misconceptions grid's block shape and its design."""
    cfg = MisconceptionsConfig()
    config = ScenarioConfig(cfg.block_sizes, cfg.treated_counts, scale,
                            cfg.effect_spread_factor * scale, rho, cfg.base_sigma, seed=11)
    return gen_scenario_population(config), Blocked(cfg.treated_counts)


class TestCrVarestBiasStrat:
    def test_equal_stratum_means_zero(self):
        moments = StrataMoments(
            weights=[0.5, 0.5], mu_t=[1.0, 1.0], mu_c=[0.0, 0.0],
            sigma2_t=[1.0, 2.0], sigma2_c=[1.0, 2.0],
        )
        assert cr_varest_bias_strat(moments, n=4, p=0.5) == pytest.approx(0.0)

    def test_worked_example(self):
        moments = StrataMoments(
            weights=[0.5, 0.5], mu_t=[0.0, 2.0], mu_c=[0.0, 2.0],
            sigma2_t=[1.0, 1.0], sigma2_c=[1.0, 1.0],
        )
        assert cr_varest_bias_strat(moments, n=4, p=0.5) == pytest.approx(2.0)

    def test_fuzzed_inputs_never_negative(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            k = int(rng.integers(1, 6))
            w = rng.random(k) + 0.1
            moments = StrataMoments(
                weights=w / w.sum(),
                mu_t=rng.normal(size=k) * 4,
                mu_c=rng.normal(size=k) * 4,
                sigma2_t=rng.random(k),
                sigma2_c=rng.random(k),
            )
            assert cr_varest_bias_strat(moments, n=8, p=0.5) >= 0.0


class TestConservatism:
    @pytest.mark.parametrize("seed", range(12))
    def test_cr_estimator_bias_under_its_own_design(self, seed):
        # Enumerated mean of the estimator minus the true variance equals
        # S2_tc / n exactly.
        rng = np.random.default_rng(50 + seed)
        table = make_random_table(rng)
        n_t = int(rng.integers(2, table.n - 1)) if table.n >= 4 else 2
        if n_t < 2 or table.n - n_t < 2:
            pytest.skip("arms too small")
        design = CompleteRandomization(n_t)
        est_mean = exact_moments(table, design, "var_est_cr").mean
        true_var = exact_moments(table, design, "tau_hat").variance
        expected_bias = summarize(table).pooled.s2_tc / table.n
        assert rel_close(est_mean - true_var, expected_bias, 1e-10)

    @pytest.mark.parametrize("seed", range(12))
    def test_blocked_estimator_never_anti_conservative(self, seed):
        rng = np.random.default_rng(70 + seed)
        table = make_random_table(rng, n_range=(8, 10), k_range=(1, 2))
        sizes = table.block_sizes
        if np.any(sizes < 4):
            pytest.skip("blocks too small for the estimator")
        design = Blocked(tuple(int(s) // 2 for s in sizes))
        est_mean = exact_moments(table, design, "var_est_blocked").mean
        true_var = exact_moments(table, design, "tau_hat").variance
        assert est_mean >= true_var - 1e-10
        # The bias is exactly sum_k (n_k/n)^2 S2_tck / n_k.
        summary = summarize(table)
        bias = sum(
            (blk.size / table.n) ** 2 * blk.s2_tc / blk.size for blk in summary.per_block
        )
        assert rel_close(est_mean - true_var, bias, 1e-10)


class TestVarestVariability:
    def test_four_strata_blocked_estimator_has_zero_variance(self, four_strata_table):
        result = varest_variability(four_strata_table, Blocked((2, 2, 2, 2)))
        assert result.method == "enumeration"
        assert result.var_of_varest == 0.0

    def test_four_strata_cr_estimator_varies(self, four_strata_table):
        result = varest_variability(four_strata_table, CompleteRandomization(8))
        assert result.method == "enumeration"
        assert result.reps_used == 12870
        assert result.var_of_varest > 0.0

    def test_constant_table_either_design(self):
        table = table_from_arrays([1, 1, 1, 1, 2, 2, 2, 2], np.ones(8), np.ones(8))
        for design in (CompleteRandomization(4), Blocked((2, 2))):
            assert varest_variability(table, design).var_of_varest == 0.0

    def test_monte_carlo_path_is_deterministic(self, four_strata_table, monkeypatch):
        monkeypatch.setattr(variance_estimation, "EXACT_ENUMERATION_LIMIT", 10)
        kwargs = dict(reps=40, seed=3)
        a = varest_variability(four_strata_table, CompleteRandomization(8), **kwargs)
        b = varest_variability(four_strata_table, CompleteRandomization(8), **kwargs)
        assert a == b
        assert a.method == "monte_carlo"

    @pytest.mark.parametrize("design", [CompleteRandomization(8), Blocked((2, 3, 2, 3))])
    @pytest.mark.parametrize(
        "reps, seed", [(2, 0), (chunk_rows(18) + 50, 9), (3 * chunk_rows(18) + 1, 2**70 + 3)]
    )
    def test_monte_carlo_branch_matches_per_rep_generators(self, design, reps, seed, monkeypatch):
        monkeypatch.setattr(variance_estimation, "EXACT_ENUMERATION_LIMIT", 1)
        labels = np.repeat([1, 2, 3, 4], [4, 5, 4, 5])
        y = np.random.default_rng(8).normal(size=18)
        table = table_from_arrays(labels, y + 0.5 * labels, y)
        got = varest_variability(table, design, reps=reps, seed=seed)
        want = reference_varest_variability(table, design, reps, seed)
        assert (got.mean_varest, got.var_of_varest) == want
        assert (got.method, got.reps_used) == ("monte_carlo", reps)

    @pytest.mark.parametrize(
        "design, method",
        [
            # The limit sits at a design's assignment count to enumerate it
            # on every table and one below to simulate it: CR(5) and CR(9)
            # with 5 and 9 shuffle steps, and blocked designs of 3600.
            (CompleteRandomization(5), "monte_carlo"),
            (Blocked((2, 2, 2, 2)), "enumeration"),
            (CompleteRandomization(9), "monte_carlo"),
            (Blocked((2, 3, 2, 2)), "monte_carlo"),
        ],
    )
    def test_batch_of_tables_matches_one_at_a_time(self, design, method, monkeypatch):
        labels = np.repeat([1, 2, 3, 4], [4, 5, 4, 5])
        rng = np.random.default_rng(5)
        tables = [table_from_arrays(labels, rng.normal(size=18) + 1, rng.normal(size=18))
                  for _ in range(3)]
        limit = count_assignments(design, tables[0]) - (method == "monte_carlo")
        monkeypatch.setattr(variance_estimation, "EXACT_ENUMERATION_LIMIT", limit)
        seeds = [3 * p + 2 for p in range(3)]
        reps = chunk_rows(18) + 7
        got = varest_variabilities(tables, design, seeds, reps=reps)
        assert [r.method for r in got] == [method] * 3
        if method == "monte_carlo":
            # The stack is centered at once; no table's cached stats is built.
            assert all("stats" not in vars(table) for table in tables)
        for table, seed, result in zip(tables, seeds, got):
            want = reference_varest_variability(table, design, reps, seed)
            assert (result.mean_varest, result.var_of_varest) == want

    @pytest.mark.parametrize("statistic", ["var_est_cr", "var_est_blocked"])
    def test_stack_of_full_chunks_keeps_bits_and_bounded_memory(self, statistic):
        # A chunk of chunk_rows(n) grid points at chunk_rows(n) reps: as one
        # float buffer its masks alone would take 18.5 MB.
        cfg = MisconceptionsConfig()
        n, count = sum(cfg.block_sizes), chunk_rows(sum(cfg.block_sizes))
        labels = np.repeat(np.arange(1, len(cfg.block_sizes) + 1), cfg.block_sizes)
        rng = np.random.default_rng(11)
        tables = [table_from_arrays(labels, rng.normal(size=n), rng.normal(size=n))
                  for _ in range(count)]
        masks = np.concatenate([
            rng.permuted(np.broadcast_to(np.arange(size) < m, (count * count, size)), axis=1)
            for size, m in zip(cfg.block_sizes, cfg.treated_counts)
        ], axis=1).reshape(count, count, n)
        centered = centered_stack(tables, statistic == "var_est_blocked")
        tracemalloc.start()
        try:
            values = stacked_statistic(statistic, statistic == "var_est_blocked", centered, masks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * CHUNK_CELLS * 8
        for table, table_masks, row in zip(tables, masks, values):
            assert np.array_equal(row, batch_statistic(table, None, statistic, table_masks))
