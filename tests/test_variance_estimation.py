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
from blockcalc.pop_model import StrataMoments, blocked_design_for_proportion, summarize
from blockcalc.oracle import chunk_rows, iter_assignments
from blockcalc import variance_estimation
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


class TestCrVarestBiasStrat:
    def test_equal_stratum_means_zero(self):
        moments = StrataMoments(
            weights=[0.5, 0.5], mu_t=[1.0, 1.0], mu_c=[0.0, 0.0],
            sigma2_t=[1.0, 2.0], sigma2_c=[1.0, 2.0], sigma2_tc=[0.0, 0.0],
        )
        assert cr_varest_bias_strat(moments, n=4, p=0.5) == pytest.approx(0.0)

    def test_worked_example(self):
        moments = StrataMoments(
            weights=[0.5, 0.5], mu_t=[0.0, 2.0], mu_c=[0.0, 2.0],
            sigma2_t=[1.0, 1.0], sigma2_c=[1.0, 1.0], sigma2_tc=[0.0, 0.0],
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
                sigma2_tc=np.zeros(k),
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
            # CR(5) and CR(9) are simulated, with 5 and 9 shuffle steps; the
            # blocked design's 3600 assignments are enumerated on every table.
            (CompleteRandomization(5), "monte_carlo"),
            (Blocked((2, 2, 2, 2)), "enumeration"),
            (CompleteRandomization(9), "monte_carlo"),
        ],
    )
    def test_batch_of_tables_matches_one_at_a_time(self, design, method, monkeypatch):
        monkeypatch.setattr(variance_estimation, "EXACT_ENUMERATION_LIMIT", 5000)
        labels = np.repeat([1, 2, 3, 4], [4, 5, 4, 5])
        rng = np.random.default_rng(5)
        tables = [table_from_arrays(labels, rng.normal(size=18) + 1, rng.normal(size=18))
                  for _ in range(3)]
        seeds = [3 * p + 2 for p in range(3)]
        reps = chunk_rows(18) + 7
        got = varest_variabilities(tables, design, seeds, reps=reps)
        assert [r.method for r in got] == [method] * 3
        for table, seed, result in zip(tables, seeds, got):
            want = reference_varest_variability(table, design, reps, seed)
            assert (result.mean_varest, result.var_of_varest) == want
