import itertools
import math
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockcalc import (
    ScenarioConfig,
    gen_scenario_population,
    gen_xy_population,
    make_blocks_flex,
    make_blocks_interleave,
    make_blocks_peevish,
    make_blocks_random,
    r2_blocks,
    table_from_arrays,
)
from blockcalc.blocking_lab import (
    _standardized,
    covariate_sample_from_values,
    gen_scenario_outcomes,
    within_variance_ratio,
)
from blockcalc.pop_model import grouped_moments


def blocks_as_sets(labels, x):
    out = {}
    for value, lab in zip(x, labels):
        out.setdefault(int(lab), set()).add(value)
    return out


class TestFlexBlocks:
    def test_sorted_chunking(self):
        sample = covariate_sample_from_values(np.arange(1.0, 9.0))
        labels = make_blocks_flex(sample, 4)
        assert blocks_as_sets(labels, sample.x) == {1: {1, 2, 3, 4}, 2: {5, 6, 7, 8}}

    def test_ties_resolved_by_unit_order(self):
        sample = covariate_sample_from_values(np.zeros(4))
        labels = make_blocks_flex(sample, 2)
        assert list(labels) == [1, 1, 2, 2]

    def test_unsorted_input(self):
        sample = covariate_sample_from_values([3.0, 1.0, 4.0, 2.0])
        labels = make_blocks_flex(sample, 2)
        assert blocks_as_sets(labels, sample.x) == {1: {1, 2}, 2: {3, 4}}

    def test_remainder_absorbed_into_last_block(self):
        sample = covariate_sample_from_values(np.arange(10.0))
        labels = make_blocks_flex(sample, 4)
        counts = Counter(labels)
        assert counts == {1: 4, 2: 6}

    def test_small_block_size_rejected(self):
        sample = covariate_sample_from_values(np.arange(4.0))
        with pytest.raises(ValueError, match="at least 2"):
            make_blocks_flex(sample, 1)


class TestInterleaveBlocks:
    def test_round_robin(self):
        sample = covariate_sample_from_values(np.arange(1.0, 9.0))
        labels = make_blocks_interleave(sample, 2)
        assert blocks_as_sets(labels, sample.x) == {1: {1, 3, 5, 7}, 2: {2, 4, 6, 8}}

    def test_singleton_blocks_rejected(self):
        sample = covariate_sample_from_values(np.arange(4.0))
        with pytest.raises(ValueError, match="fewer than 2"):
            make_blocks_interleave(sample, 4)

    def test_equal_covariates_fall_back_to_rank(self):
        sample = covariate_sample_from_values(np.zeros(6))
        labels = make_blocks_interleave(sample, 3)
        assert list(labels) == [1, 2, 3, 1, 2, 3]


class TestPeevishBlocks:
    def test_parity_balanced_compact_blocks(self):
        sample = covariate_sample_from_values(np.arange(1.0, 9.0))
        labels = make_blocks_peevish(sample, 4)
        assert blocks_as_sets(labels, sample.x) == {1: {1, 3, 2, 4}, 2: {5, 7, 6, 8}}

    def test_all_even_rejected(self):
        sample = covariate_sample_from_values([2.0, 4.0, 6.0, 8.0])
        with pytest.raises(ValueError, match="equal counts"):
            make_blocks_peevish(sample, 4)

    def test_odd_block_size_rejected(self):
        sample = covariate_sample_from_values(np.arange(1.0, 7.0))
        with pytest.raises(ValueError, match="even"):
            make_blocks_peevish(sample, 3)

    def test_tighter_x_than_interleave_on_integer_grid(self):
        sample = covariate_sample_from_values(np.arange(1.0, 17.0))
        peevish = within_variance_ratio(sample.x, make_blocks_peevish(sample, 4))
        interleave = within_variance_ratio(sample.x, make_blocks_interleave(sample, 4))
        assert peevish < interleave


class TestRandomBlocks:
    def test_uniform_partition_frequencies(self):
        rng = np.random.default_rng(314)
        counts = Counter()
        draws = 100_000
        for _ in range(draws):
            labels = make_blocks_random(4, [2, 2], rng)
            counts[tuple(labels)] += 1
        assert len(counts) == 6
        for c in counts.values():
            assert abs(c / draws - 1 / 6) < 0.01

    def test_single_block(self):
        labels = make_blocks_random(4, [4], np.random.default_rng(0))
        assert list(labels) == [1, 1, 1, 1]

    def test_fixed_seed_reproduces(self):
        a = make_blocks_random(8, [4, 4], np.random.default_rng(12))
        b = make_blocks_random(8, [4, 4], np.random.default_rng(12))
        assert np.array_equal(a, b)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="sum to n"):
            make_blocks_random(5, [2, 2], np.random.default_rng(0))


class TestRandomBlockingLawEquivalence:
    def test_composed_law_is_uniform_over_treated_subsets(self):
        # Random partition into sizes, then a fixed treated count per block
        # slot, must induce the uniform law over size-n_t subsets. Checked
        # exactly with rational arithmetic on a small case.
        sizes, n_tk = (2, 2), (1, 1)
        n, n_t = sum(sizes), sum(n_tk)
        law = Counter()

        def partitions(units, remaining):
            if not remaining:
                yield []
                return
            head, *tail = remaining
            for chosen in combinations(units, head):
                rest = tuple(u for u in units if u not in chosen)
                for others in partitions(rest, tail):
                    yield [chosen] + others

        parts = list(partitions(tuple(range(n)), list(sizes)))
        for part in parts:
            weight = Fraction(1, len(parts))
            arms = [list(combinations(block, m)) for block, m in zip(part, n_tk)]
            total = math.prod(len(a) for a in arms)
            from itertools import product

            for pick in product(*arms):
                treated = frozenset(u for grp in pick for u in grp)
                law[treated] += weight * Fraction(1, total)
        assert len(law) == math.comb(n, n_t)
        assert all(prob == Fraction(1, math.comb(n, n_t)) for prob in law.values())


# ---------------------------------------------------------------------------
# Label makers against their per-unit loop references


def reference_flex(sample, block_size):
    k = sample.n // block_size
    labels = np.empty(sample.n, dtype=int)
    for rank, unit in enumerate(np.argsort(sample.x, kind="stable")):
        labels[unit] = min(rank // block_size, k - 1) + 1
    return labels


def reference_interleave(sample, k):
    labels = np.empty(sample.n, dtype=int)
    for rank, unit in enumerate(np.argsort(sample.x, kind="stable")):
        labels[unit] = rank % k + 1
    return labels


def reference_peevish(sample, block_size):
    x = sample.x
    half, k = block_size // 2, sample.n // block_size
    labels = np.empty(sample.n, dtype=int)
    for parity in (1, 0):
        units = np.flatnonzero(x.astype(int) % 2 == parity)
        for rank, unit in enumerate(units[np.argsort(x[units], kind="stable")]):
            labels[unit] = min(rank // half, k - 1) + 1
    return labels


def reference_random(n, sizes, rng):
    perm = rng.permutation(n)
    labels = np.empty(n, dtype=int)
    pos = 0
    for k, size in enumerate(sizes, start=1):
        labels[perm[pos : pos + size]] = k
        pos += size
    return labels


def tied_integer_sample(seed, n):
    """``n`` integer covariates with ties, half of them even, in shuffled order."""
    rng = np.random.default_rng(seed)
    odd = 2 * rng.integers(0, 4, n - n // 2) + 1
    even = 2 * rng.integers(0, 4, n // 2)
    return covariate_sample_from_values(rng.permutation(np.concatenate([odd, even])))


class TestLabelMakersMatchLoops:
    @pytest.mark.parametrize("n, block_size", [(8, 2), (10, 4), (13, 3), (13, 13), (30, 7)])
    def test_flex(self, n, block_size):
        for seed in range(5):
            sample = tied_integer_sample(seed, n)
            got = make_blocks_flex(sample, block_size)
            assert np.array_equal(got, reference_flex(sample, block_size))

    @pytest.mark.parametrize("n, k", [(8, 2), (10, 3), (13, 4), (30, 15)])
    def test_interleave(self, n, k):
        for seed in range(5):
            sample = tied_integer_sample(seed, n)
            got = make_blocks_interleave(sample, k)
            assert np.array_equal(got, reference_interleave(sample, k))

    @pytest.mark.parametrize("n, block_size", [(8, 4), (10, 4), (14, 6), (32, 4), (12, 2)])
    def test_peevish(self, n, block_size):
        # n=10, block_size=4 and n=14, block_size=6 leave units of each parity over.
        for seed in range(5):
            sample = tied_integer_sample(seed, n)
            got = make_blocks_peevish(sample, block_size)
            assert np.array_equal(got, reference_peevish(sample, block_size))

    @pytest.mark.parametrize("sizes", [[4], [2, 2], [3, 1, 5], [6, 2, 2, 7]])
    def test_random_same_labels_and_generator_state(self, sizes):
        for seed in range(5):
            mine, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = make_blocks_random(sum(sizes), sizes, mine)
            assert np.array_equal(got, reference_random(sum(sizes), sizes, ref))
            assert mine.bit_generator.state == ref.bit_generator.state


class TestR2Blocks:
    def test_identical_blocks_give_zero(self, mirrored_blocks_table):
        assert r2_blocks(mirrored_blocks_table) == pytest.approx(0.0)

    def test_pure_between_spread_gives_one(self):
        table = table_from_arrays([1, 1, 2, 2], [0, 0, 2, 2], [0, 0, 2, 2])
        assert r2_blocks(table) == pytest.approx(1.0)

    def test_single_block_gives_zero_when_effects_match(self):
        table = table_from_arrays([1, 1, 1], [1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert r2_blocks(table) == pytest.approx(0.0)

    def test_undefined_for_constant_outcomes(self):
        table = table_from_arrays([1, 1], [2.0, 2.0], [2.0, 2.0])
        assert r2_blocks(table) is None

    @given(st.integers(0, 2**32 - 1), st.floats(-20, 20), st.floats(0.1, 7))
    @settings(max_examples=40, deadline=None)
    def test_invariant_to_shift_and_scale(self, seed, shift, scale):
        from conftest import make_random_table

        rng = np.random.default_rng(seed)
        table = make_random_table(rng)
        base = r2_blocks(table)
        transformed = table_from_arrays(
            table.blocks, scale * table.y_t + shift, scale * table.y_c + shift
        )
        assert r2_blocks(transformed) == pytest.approx(base, abs=1e-9)

    def test_large_effect_does_not_overflow(self):
        # n * tau**2 / 2 is past float64's range unless the moments are scaled.
        table = table_from_arrays([1, 1, 2, 2], [1e200] * 4, [0.0, 1.0, 0.0, 1.0])
        assert r2_blocks(table) == 1.0

    @pytest.mark.parametrize("factor", [1e100, 1e-100])
    def test_invariant_to_extreme_scale(self, factor):
        from conftest import make_random_table

        for seed in range(100):
            table = make_random_table(np.random.default_rng(seed), n_range=(4, 40), k_range=(1, 6))
            scaled = table_from_arrays(table.blocks, factor * table.y_t, factor * table.y_c)
            assert abs(r2_blocks(scaled) - r2_blocks(table)) <= 1e-12, seed

    @pytest.mark.parametrize("offset, scale", [(0.0, 1.0), (1e8, 1.0), (0.0, 1e-6), (0.0, 1e6)])
    def test_matches_stacked_vector_reference(self, offset, scale):
        from conftest import make_random_table

        for seed in range(200):
            table = make_random_table(np.random.default_rng(seed), n_range=(4, 40), k_range=(1, 6))
            moved = table_from_arrays(
                table.blocks, scale * table.y_t + offset, scale * table.y_c + offset
            )
            assert abs(r2_blocks(moved) - reference_r2_blocks(moved)) <= 1e-12, seed


class TestGenScenarioPopulation:
    def config(self, **overrides):
        base = dict(
            block_sizes=(10, 10, 10, 15, 15, 15, 20, 20),
            treated_counts=(2, 2, 2, 3, 3, 3, 4, 4),
            control_mean_spread=1.5,
            effect_spread=0.75,
            rho=0.5,
            base_sigma=1.0,
            seed=123,
        )
        base.update(overrides)
        return ScenarioConfig(**base)

    def test_zero_spreads_give_zero_r2(self):
        table = gen_scenario_population(self.config(control_mean_spread=0.0, effect_spread=0.0))
        assert r2_blocks(table) == pytest.approx(0.0, abs=1e-12)

    def test_additive_effects_at_full_correlation(self):
        table = gen_scenario_population(self.config(rho=1.0))
        for k in range(1, table.num_blocks + 1):
            idx = table.block_indices(k)
            effects = table.y_t[idx] - table.y_c[idx]
            assert float(np.var(effects, ddof=1)) == pytest.approx(0.0, abs=1e-18)

    def test_block_moments_match_targets_exactly(self):
        cfg = self.config()
        table = gen_scenario_population(cfg)
        sizes = np.asarray(cfg.block_sizes, dtype=float)
        scores = (sizes.mean() - sizes) / (sizes.max() - sizes.min())
        for k in range(1, table.num_blocks + 1):
            idx = table.block_indices(k)
            mu_c = cfg.control_mean_spread * scores[k - 1]
            tau = cfg.effect_spread * scores[k - 1]
            assert float(np.mean(table.y_c[idx])) == pytest.approx(mu_c, abs=1e-9)
            assert float(np.mean(table.y_t[idx])) == pytest.approx(mu_c + tau, abs=1e-9)
            assert float(np.var(table.y_c[idx], ddof=1)) == pytest.approx(1.0, abs=1e-9)
            assert float(np.var(table.y_t[idx], ddof=1)) == pytest.approx(1.0, abs=1e-9)
            corr = np.corrcoef(table.y_c[idx], table.y_t[idx])[0, 1]
            assert corr == pytest.approx(cfg.rho, abs=1e-9)

    def test_small_blocks_rejected(self):
        with pytest.raises(ValueError, match="at least 3"):
            gen_scenario_population(
                self.config(block_sizes=(2, 4), treated_counts=(1, 2))
            )

    @pytest.mark.parametrize("field", ["base_sigma", "control_mean_spread", "effect_spread"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_settings_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got"):
            self.config(**{field: value})

    def test_degenerate_block_rejected(self):
        values = np.array([1.0, 1.0, 1.0, 0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="degenerate draw"):
            _standardized(values, np.repeat([0, 1], 3), np.array([3, 3]))

    @pytest.mark.parametrize(
        "sizes",
        [(5,), (3, 3, 3), (3, 7, 4), (25, 3, 11, 6, 3), (10, 10, 10, 15, 15, 15, 20, 20)],
    )
    @pytest.mark.parametrize("rho", [-1.0, 0.0, 0.37, 1.0])
    def test_matches_per_block_reference(self, sizes, rho):
        cfg = self.config(
            block_sizes=sizes,
            treated_counts=tuple(1 for _ in sizes),
            rho=rho,
            base_sigma=2.5,
            seed=sum(sizes),
        )
        table = gen_scenario_population(cfg)
        want_t, want_c = reference_scenario_population(cfg)
        scale = max(np.abs(want_t).max(), np.abs(want_c).max())
        np.testing.assert_allclose(table.y_t, want_t, rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(table.y_c, want_c, rtol=0, atol=1e-12 * scale)
        np.testing.assert_array_equal(table.blocks, np.repeat(np.arange(1, len(sizes) + 1), sizes))
        assert table.unit_ids == tuple(f"u{i + 1}" for i in range(sum(sizes)))

    def test_batch_rows_match_single_populations(self):
        grid = itertools.product([0.0, 0.5, 3.0], [-0.3, 0.5, 1.0])
        configs = [
            self.config(control_mean_spread=s, effect_spread=s / 2, rho=r, seed=i)
            for i, (s, r) in enumerate(grid)
        ]
        labels, y_t, y_c = gen_scenario_outcomes(configs)
        assert y_t.shape == y_c.shape == (len(configs), 115)
        for config, row_t, row_c in zip(configs, y_t, y_c):
            table = gen_scenario_population(config)
            scale = max(np.abs(table.y_t).max(), np.abs(table.y_c).max())
            np.testing.assert_allclose(row_t, table.y_t, rtol=0, atol=1e-13 * scale)
            np.testing.assert_allclose(row_c, table.y_c, rtol=0, atol=1e-13 * scale)
            np.testing.assert_array_equal(labels + 1, table.blocks)

    def test_batch_needs_one_block_sizes(self):
        other = self.config(block_sizes=(5, 5), treated_counts=(2, 2))
        with pytest.raises(ValueError, match="one block_sizes"):
            gen_scenario_outcomes([self.config(), other])

    def test_noise_below_one_ulp_of_the_means_rejected(self):
        # Block means near 1 hold no noise of 1e-160: it would be lost to rounding.
        with pytest.raises(ValueError, match="^base_sigma 1e-160 is below one ulp of the largest"):
            gen_scenario_population(self.config(base_sigma=1e-160))
        gen_scenario_population(self.config(base_sigma=1e-15))

    def test_tiny_noise_around_zero_means_accepted(self):
        table = gen_scenario_population(
            self.config(control_mean_spread=0.0, effect_spread=0.0, base_sigma=1e-300)
        )
        assert float(np.std(table.y_c[:10] / 1e-300, ddof=1)) == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("sizes", [(3,), (3, 7, 4), (16, 5, 9, 3)])
    def test_one_draw_is_the_per_block_pairs(self, sizes):
        one, pairs = np.random.default_rng(41), np.random.default_rng(41)
        drawn = one.standard_normal(2 * sum(sizes))
        expected = np.concatenate(
            [pairs.standard_normal(size) for size in sizes for _ in range(2)]
        )
        np.testing.assert_array_equal(drawn, expected)
        assert one.bit_generator.state == pairs.bit_generator.state


def reference_r2_blocks(table):
    """Between-group share of the total sum of squares of the stacked
    (control then treated) outcome vector grouped by (block, arm)."""
    stacked = np.concatenate([table.y_c, table.y_t])
    groups = np.concatenate([table.labels, table.labels + table.num_blocks])
    counts, moments = grouped_moments(stacked, groups)
    between = float(counts @ moments.dev**2)
    return between / (float(moments.ss.sum()) + between)


def reference_scenario_population(config):
    """``(y_t, y_c)`` of the per-block loop the generator replaced: one pair of
    ``standard_normal(size)`` calls per block, in block order."""

    def standardized(values):
        centered = values - values.mean()
        return centered / centered.std(ddof=1)

    sizes = np.asarray(config.block_sizes, dtype=int)
    rng = np.random.default_rng(config.seed)
    lo, hi = sizes.min(), sizes.max()
    scores = np.zeros(len(sizes)) if hi == lo else (sizes.mean() - sizes) / (hi - lo)
    mu_c = config.control_mean_spread * scores
    tau = config.effect_spread * scores
    y_t, y_c = [], []
    for k, size in enumerate(sizes):
        e_c = standardized(rng.standard_normal(size))
        raw = rng.standard_normal(size)
        resid = raw - raw.mean() - (raw @ e_c) / (e_c @ e_c) * e_c
        e_u = standardized(resid)
        e_t = config.rho * e_c + np.sqrt(1 - config.rho**2) * e_u
        y_c.append(mu_c[k] + config.base_sigma * e_c)
        y_t.append(mu_c[k] + tau[k] + config.base_sigma * e_t)
    return np.concatenate(y_t), np.concatenate(y_c)


class TestGenXyPopulation:
    def test_indep_outcome_uncorrelated_with_covariate(self):
        rng = np.random.default_rng(6)
        sample, table = gen_xy_population("indep", 10_000, 1.0, rng)
        corr = np.corrcoef(sample.x, table.y_c)[0, 1]
        assert abs(corr) < 0.02

    def test_noiseless_linear(self):
        rng = np.random.default_rng(0)
        sample, table = gen_xy_population("linear", 32, 0.0, rng)
        np.testing.assert_allclose(table.y_c, sample.x)

    def test_noiseless_odd(self):
        rng = np.random.default_rng(0)
        sample, table = gen_xy_population("odd", 32, 0.0, rng)
        expected = np.where(sample.x.astype(int) % 2 == 1, 10.0, 0.0)
        np.testing.assert_allclose(table.y_c, expected)

    def test_zero_treatment_effect(self):
        rng = np.random.default_rng(1)
        _, table = gen_xy_population("linear", 64, 1.0, rng)
        np.testing.assert_array_equal(table.y_t, table.y_c)

    def test_size_must_be_multiple_of_16(self):
        with pytest.raises(ValueError, match="multiple of 16"):
            gen_xy_population("linear", 20, 1.0, np.random.default_rng(0))


