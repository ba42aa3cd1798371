import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockcalc import (
    StrataMoments,
    pooled_decomposition,
    summarize,
    table_from_arrays,
    validate_table,
)
from blockcalc.pop_model import (
    Blocked,
    CompleteRandomization,
    blocked_design_for_proportion,
    equal_proportions,
    centered_moments,
    read_strata_csv,
    read_table_csv,
    validate_design,
    write_table_csv,
)

from conftest import make_random_table


def records(rows):
    return [dict(zip(("unit_id", "block", "y_t", "y_c"), row)) for row in rows]


class TestValidateTable:
    def test_relabels_blocks_in_first_appearance_order(self):
        table = validate_table(
            records([("a", "A", 1, 0), ("b", "A", 2, 0), ("c", "B", 3, 0), ("d", "B", 4, 0)])
        )
        assert table.blocks.tolist() == [1, 1, 2, 2]
        assert table.num_blocks == 2
        assert list(table.block_sizes) == [2, 2]

    def test_single_row_is_valid(self):
        table = validate_table(records([("only", 7, 1.0, 2.0)]))
        assert table.n == 1
        assert table.blocks.tolist() == [1]

    def test_non_finite_outcome_rejected(self):
        with pytest.raises(ValueError, match="non-finite outcome"):
            validate_table(records([("a", 1, float("nan"), 0.0)]))

    def test_duplicate_unit_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate unit_id"):
            validate_table(records([("a", 1, 1, 0), ("a", 1, 2, 0)]))

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError, match="empty table"):
            validate_table([])

    def test_first_appearance_order_not_sorted_order(self):
        table = validate_table(
            records([("a", "Z", 0, 0), ("b", "A", 0, 0), ("c", "Z", 0, 0), ("d", "A", 0, 0)])
        )
        assert table.blocks.tolist() == [1, 2, 1, 2]


class TestSummarize:
    def test_hand_computed_single_block(self, two_unit_table):
        summary = summarize(two_unit_table)
        blk = summary.per_block[0]
        assert blk.s2_t == pytest.approx(2.0)
        assert blk.s2_c == 0.0
        assert blk.s2_tc == pytest.approx(2.0)
        assert blk.tau == pytest.approx(2.0)

    def test_constant_table(self):
        table = table_from_arrays([1, 1, 2, 2], [5.0] * 4, [5.0] * 4)
        summary = summarize(table)
        assert summary.pooled.s2_t == 0.0
        assert summary.pooled.s2_tc == 0.0
        assert summary.pooled.tau == 0.0

    def test_pooled_control_variance(self, mirrored_blocks_table):
        summary = summarize(mirrored_blocks_table)
        assert [b.s2_c for b in summary.per_block] == [pytest.approx(2.0)] * 2
        assert summary.pooled.s2_c == pytest.approx(4.0 / 3.0)

    def test_singleton_block_has_undefined_variance(self):
        table = table_from_arrays([1, 2, 2], [1, 2, 3], [0, 0, 0])
        summary = summarize(table)
        assert summary.per_block[0].s2_t is None
        with pytest.raises(ValueError, match="singleton"):
            summary.require_s2()

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_permutation_within_blocks_invariant(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        table = make_random_table(rng)
        order = np.arange(table.n)
        for k in range(1, table.num_blocks + 1):
            idx = table.block_indices(k)
            order[idx] = rng.permutation(idx)
        shuffled = table_from_arrays(
            np.asarray(table.blocks)[order], table.y_t[order], table.y_c[order]
        )
        a, b = summarize(table), summarize(shuffled)
        for blk_a, blk_b in zip(a.per_block, b.per_block):
            assert blk_a.mean_t == pytest.approx(blk_b.mean_t)
            assert blk_a.s2_tc == pytest.approx(blk_b.s2_tc)


class TestPooledDecomposition:
    def test_within_only(self, mirrored_blocks_table):
        within, between = pooled_decomposition(mirrored_blocks_table, "c")
        assert within == pytest.approx(4.0 / 3.0)
        assert between == 0.0

    def test_single_block_is_all_within(self, two_unit_table):
        within, between = pooled_decomposition(two_unit_table, "t")
        assert between == 0.0
        assert within == pytest.approx(2.0)

    def test_between_only(self):
        table = table_from_arrays([1, 1, 2, 2], [0, 0, 2, 2], [0, 0, 2, 2])
        within, between = pooled_decomposition(table, "c")
        assert within == 0.0
        assert between == pytest.approx(4.0 / 3.0)

    def test_singleton_block_rejected(self):
        table = table_from_arrays([1, 2, 2], [1, 2, 3], [0, 0, 0])
        with pytest.raises(ValueError, match="singleton"):
            pooled_decomposition(table, "c")

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_parts_sum_to_pooled_variance(self, seed):
        rng = np.random.default_rng(seed)
        table = make_random_table(rng)
        summary = summarize(table)
        for arm, pooled in (("t", summary.pooled.s2_t), ("c", summary.pooled.s2_c), ("tc", summary.pooled.s2_tc)):
            within, between = pooled_decomposition(table, arm)
            assert within + between == pytest.approx(pooled, rel=1e-12, abs=1e-12)


def reference_block_moments(table, values):
    """Per-block (size, mean, sample variance or None) by rescanning the table."""
    blocks = np.asarray(table.blocks)
    out = []
    for k in range(1, max(table.blocks) + 1):
        group = values[np.flatnonzero(blocks == k)]
        s2 = float(np.var(group, ddof=1)) if len(group) > 1 else None
        out.append((len(group), float(np.mean(group)), s2))
    return out


def make_unsorted_table(rng):
    """Labels in random order, a random scale and offset, some singleton blocks."""
    k = int(rng.integers(1, 9))
    n = int(rng.integers(max(k, 2), 5 * k + 1))
    labels = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
    labels = rng.permutation(labels)
    scale = 10.0 ** rng.uniform(-3, 3)
    offset = scale * rng.choice([-1, 1]) * 10.0 ** rng.uniform(-1, 4)
    y_c = offset + scale * rng.standard_normal(n)
    y_t = y_c + scale * rng.standard_normal(n)
    return table_from_arrays(labels, y_t, y_c)


def assert_close_scaled(got, want, scale, rtol=1e-12):
    """Elementwise ``|got - want| <= rtol * scale``; ``scale`` is the data's magnitude."""
    np.testing.assert_allclose(np.asarray(got, dtype=float), want, rtol=0, atol=rtol * scale)


class TestBlockStats:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_loop(self, seed):
        table = make_unsorted_table(np.random.default_rng(seed))
        stats = table.stats
        arms = {"t": table.y_t, "c": table.y_c, "tc": table.y_t - table.y_c}
        refs = {arm: reference_block_moments(table, values) for arm, values in arms.items()}
        size = max(float(np.max(np.abs(v))) for v in arms.values())
        spread2 = max(float(np.max((v - np.mean(v)) ** 2)) for v in arms.values())
        for arm, values in arms.items():
            ref = refs[arm]
            moments = stats.arm(arm)
            assert stats.n_k.tolist() == [n_k for n_k, _, _ in ref]
            assert_close_scaled(moments.mean, np.mean(values), size)
            assert_close_scaled(moments.means, [mean for _, mean, _ in ref], size)
            assert_close_scaled(moments.dev, [mean - np.mean(values) for _, mean, _ in ref], size)
            with np.errstate(invalid="ignore"):
                s2 = np.where(stats.n_k > 1, moments.ss / (stats.n_k - 1), 0.0)
            assert_close_scaled(s2, [0.0 if v is None else v for _, _, v in ref], spread2)
            assert_close_scaled(stats.pooled_s2(arm), np.var(values, ddof=1), spread2)
        summary = summarize(table)
        for k, blk in enumerate(summary.per_block):
            (n_k, mean_t, s2_t), (_, mean_c, s2_c), (_, tau, s2_tc) = (
                refs[arm][k] for arm in ("t", "c", "tc")
            )
            assert blk.size == n_k
            assert_close_scaled([blk.mean_t, blk.mean_c, blk.tau], [mean_t, mean_c, tau], size)
            for got, want in ((blk.s2_t, s2_t), (blk.s2_c, s2_c), (blk.s2_tc, s2_tc)):
                assert (got is None) == (want is None)
                if want is not None:
                    assert_close_scaled(got, want, spread2)
        pooled = summary.pooled
        assert pooled.size == table.n
        assert_close_scaled(
            [pooled.s2_t, pooled.s2_c, pooled.s2_tc],
            [np.var(v, ddof=1) for v in arms.values()],
            spread2,
        )

    def test_singleton_error_names_blocks(self):
        table = table_from_arrays([1, 2, 2, 3], [1, 2, 3, 4], [0, 0, 0, 0])
        with pytest.raises(ValueError, match=r"singleton block\(s\) \[1, 3\]"):
            table.stats.s2("t")

    def test_arrays_are_read_only_and_cached(self, mirrored_blocks_table):
        table = mirrored_blocks_table
        stats = table.stats
        assert table.stats is stats
        assert table.labels is table.labels
        arrays = [table.labels, table.block_sizes, stats.n_k]
        arrays += [getattr(stats.arm(arm), name) for arm in ("t", "c", "tc") for name in ("dev", "ss")]
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_with_blocks_gets_fresh_stats(self, mirrored_blocks_table):
        table = mirrored_blocks_table
        before = table.stats
        regrouped = table_from_arrays(
            ["A", "B", "A", "B"], table.y_t, table.y_c, unit_ids=table.unit_ids
        )
        assert regrouped.stats is not before
        assert regrouped.stats.c.dev.tolist() == [-1.0, 1.0]
        assert regrouped.stats.c.ss.tolist() == [0.0, 0.0]
        assert before.c.dev.tolist() == [0.0, 0.0]
        assert table.stats is before


    def test_one_labelling_per_row_matches_row_by_row(self):
        rng = np.random.default_rng(8)
        sizes = np.array([3, 5, 2, 6])
        values = rng.standard_normal((4, sizes.sum())) + 1e3
        labels = np.stack([rng.permutation(np.repeat(np.arange(4), sizes)) for _ in range(4)])
        got = centered_moments(values, labels, sizes)
        for row, (y, lab) in enumerate(zip(values, labels)):
            want = centered_moments(y, lab, sizes)
            for name in ("mean", "dev", "ss"):
                np.testing.assert_allclose(
                    getattr(got, name)[row], getattr(want, name), rtol=1e-12, atol=1e-12
                )


class TestDesigns:
    def test_cr_bounds(self, two_unit_table):
        validate_design(CompleteRandomization(1), two_unit_table)
        with pytest.raises(ValueError, match="out of range"):
            validate_design(CompleteRandomization(2), two_unit_table)

    def test_blocked_bounds(self, mirrored_blocks_table):
        validate_design(Blocked((1, 1)), mirrored_blocks_table)
        with pytest.raises(ValueError, match="block 2"):
            validate_design(Blocked((1, 2)), mirrored_blocks_table)

    def test_proportion_design_rejects_fractional_counts(self, mirrored_blocks_table):
        design = blocked_design_for_proportion(mirrored_blocks_table, 0.5)
        assert design.n_tk == (1, 1)
        with pytest.raises(ValueError, match="not an integer"):
            blocked_design_for_proportion(mirrored_blocks_table, 0.3)

    def test_equal_proportions_uses_exact_integer_arithmetic(self):
        table = table_from_arrays([1] * 3 + [2] * 6, np.arange(9.0), np.zeros(9))
        assert equal_proportions(Blocked((1, 2)), table)
        assert not equal_proportions(Blocked((1, 3)), table)


class TestStrataMoments:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            StrataMoments(
                weights=[0.5, 0.4],
                mu_t=[0, 0],
                mu_c=[0, 0],
                sigma2_t=[1, 1],
                sigma2_c=[1, 1],
                sigma2_tc=[0, 0],
            )

    def test_derived_pooled_satisfies_mixture_identity(self):
        moments = StrataMoments(
            weights=[0.5, 0.5],
            mu_t=[0.0, 2.0],
            mu_c=[0.0, 2.0],
            sigma2_t=[1.0, 1.0],
            sigma2_c=[1.0, 1.0],
            sigma2_tc=[0.0, 0.0],
        )
        assert moments.pooled.sigma2_c == pytest.approx(2.0)
        assert moments.pooled.mu_c == pytest.approx(1.0)

    @given(
        st.lists(st.floats(-5, 5), min_size=2, max_size=6),
        st.lists(st.floats(0.01, 4), min_size=2, max_size=6),
        st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_mixture_identity_holds_by_construction(self, mus, sig, seed):
        k = min(len(mus), len(sig))
        rng = np.random.default_rng(seed)
        w = rng.random(k) + 0.1
        w /= w.sum()
        moments = StrataMoments(
            weights=w,
            mu_t=mus[:k],
            mu_c=np.zeros(k),
            sigma2_t=sig[:k],
            sigma2_c=sig[:k],
            sigma2_tc=np.zeros(k),
        )
        # The mixture's raw second moment minus its squared mean, an
        # independent form of the within-plus-between identity.
        mu_t = float(w @ mus[:k])
        second = float(w @ (np.asarray(sig[:k]) + np.asarray(mus[:k]) ** 2))
        assert moments.pooled.mu_t == pytest.approx(mu_t, abs=1e-12)
        assert moments.pooled.sigma2_t == pytest.approx(second - mu_t**2, rel=1e-9, abs=1e-9)
        assert moments.pooled.sigma2_c == pytest.approx(float(w @ np.asarray(sig[:k])), rel=1e-12)


class TestCsvRoundTrip:
    def test_table_round_trip(self, tmp_path, mirrored_blocks_table):
        path = tmp_path / "table.csv"
        write_table_csv(mirrored_blocks_table, path)
        back = read_table_csv(path)
        assert back.blocks.tolist() == mirrored_blocks_table.blocks.tolist()
        np.testing.assert_allclose(back.y_t, mirrored_blocks_table.y_t)

    def test_strata_csv(self, tmp_path):
        path = tmp_path / "strata.csv"
        path.write_text(
            "stratum,weight,mu_t,mu_c,sigma2_t,sigma2_c,sigma2_tc\n"
            "1,0.5,0.0,0.0,1.0,1.0,0.0\n"
            "2,0.5,2.0,2.0,1.0,1.0,0.0\n"
        )
        moments = read_strata_csv(path)
        assert moments.num_strata == 2
        assert moments.mu_t[1] == 2.0

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "strata.csv"
        path.write_text("stratum,weight,mu_t\n1,1.0,0.0\n")
        with pytest.raises(ValueError, match="missing columns"):
            read_strata_csv(path)
