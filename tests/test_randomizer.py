from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockcalc import (
    Blocked,
    CompleteRandomization,
    assign_blocked,
    assign_cr,
    exact_moments,
    table_from_arrays,
    tau_hat,
)
from blockcalc import mc
from blockcalc import randomizer
from blockcalc.randomizer import BATCH_SHUFFLE_ROWS, draw_masks, shuffle_plan

from conftest import make_random_blocked_design, make_random_table


def generator_rows(plan, rng, draws):
    """The rows of ``draws`` successive ``rng.integers(plan.highs)`` calls."""
    return np.array([rng.integers(plan.highs) for _ in range(draws)])


class TestAssignCr:
    def test_each_unit_treated_half_the_time(self, two_unit_table):
        # One draw_masks call on the rows of the generator calls of `draws`
        # assign_cr calls.
        rng = np.random.default_rng(20240401)
        draws = 100_000
        plan = shuffle_plan(two_unit_table, CompleteRandomization(1))
        hits = draw_masks(plan, generator_rows(plan, rng, draws)).sum(axis=0)
        freq = hits / draws
        assert np.all(np.abs(freq - 0.5) < 0.01)

    def test_no_control_arm_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            assign_cr(3, 3, np.random.default_rng(0))

    def test_fixed_seed_reproduces(self):
        a = assign_cr(10, 4, np.random.default_rng(7))
        b = assign_cr(10, 4, np.random.default_rng(7))
        assert a.dtype == bool and a.sum() == 4
        assert np.array_equal(a, b)

    def test_uniform_over_subsets(self, mirrored_blocks_table):
        # n=4 choose 2: all 6 subsets near 1/6.
        rng = np.random.default_rng(5)
        draws = 60_000
        plan = shuffle_plan(mirrored_blocks_table, CompleteRandomization(2))
        counts = Counter(map(tuple, draw_masks(plan, generator_rows(plan, rng, draws)).tolist()))
        assert len(counts) == 6
        for c in counts.values():
            assert abs(c / draws - 1 / 6) < 0.01


class TestAssignBlocked:
    def test_product_law_frequencies(self, mirrored_blocks_table):
        rng = np.random.default_rng(99)
        plan = shuffle_plan(mirrored_blocks_table, Blocked((1, 1)))
        draws = 100_000
        counts = Counter(map(tuple, draw_masks(plan, generator_rows(plan, rng, draws)).tolist()))
        assert len(counts) == 4
        for c in counts.values():
            assert abs(c / draws - 0.25) < 0.01

    def test_saturated_block_rejected(self, mirrored_blocks_table):
        with pytest.raises(ValueError, match="block 1"):
            assign_blocked(mirrored_blocks_table, Blocked((2, 1)), np.random.default_rng(0))

    def test_fixed_seed_reproduces(self, mirrored_blocks_table):
        design = Blocked((1, 1))
        a = assign_blocked(mirrored_blocks_table, design, np.random.default_rng(3))
        b = assign_blocked(mirrored_blocks_table, design, np.random.default_rng(3))
        assert np.array_equal(a, b)


class TestTauHat:
    def test_cr_hand_value(self, two_unit_table):
        mask = np.array([True, False])
        assert tau_hat(two_unit_table, mask, CompleteRandomization(1)) == pytest.approx(1.0)

    def test_constant_outcomes_give_zero(self):
        table = table_from_arrays([1, 1, 2, 2], [3.0] * 4, [3.0] * 4)
        rng = np.random.default_rng(0)
        design = Blocked((1, 1))
        mask = assign_blocked(table, design, rng)
        assert tau_hat(table, mask, design) == 0.0

    def test_mirrored_blocks_hand_value(self, mirrored_blocks_table):
        # Treat the 0-unit in each block: both block estimates are -2.
        mask = np.array([True, False, True, False])
        est = tau_hat(mirrored_blocks_table, mask, Blocked((1, 1)))
        assert est == pytest.approx(-2.0)

    def test_empty_arm_rejected(self, mirrored_blocks_table):
        mask = np.array([True, True, False, False])
        with pytest.raises(ValueError):
            tau_hat(mirrored_blocks_table, mask, Blocked((1, 1)))

    @pytest.mark.parametrize(
        "mask, design, message",
        [
            ([True, False, True], Blocked((1, 1)), "length"),
            ([True, True, True, False], CompleteRandomization(2), "wrong treated count"),
            ([True, False, True, True], Blocked((1, 1)), "wrong count in block 2"),
            ([True, False, True, False], Blocked((1,)), "wrong number of blocks"),
        ],
    )
    def test_inconsistent_mask_rejected(self, mirrored_blocks_table, mask, design, message):
        with pytest.raises(ValueError, match=message):
            tau_hat(mirrored_blocks_table, np.array(mask), design)


class TestUnbiasedness:
    @pytest.mark.parametrize("seed", range(20))
    def test_enumeration_mean_equals_sate_blocked(self, seed):
        rng = np.random.default_rng(seed)
        table = make_random_table(rng)
        design = make_random_blocked_design(rng, table)
        moments = exact_moments(table, design, "tau_hat")
        sate = float(np.mean(table.y_t - table.y_c))
        assert abs(moments.mean - sate) <= 1e-12 * max(1.0, abs(sate))

    @pytest.mark.parametrize("seed", range(10))
    def test_enumeration_mean_equals_sate_cr(self, seed):
        rng = np.random.default_rng(100 + seed)
        table = make_random_table(rng)
        n_t = int(rng.integers(1, table.n))
        moments = exact_moments(table, CompleteRandomization(n_t), "tau_hat")
        sate = float(np.mean(table.y_t - table.y_c))
        assert abs(moments.mean - sate) <= 1e-12 * max(1.0, abs(sate))


def tau_hat_reweighted(table, mask, design):
    """Blocked estimate written as a reweighted sum over observed outcomes.

    With ``p = n_t / n`` and ``p_k = n_tk / n_k``, each treated observation
    carries weight ``(1/n_t)(p/p_k)`` and each control observation weight
    ``(1/n_c)((1-p)/(1-p_k))``. Algebraically identical to ``tau_hat``
    under the blocked design.
    """
    n = table.n
    n_t = design.n_t
    n_c = n - n_t
    p = n_t / n
    total = 0.0
    for k in range(1, table.num_blocks + 1):
        idx = table.block_indices(k)
        m = mask[idx]
        p_k = design.n_tk[k - 1] / len(idx)
        total += (p / p_k) / n_t * float(np.sum(table.y_t[idx][m]))
        total -= ((1 - p) / (1 - p_k)) / n_c * float(np.sum(table.y_c[idx][~m]))
    return total


class TestReweightingIdentity:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_blocked_estimate_equals_reweighted_form(self, seed):
        rng = np.random.default_rng(seed)
        table = make_random_table(rng)
        design = make_random_blocked_design(rng, table)
        mask = assign_blocked(table, design, rng)
        direct = tau_hat(table, mask, design)
        reweighted = tau_hat_reweighted(table, mask, design)
        assert abs(direct - reweighted) <= 1e-12 * max(1.0, abs(direct))


# ---------------------------------------------------------------------------
# Batched mask draws against the step-by-step shuffle


class ScriptedDraws:
    """Stands in for a generator, handing out one row of step draws in order."""

    def __init__(self, row):
        self._draws = iter(row.tolist())

    def integers(self, high):
        u = next(self._draws)
        assert 0 <= u < high
        return u


def reference_choose(pool, m, rng):
    """First ``m`` entries of a partial Fisher-Yates shuffle, one ``integers`` call per step."""
    pool = np.array(pool)
    for i in range(m):
        j = i + int(rng.integers(len(pool) - i))
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:m]


def reference_mask(table, design, rng):
    """The draw of a design as a per-block shuffle over ``block_indices`` scans."""
    mask = np.zeros(table.n, dtype=bool)
    if isinstance(design, CompleteRandomization):
        mask[reference_choose(np.arange(table.n), design.n_t, rng)] = True
        return mask
    for k in range(1, table.num_blocks + 1):
        mask[reference_choose(table.block_indices(k), design.n_tk[k - 1], rng)] = True
    return mask


def unsorted_table(seed, sizes):
    """Blocks of unequal sizes with their rows shuffled, so labels are unsorted."""
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.repeat(np.arange(1, len(sizes) + 1), sizes))
    y = rng.standard_normal(len(labels))
    return table_from_arrays(labels, y, y)


def draw_case(sizes, n_t):
    """A table of the given block sizes and a CR design treating ``n_t``, or
    (``n_t`` None) a blocked design with varied counts per block."""
    table = unsorted_table(sum(sizes), sizes)
    if n_t is not None:
        return table, CompleteRandomization(n_t)
    counts = tuple(1 + (3 * k) % (int(s) - 1) for k, s in enumerate(table.block_sizes))
    return table, Blocked(counts)


DRAW_CASES = [
    ((7,), 3),
    ((2, 2), None),
    ((3, 9, 4, 6), None),
    ((10, 15, 20, 10, 15, 20, 10, 15), None),
    ((10, 15, 20, 10, 15, 20, 10, 15), 23),
    ((5, 2, 8), 14),
]

#: Row counts on both sides of the shuffle paths' threshold, and one of
#: ``misconceptions``' default chunks, on a CR and an unsorted blocked plan.
ROW_CASES = [
    (sizes, n_t, reps)
    for sizes, n_t in DRAW_CASES[3:5]
    for reps in (BATCH_SHUFFLE_ROWS - 1, BATCH_SHUFFLE_ROWS, 2556)
]


class TestDrawMasks:
    @pytest.mark.parametrize("sizes, n_t, reps", [(*case, 500) for case in DRAW_CASES] + ROW_CASES)
    def test_masks_match_reference(self, sizes, n_t, reps):
        # The first row draws 0 and the last row high - 1 at every step; the
        # others are seeded rows. Each row also goes through a one-row call.
        table, design = draw_case(sizes, n_t)
        plan = shuffle_plan(table, design)
        draws = mc.rep_integers([11], 0, reps, plan.highs)
        draws[0], draws[-1] = 0, plan.highs - 1
        got = draw_masks(plan, draws)
        assert got.dtype == bool and got.shape == (reps, table.n)
        for mask, row in zip(got, draws):
            want = reference_mask(table, design, ScriptedDraws(row))
            assert np.array_equal(mask, want)
            assert np.array_equal(draw_masks(plan, row[None])[0], want)

    @pytest.mark.parametrize("reps", [1, BATCH_SHUFFLE_ROWS - 1, BATCH_SHUFFLE_ROWS, 2556])
    def test_row_count_picks_the_path(self, monkeypatch, reps):
        plan = shuffle_plan(unsorted_table(0, (3, 4)), Blocked((1, 2)))
        batched, batch_shuffles = [], randomizer._batch_shuffles
        monkeypatch.setattr(randomizer, "_batch_shuffles",
                            lambda *args: batched.append(reps) or batch_shuffles(*args))
        draw_masks(plan, np.zeros((reps, 3), dtype=np.int64))
        assert batched == ([reps] if reps >= BATCH_SHUFFLE_ROWS else [])

    @pytest.mark.parametrize("sizes, n_t", DRAW_CASES)
    def test_assign_wrappers_return_the_same_draw(self, sizes, n_t):
        table, design = draw_case(sizes, n_t)
        for seed in range(50):
            mine, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            if n_t is None:
                mask = assign_blocked(table, design, mine)
            else:
                mask = assign_cr(table.n, n_t, mine)
            assert mask.dtype == bool
            assert np.array_equal(mask, reference_mask(table, design, ref))
            assert mine.integers(2**62) == ref.integers(2**62)

    def test_no_draws_give_an_empty_matrix(self):
        plan = shuffle_plan(unsorted_table(0, (3, 4)), Blocked((1, 2)))
        assert draw_masks(plan, np.empty((0, 3), dtype=np.int64)).shape == (0, 7)

    def test_plan_rejects_infeasible_design(self):
        with pytest.raises(ValueError, match="block 2"):
            shuffle_plan(unsorted_table(0, (3, 4)), Blocked((1, 4)))
