import functools
import math
import sys
import tracemalloc
from fractions import Fraction
from itertools import chain, combinations, islice, product

import numpy as np
import pytest

from blockcalc import (
    Blocked,
    CompleteRandomization,
    assign_blocked,
    assign_cr,
    count_assignments,
    exact_moments,
    iter_assignments,
    table_from_arrays,
    varest_variability,
)
from blockcalc import mc, oracle, variance_estimation
from blockcalc.oracle import (
    STATISTICS,
    batch_statistic,
    chunk_rows,
    resolve_statistic,
)
from blockcalc.pop_model import blocked_design_for_proportion, design_groups
from blockcalc.variance_estimation import (
    ObservedSample,
    cr_varest_bias_under_blocking,
    var_est_blocked,
    var_est_cr,
)

from conftest import make_random_blocked_design, make_random_table


class TestCounts:
    def test_cr_count(self):
        table = table_from_arrays([1] * 4, np.zeros(4), np.zeros(4))
        assert count_assignments(CompleteRandomization(2), table) == 6

    def test_blocked_count(self, mirrored_blocks_table):
        assert count_assignments(Blocked((1, 1)), mirrored_blocks_table) == 4

    def test_two_unit_count(self, two_unit_table):
        assert count_assignments(CompleteRandomization(1), two_unit_table) == 2

    def test_cap_refuses_larger_enumerations(self, two_unit_table):
        with pytest.raises(ValueError, match="2 assignments exceed the enumeration cap 1"):
            exact_moments(two_unit_table, CompleteRandomization(1), cap=1)
        assert exact_moments(two_unit_table, CompleteRandomization(1), cap=2).count == 2

    def test_cap_bounds_the_work_evaluated(self):
        # Three 4-unit blocks at 2 treated: 6^3 = 216 assignments from 3 * 6
        # block subsets. A named statistic evaluates the subsets, a callable
        # every assignment, and complete randomization is one group.
        rng = np.random.default_rng(44)
        table = table_from_arrays([1] * 4 + [2] * 4 + [3] * 4, rng.normal(size=12),
                                  rng.normal(size=12))
        blocked, cr = Blocked((2, 2, 2)), CompleteRandomization(6)

        def refusal(design, statistic, cap):
            with pytest.raises(ValueError) as error:
                exact_moments(table, design, statistic, cap=cap)
            return str(error.value)

        for statistic in STATISTICS:
            moments = exact_moments(table, blocked, statistic, cap=18)
            assert (moments.count, moments.evaluated) == (216, 18)
            assert refusal(blocked, statistic, 17) == (
                "18 group subsets of 216 assignments exceed the enumeration cap 17"
            )
        kernel = mask_kernel("tau_hat", blocked)
        assert refusal(blocked, kernel, 215) == "216 assignments exceed the enumeration cap 215"
        assert exact_moments(table, blocked, kernel, cap=216).evaluated == 216
        for statistic in ("tau_hat", "var_est_cr", mask_kernel("tau_hat", cr)):
            assert exact_moments(table, cr, statistic, cap=924).evaluated == 924
            assert refusal(cr, statistic, 923) == "924 assignments exceed the enumeration cap 923"

    def test_enumeration_visits_each_assignment_once(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            table = make_random_table(rng)
            design = make_random_blocked_design(rng, table)
            masks = [tuple(m) for m in iter_assignments(table, design)]
            assert len(masks) == count_assignments(design, table)
            assert len(set(masks)) == len(masks)


class TestExactMoments:
    def test_two_unit_cr(self, two_unit_table):
        moments = exact_moments(two_unit_table, CompleteRandomization(1), "tau_hat")
        assert moments.mean == pytest.approx(2.0)
        assert moments.variance == pytest.approx(1.0)
        assert moments.count == 2

    def test_mirrored_blocked_tau_hat(self, mirrored_blocks_table):
        moments = exact_moments(mirrored_blocks_table, Blocked((1, 1)), "tau_hat")
        assert moments.mean == 0.0
        assert moments.variance == pytest.approx(2.0)

    def test_mirrored_blocked_misused_estimator_mean(self, mirrored_blocks_table):
        moments = exact_moments(mirrored_blocks_table, Blocked((1, 1)), "var_est_cr")
        assert moments.mean == pytest.approx(1.0)

    def test_custom_statistic_callable(self, mirrored_blocks_table):
        stat = lambda table, mask: float(mask[0])
        moments = exact_moments(mirrored_blocks_table, Blocked((1, 1)), stat)
        assert moments.mean == pytest.approx(0.5)

    def test_undefined_statistic_reports_assignment(self, mirrored_blocks_table):
        with pytest.raises(ValueError, match="assignment #0"):
            exact_moments(mirrored_blocks_table, Blocked((1, 1)), "var_est_blocked")


# ---------------------------------------------------------------------------
# The per-mask reference: one assignment at a time, a rescan per block,
# np.mean and np.var per arm. It shares no arithmetic with the kernel.


def _stat_tau_hat(table, mask):
    # Size-weighted difference in means; identical for both designs because
    # the mask already carries the per-block counts under blocking.
    blocks = np.asarray(table.blocks)
    total = 0.0
    for k in range(1, table.num_blocks + 1):
        idx = np.flatnonzero(blocks == k)
        m = mask[idx]
        if not m.any() or m.all():
            raise ValueError(f"block {k} has an empty arm")
        total += len(idx) / table.n * (
            float(np.mean(table.y_t[idx][m])) - float(np.mean(table.y_c[idx][~m]))
        )
    return total


def _stat_tau_hat_cr(table, mask):
    if not mask.any() or mask.all():
        raise ValueError("an arm is empty")
    return float(np.mean(table.y_t[mask]) - np.mean(table.y_c[~mask]))


def _arm_variance_terms(table, mask, idx):
    """``s2_c/n_c + s2_t/n_t`` over the units ``idx``, or None if an arm has under 2 units."""
    m = mask[idx]
    treated = table.y_t[idx][m]
    control = table.y_c[idx][~m]
    if len(treated) < 2 or len(control) < 2:
        return None
    return float(np.var(control, ddof=1)) / len(control) + float(
        np.var(treated, ddof=1)
    ) / len(treated)


def _stat_var_est_cr(table, mask):
    value = _arm_variance_terms(table, mask, np.arange(table.n))
    if value is None:
        raise ValueError("each arm needs at least 2 units")
    return value


def _stat_var_est_blocked(table, mask):
    blocks = np.asarray(table.blocks)
    total = 0.0
    for k in range(1, table.num_blocks + 1):
        idx = np.flatnonzero(blocks == k)
        value = _arm_variance_terms(table, mask, idx)
        if value is None:
            raise ValueError(
                f"block {k} has a singleton arm; the blocked variance estimator "
                "needs at least 2 treated and 2 control units per block"
            )
        total += (len(idx) / table.n) ** 2 * value
    return total


def reference_assignments(table, design):
    """Every treated mask, one Python tuple product at a time: lexicographic
    combinations, nested by block with the last block cycling fastest."""
    n = table.n
    if isinstance(design, CompleteRandomization):
        per_block = [list(combinations(range(n), design.n_t))]
    else:
        per_block = [
            list(combinations(table.block_indices(k).tolist(), design.n_tk[k - 1]))
            for k in range(1, table.num_blocks + 1)
        ]
    for chosen_per_block in product(*per_block):
        mask = np.zeros(n, dtype=bool)
        for chosen in chosen_per_block:
            mask[list(chosen)] = True
        yield mask


def reference_statistic(statistic, design):
    if statistic == "tau_hat":
        return _stat_tau_hat_cr if isinstance(design, CompleteRandomization) else _stat_tau_hat
    return {"var_est_cr": _stat_var_est_cr, "var_est_blocked": _stat_var_est_blocked}[statistic]


def reference_values(table, design, statistic, masks):
    """Per-mask values, or the index and message of the first undefined mask."""
    fn = reference_statistic(statistic, design)
    values = []
    for i, mask in enumerate(masks):
        try:
            values.append(fn(table, mask))
        except ValueError as err:
            return None, f"statistic undefined on assignment #{i}: {err}"
    return np.array(values), None


def kernel_values(table, design, statistic):
    """Every assignment's value from the oracle's group vectors where the
    statistic sums over the design's groups, else from the mask kernel, or
    the message of the first undefined one."""
    off_groups = (statistic, isinstance(design, Blocked)) in {
        ("var_est_cr", True), ("var_est_blocked", False)
    }
    try:
        values = (mask_values if off_groups else group_values)(table, design, statistic)
    except ValueError as err:
        return None, str(err)
    return values, None


def small_table(rng):
    """1-3 blocks of 2-6 units in shuffled row order, offset outcomes."""
    sizes = rng.integers(2, 7, size=int(rng.integers(1, 4)))
    while sizes.sum() > 12:
        sizes = sizes[:-1]
    labels = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    shift = rng.normal(size=len(sizes))[labels]
    scale = 10.0 ** rng.integers(-3, 4)
    y_c = scale * (rng.normal(size=len(labels)) + 3 * shift + 5)
    y_t = y_c + scale * rng.normal(size=len(labels))
    return table_from_arrays(rng.permutation(26)[labels], y_t, y_c)


def small_designs(rng, table):
    return [
        CompleteRandomization(int(rng.integers(1, table.n))),
        Blocked(tuple(int(rng.integers(1, size)) for size in table.block_sizes)),
        Blocked(tuple(int(size) // 2 for size in table.block_sizes)),
    ]


class TestBatchKernel:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_per_mask_reference(self, seed):
        rng = np.random.default_rng(1200 + seed)
        table = small_table(rng)
        for design in small_designs(rng, table):
            masks = list(reference_assignments(table, design))
            for statistic in STATISTICS:
                want, want_err = reference_values(table, design, statistic, masks)
                got, got_err = kernel_values(table, design, statistic)
                assert got_err == want_err, (design, statistic)
                if want is not None:
                    scale = np.max(np.abs(want))
                    assert np.all(np.abs(got - want) <= 1e-12 * scale), (design, statistic)

    def test_one_row_adapter_matches_reference(self):
        rng = np.random.default_rng(5)
        table = small_table(rng)
        design = Blocked(tuple(int(size) // 2 for size in table.block_sizes))
        for statistic in ("tau_hat", "var_est_cr"):
            fn = resolve_statistic(statistic, design)
            ref = reference_statistic(statistic, design)
            for mask in list(iter_assignments(table, design))[:20]:
                assert fn(table, mask) == pytest.approx(ref(table, mask), rel=1e-12, abs=0)
                # A 0/1 integer mask reads as the boolean one.
                assert fn(table, mask.astype(int)) == fn(table, mask)

    def test_observed_sample_estimators_match_reference(self):
        # The estimators read the observed outcomes only, centered on each
        # arm, with the sample's block labels.
        rng = np.random.default_rng(6)
        for _ in range(4):
            table = small_table(rng)
            design = Blocked(tuple(int(size) // 2 for size in table.block_sizes))
            for mask in list(iter_assignments(table, design))[:20]:
                sample = ObservedSample.from_schedule(table, mask)
                want_cr = _stat_var_est_cr(table, mask)
                want_bk = _stat_var_est_blocked(table, mask)
                assert var_est_cr(sample) == pytest.approx(want_cr, rel=1e-12, abs=0)
                assert var_est_blocked(sample) == pytest.approx(want_bk, rel=1e-12, abs=0)

    @pytest.mark.parametrize("seed", range(6))
    def test_first_undefined_row_is_reported(self, seed):
        # Arbitrary masks, not tied to the design's counts, so the first
        # undefined row can fall anywhere; ``first`` shifts the reported index.
        rng = np.random.default_rng(1300 + seed)
        labels = rng.permutation(np.repeat([1, 2], 6))
        six_six = table_from_arrays(labels, rng.normal(size=12), rng.normal(size=12))
        for table in (small_table(rng), six_six):
            masks = rng.random((40, table.n)) < rng.uniform(0.15, 0.5)
            for design in small_designs(rng, table)[:2]:
                for statistic in STATISTICS:
                    _, want_err = reference_values(table, design, statistic, list(masks))
                    if want_err is None:
                        continue
                    index = int(want_err.split("#")[1].split(":")[0])
                    with pytest.raises(ValueError) as err:
                        batch_statistic(table, design, statistic, masks, first=100)
                    assert str(err.value) == want_err.replace(f"#{index}:", f"#{100 + index}:")

    def test_unknown_statistic_rejected(self, two_unit_table):
        with pytest.raises(ValueError, match="unknown statistic"):
            exact_moments(two_unit_table, CompleteRandomization(1), "tau")


def itertools_masks(n, blocks):
    """Every mask of ``blocks`` (units, treated count) pairs as ``(rows, n)``
    boolean rows: ``itertools.combinations`` per block, the last block
    cycling fastest."""
    per_block = []
    for units, m in blocks:
        count = math.comb(len(units), m)
        flat = chain.from_iterable(combinations(units.tolist(), m))
        chosen = np.fromiter(flat, dtype=np.intp, count=count * m).reshape(count, m)
        rows = np.zeros((count, n), dtype=bool)
        rows[np.arange(count)[:, None], chosen] = True
        per_block.append(rows)
    masks = per_block[0]
    for rows in per_block[1:]:
        masks = (masks[:, None, :] | rows[None, :, :]).reshape(-1, n)
    return masks


def estimator_table(rng, kind, sizes):
    """A table of blocks of ``sizes`` (block k first appears at unit k).

    ``random``: normal outcomes; ``bimodal``: each outcome near +-1e3 with
    1e-6 noise, so every arm of one mode has a tiny spread; ``offset``:
    outcomes near 1e8; ``shuffled``: normal outcomes with the other units'
    labels shuffled (the rest keep their blocks in order).
    """
    rest = np.repeat(np.arange(len(sizes)), np.array(sizes) - 1)
    if kind == "shuffled":
        rest = rng.permutation(rest)
    labels = np.concatenate([np.arange(len(sizes)), rest])
    n = len(labels)
    if kind == "bimodal":
        y_c = rng.choice([-1e3, 1e3], size=n) + 1e-6 * rng.normal(size=n)
        y_t = rng.choice([-1e3, 1e3], size=n) + 1e-6 * rng.normal(size=n)
    else:
        y_c = 5 * rng.normal(size=len(sizes))[labels] + rng.normal(size=n)
        y_t = y_c + 3 + rng.normal(size=n)
        if kind == "offset":
            y_c, y_t = y_c + 1e8, y_t + 1e8
    table = table_from_arrays(labels + 1, y_t, y_c)
    assert tuple(table.block_sizes) == tuple(sizes)
    return table


def mask_chunks(table, design):
    """The masks of ``iter_assignments`` as ``(rows, n)`` matrices of
    ``chunk_rows(n)`` rows."""
    masks = iter_assignments(table, design)
    while chunk := list(islice(masks, chunk_rows(table.n))):
        yield np.array(chunk)


def mask_values(table, design, statistic):
    """The statistic on every assignment through the mask kernel, numbering
    an undefined one from the first assignment."""
    values, start = [], 0
    for masks in mask_chunks(table, design):
        values.append(batch_statistic(table, design, statistic, masks, first=start))
        start += len(masks)
    return np.concatenate(values)


def mask_kernel(statistic, design):
    """The mask kernel as a callable, one mask at a time, for ``exact_moments``."""
    return lambda table, mask: float(
        oracle.batch_statistic(table, design, statistic, mask[None])[0]
    )


def group_values(table, design, statistic):
    """The statistic on every assignment, in enumeration order, from the
    oracle's group vectors: ``c`` plus their outer sum, the last group
    cycling fastest."""
    c, vectors = oracle._group_vectors(table, design, statistic)
    return c + functools.reduce(np.add.outer, vectors).ravel()


def assert_matches_mask_kernel(table, design, statistic):
    """Every assignment's group-path value within 1e-12 of the mask kernel's
    largest, and ``exact_moments`` within 1e-12 relative of the moments of
    the mask kernel's values, with the design's count and its groups'
    ``sum_k comb(n_k, m_k)`` subsets evaluated."""
    want = mask_values(table, design, statistic)
    values = group_values(table, design, statistic)
    assert len(values) == len(want) == count_assignments(design, table)
    scale = np.max(np.abs(want))
    assert np.all(np.abs(values - want) <= 1e-12 * scale), (design, statistic)
    moments = exact_moments(table, design, statistic)
    mean, variance = oracle.population_moments(want)
    assert moments.mean == pytest.approx(mean, rel=1e-12), (design, statistic)
    assert moments.variance == pytest.approx(variance, rel=1e-12), (design, statistic)
    assert moments.count == len(want)
    groups, treated = design_groups(design, table)
    assert moments.evaluated == sum(math.comb(len(units), m) for units, m in zip(groups, treated))


def group_path_peak(table, design, statistic):
    """``exact_moments``' tracemalloc peak beyond the 8 bytes of each of the
    design's ``sum_k comb(n_k, m_k)`` group-vector entries, and its count."""
    groups, treated = design_groups(design, table)
    held = 8 * sum(math.comb(len(units), m) for units, m in zip(groups, treated))
    tracemalloc.start()
    try:
        count = exact_moments(table, design, statistic).count
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - held, count


def exact_estimator_terms(table, design, statistic):
    """The estimator's term on every subset of each of the design's groups,
    in lexicographic order, in exact rational arithmetic on the outcomes
    that the oracle centers: one list per group, as the oracle's group
    vectors hold them."""
    per_block = statistic == "var_est_blocked"
    _, _, (x_t, x_c) = oracle._centered(table, per_block)
    if isinstance(design, CompleteRandomization):
        groups = [(list(range(table.n)), design.n_t)]
    else:
        groups = [
            (table.block_indices(k).tolist(), design.n_tk[k - 1])
            for k in range(1, table.num_blocks + 1)
        ]
    per_group = []
    for units, m in groups:
        weight = Fraction(len(units), table.n) ** 2
        arms = []
        for x in (x_t, x_c):
            values = {i: Fraction(float(x[i])) for i in units}
            arms.append((values, sum(values.values()), sum(v * v for v in values.values())))
        terms = []
        for chosen in combinations(units, m):
            # Exact sums over the smaller side of the split; the other side's
            # are the totals minus them.
            rest = sorted(set(units) - set(chosen))
            small = chosen if m <= len(rest) else rest
            term = 0
            for (values, total, total_sq), side in zip(arms, (chosen, rest)):
                s1 = sum(values[i] for i in small)
                s2 = sum(values[i] ** 2 for i in small)
                if side is not small:
                    s1, s2 = total - s1, total_sq - s2
                term += (s2 - s1 * s1 / len(side)) / (len(side) * (len(side) - 1))
            terms.append(weight * term)
        per_group.append(terms)
    return per_group


def assert_masks_match(table, design, blocks):
    """The enumeration's masks, in order, equal the itertools reference."""
    masks = np.array(list(iter_assignments(table, design)))
    assert masks.dtype == bool
    assert np.array_equal(masks, itertools_masks(table.n, blocks))


class TestAssignmentChunks:
    @pytest.mark.parametrize("cells", [1, 23, 64])
    def test_rows_follow_reference_order_across_chunks(self, monkeypatch, cells):
        monkeypatch.setattr(oracle, "CHUNK_CELLS", cells)
        rng = np.random.default_rng(77)
        for _ in range(6):
            table = small_table(rng)
            for design in small_designs(rng, table):
                masks = np.array(list(iter_assignments(table, design)))
                assert masks.dtype == bool
                assert len(masks) == count_assignments(design, table)
                reference = np.array(list(reference_assignments(table, design)))
                assert np.array_equal(masks, reference)

    @pytest.mark.parametrize("n_t", [1, 1499])
    def test_deep_cr_matches_itertools(self, n_t):
        # One level of Python recursion per unit would exceed the limit.
        assert sys.getrecursionlimit() < 1500
        table = table_from_arrays([1] * 1500, np.zeros(1500), np.zeros(1500))
        assert_masks_match(table, CompleteRandomization(n_t), [(np.arange(1500), n_t)])

    def test_many_blocks_start_at_once(self):
        # One generator per block, each nested in the next, would exceed
        # the recursion limit before the first mask.
        k = 1500
        assert sys.getrecursionlimit() < k
        labels = np.repeat(np.arange(1, k + 1), 2)
        table = table_from_arrays(labels, np.zeros(2 * k), np.zeros(2 * k))
        masks = np.array(list(islice(iter_assignments(table, Blocked((1,) * k)), 4)))
        want = np.tile([True, False], (4, k))
        want[1, -2:] = want[3, -2:] = want[2:, -4:-2] = [False, True]
        assert np.array_equal(masks, want)

    @pytest.mark.parametrize("n", [2, 3, 9])
    def test_all_but_one_treated_matches_itertools(self, n):
        table = table_from_arrays([1] * n, np.zeros(n), np.zeros(n))
        assert_masks_match(table, CompleteRandomization(n - 1), [(np.arange(n), n - 1)])
        with pytest.raises(ValueError, match="out of range"):
            next(iter_assignments(table, CompleteRandomization(n)))

    def test_single_block_matches_itertools(self):
        table = table_from_arrays([1] * 20, np.zeros(20), np.zeros(20))
        assert_masks_match(table, Blocked((10,)), [(np.arange(20), 10)])

    @pytest.mark.parametrize("cells", [1, 23, 64])
    def test_first_block_subsets_across_chunk_boundaries(self, monkeypatch, cells):
        monkeypatch.setattr(oracle, "CHUNK_CELLS", cells)
        labels = np.random.default_rng(5).permutation(np.repeat([1, 2, 3], [4, 3, 4]))
        table = table_from_arrays(labels, np.zeros(11), np.zeros(11))
        units = [table.block_indices(k) for k in (1, 2, 3)]
        rows = chunk_rows(11)
        for n_tk in [(1, 1, 1), (2, 1, 2), (3, 2, 1)]:
            total = count_assignments(Blocked(n_tk), table)
            inner = total // math.comb(len(units[0]), n_tk[0])
            # Some chunk starts inside the run of masks of one first-block subset.
            assert any(start % inner for start in range(rows, total, rows))
            assert_masks_match(table, Blocked(n_tk), list(zip(units, n_tk)))

    @pytest.mark.parametrize("sizes", [(2, 16), (16, 2)])
    def test_large_block_in_either_order_matches_itertools(self, sizes):
        # The 16-unit block has 12,870 subsets, far more than a chunk's rows.
        table = table_from_arrays(np.repeat([1, 2], sizes), np.zeros(18), np.zeros(18))
        n_tk = tuple(size // 2 for size in sizes)
        units = [table.block_indices(k) for k in (1, 2)]
        assert_masks_match(table, Blocked(n_tk), list(zip(units, n_tk)))

    def test_memory_stays_within_chunks(self):
        # A single 20-unit block in full, then the first 200,000 of the
        # 1,410,864 masks of a 22-unit block after a 2-unit one. Holding
        # every subset of the large block, as itertools.product does, would
        # take 93 MiB.
        cases = [([20], (10,), 184_756), ([2, 22], (1, 11), 200_000)]
        for sizes, n_tk, expected in cases:
            labels = np.repeat(np.arange(1, len(sizes) + 1), sizes)
            table = table_from_arrays(labels, np.zeros(len(labels)), np.zeros(len(labels)))
            tracemalloc.start()
            try:
                count = sum(1 for _ in islice(iter_assignments(table, Blocked(n_tk)), expected))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert count == expected
            assert peak < 2**20, (sizes, peak)

    @pytest.mark.parametrize("cells", [None, 40, 200])
    def test_tau_hat_sums_match_the_mask_kernel(self, monkeypatch, cells):
        # Groups of 14-18 units with several treated hold more subsets than
        # 40 or 200 cells, so their subset sums are built in prefix pieces;
        # a group with one treated or one control unit is a single run.
        if cells is not None:
            monkeypatch.setattr(oracle, "CHUNK_CELLS", cells)
        rng = np.random.default_rng(80)
        cases = [
            ((14,), [CompleteRandomization(1), CompleteRandomization(13)]),
            ((16,), [CompleteRandomization(4)]),
            ((18,), [CompleteRandomization(4)]),
            ((2, 16), [Blocked((1, 4))]),
            ((16, 2), [Blocked((4, 1))]),
            ((4, 3, 4), [Blocked((2, 1, 2)), Blocked((1, 2, 3))]),
        ]
        for sizes, designs in cases:
            # Block k first appears at unit k, so blocks keep the order of
            # ``sizes``; the other units are shuffled.
            rest = rng.permutation(np.repeat(np.arange(len(sizes)), np.array(sizes) - 1))
            labels = np.concatenate([np.arange(len(sizes)), rest])
            y_c = 1e4 + 5 * rng.normal(size=len(sizes))[labels] + rng.normal(size=len(labels))
            y_t = y_c + 3 + rng.normal(size=len(labels))
            table = table_from_arrays(labels + 1, y_t, y_c)
            assert tuple(table.block_sizes) == sizes
            for design in designs:
                assert_matches_mask_kernel(table, design, "tau_hat")

    def test_tau_hat_sums_memory_stays_within_chunks(self):
        # Beyond its group vectors, a tau_hat enumeration holds at most
        # CHUNK_CELLS floats of suffix sums and one piece, never the product
        # of the groups' subsets (1,410,864 values, 11 MB, for the last case).
        cases = [
            ([20], CompleteRandomization(10), 184_756),
            ([11, 11], Blocked((5, 6)), 213_444),
            ([2, 22], Blocked((1, 11)), 1_410_864),
        ]
        rng = np.random.default_rng(81)
        for sizes, design, expected in cases:
            labels = np.repeat(np.arange(1, len(sizes) + 1), sizes)
            y_c = rng.normal(size=len(labels))
            table = table_from_arrays(labels, y_c + 1, y_c)
            extra, count = group_path_peak(table, design, "tau_hat")
            assert count == expected
            assert extra < 2**20, (sizes, extra)

    @pytest.mark.parametrize("cells", [None, 40, 200])
    def test_group_vectors_match_the_mask_kernel(self, monkeypatch, cells):
        # tau_hat under either design and var_est_blocked under blocking are
        # sums of per-group vectors. A group of more subsets than CHUNK_CELLS
        # (the 17- and 200-unit groups at the default, most groups at 40 and
        # 200) is built in pieces, deep ones where few units are treated or
        # few are not; labels are shuffled and outcomes sit near 1e8.
        cases = [
            ((9,), [CompleteRandomization(m) for m in (1, 4, 8)]),
            ((5, 6), [Blocked((2, 3)), Blocked((1, 5))]),
            ((4, 3, 5), [Blocked((2, 1, 2)), Blocked((2, 1, 3))]),
            ((4, 4, 5), [Blocked((2, 2, 3))]),
            ((12,), [CompleteRandomization(m) for m in (2, 3, 10)]),
        ]
        if cells is None:
            cases += [
                ((17,), [CompleteRandomization(8)]),
                ((4, 17), [Blocked((2, 8))]),
                ((200,), [CompleteRandomization(2), CompleteRandomization(198)]),
            ]
        else:
            monkeypatch.setattr(oracle, "CHUNK_CELLS", cells)
        rng = np.random.default_rng(82)
        for sizes, designs in cases:
            # Block k first appears at unit k, so blocks keep the order of
            # ``sizes``; the other units are shuffled.
            rest = rng.permutation(np.repeat(np.arange(len(sizes)), np.array(sizes) - 1))
            labels = np.concatenate([np.arange(len(sizes)), rest])
            y_c = 1e8 + 5 * rng.normal(size=len(sizes))[labels] + rng.normal(size=len(labels))
            y_t = y_c + 3 + rng.normal(size=len(labels))
            table = table_from_arrays(labels + 1, y_t, y_c)
            assert tuple(table.block_sizes) == sizes
            for design in designs:
                statistics = ["tau_hat"]
                if isinstance(design, Blocked) and min(
                    min(m, size - m) for m, size in zip(design.n_tk, sizes)
                ) >= 2:
                    statistics.append("var_est_blocked")
                for statistic in statistics:
                    assert_matches_mask_kernel(table, design, statistic)

    @pytest.mark.parametrize("cells", [None, 40, 200])
    def test_estimator_sums_match_the_mask_kernel(self, monkeypatch, cells):
        # var_est_cr under complete randomization and var_est_blocked under
        # blocking come from each arm's subset sums of (x, x^2), the control
        # arm's over the complements in reverse order. Equal arms share one
        # stream (CR 6 of 12, blocks of 6 at 3), and small blocks take their
        # shared mask tables. At 40 and 200 cells groups are built in pieces,
        # the 40-unit ones by deep descents that stop early; at the default
        # the 17- and 200-unit groups are.
        cases = [
            ((40,), [CompleteRandomization(2), CompleteRandomization(38)]),
            ((12,), [CompleteRandomization(m) for m in (2, 5, 6, 10)]),
            ((5, 6), [Blocked((2, 3)), Blocked((3, 2))]),
            ((4, 4, 5), [Blocked((2, 2, 3)), Blocked((2, 2, 2))]),
            ((6, 9), [Blocked((3, 4))]),
        ]
        if cells is None:
            cases += [
                ((17,), [CompleteRandomization(8)]),
                ((4, 17), [Blocked((2, 8))]),
                ((200,), [CompleteRandomization(2), CompleteRandomization(198)]),
            ]
        else:
            monkeypatch.setattr(oracle, "CHUNK_CELLS", cells)
        rng = np.random.default_rng(87)
        for kind in ("random", "bimodal", "offset", "shuffled"):
            for sizes, designs in cases:
                table = estimator_table(rng, kind, sizes)
                for design in designs:
                    statistic = "var_est_blocked" if isinstance(design, Blocked) else "var_est_cr"
                    assert_matches_mask_kernel(table, design, statistic)

    @pytest.mark.parametrize("cells", [None, 40])
    def test_estimator_rounding_stays_within_the_stated_bound(self, monkeypatch, cells):
        # The oracle docstring bounds every entry of a group's vector within
        # 14 (n - 1) eps of the vector's largest entry of exact arithmetic on
        # the centered outcomes, n the group's size. Tight modes at +-1e3 give an arm of one mode sums of
        # squares near 1e6 around a spread near 1e-12, the one-pass form's
        # worst cancellation.
        if cells is not None:
            monkeypatch.setattr(oracle, "CHUNK_CELLS", cells)
        rng = np.random.default_rng(88)
        cases = [
            ((40,), [CompleteRandomization(2), CompleteRandomization(38)]),
            ((12,), [CompleteRandomization(5), CompleteRandomization(6)]),
            ((6, 8), [Blocked((3, 4)), Blocked((2, 5))]),
        ]
        for sizes, designs in cases:
            table = estimator_table(rng, "bimodal", sizes)
            for design in designs:
                statistic = "var_est_blocked" if isinstance(design, Blocked) else "var_est_cr"
                _, vectors = oracle._group_vectors(table, design, statistic)
                per_group = exact_estimator_terms(table, design, statistic)
                assert len(vectors) == len(per_group)
                for units, vector, exact in zip(design_groups(design, table)[0], vectors, per_group):
                    assert len(vector) == len(exact)
                    largest = max(abs(v) for v in exact)
                    error = max(abs(Fraction(float(v)) - e) for v, e in zip(vector, exact))
                    bound = 14 * (len(units) - 1) * Fraction(1, 2**53) * largest
                    assert error <= bound, design

    @pytest.mark.parametrize("kind", ["bimodal", "offset"])
    def test_control_arm_is_summed_over_its_complements(self, kind):
        # With 198 of 200 units treated, control sums taken as the totals
        # minus the treated sums were off by 93 (offset) and 259 (bimodal)
        # eps of max |value| on these tables; summed over the complements
        # they are off by under 5, far inside the proved 14 * 199 eps.
        table = estimator_table(np.random.default_rng(90), kind, (200,))
        design = CompleteRandomization(198)
        _, (values,) = oracle._group_vectors(table, design, "var_est_cr")
        (exact,) = exact_estimator_terms(table, design, "var_est_cr")
        largest = max(abs(v) for v in exact)
        error = max(abs(Fraction(float(v)) - e) for v, e in zip(values, exact))
        assert error <= 16 * Fraction(1, 2**53) * largest

    def test_var_est_cr_memory_stays_within_chunks(self):
        # Beyond its vector of 184,756 values, a var_est_cr enumeration holds
        # suffix sums and one piece of its four-row stream, never each arm's
        # full vector of subset sums.
        rng = np.random.default_rng(89)
        y_c = rng.normal(size=20)
        table = table_from_arrays([1] * 20, y_c + rng.normal(size=20), y_c)
        extra, count = group_path_peak(table, CompleteRandomization(10), "var_est_cr")
        assert count == 184_756
        assert extra < 2**20, extra

    @pytest.mark.parametrize("n_t", [1, 7])
    def test_var_est_cr_singleton_arm_is_named(self, n_t):
        # Every assignment has the design's counts, so the first is undefined.
        table = table_from_arrays([1] * 8, np.arange(8.0), np.zeros(8))
        design = CompleteRandomization(n_t)
        first = next(mask_chunks(table, design))
        with pytest.raises(ValueError) as want:
            batch_statistic(table, design, "var_est_cr", first)
        with pytest.raises(ValueError) as got:
            exact_moments(table, design, "var_est_cr")
        assert str(got.value) == str(want.value)
        assert str(got.value) == (
            "statistic undefined on assignment #0: each arm needs at least 2 units"
        )

    @pytest.mark.parametrize(
        "n_tk, block",
        [((1, 1, 2), 1), ((2, 1, 2), 2), ((2, 3, 1), 2), ((2, 2, 4), 3), ((3, 2, 2), 1)],
    )
    def test_singleton_arm_block_is_named(self, n_tk, block):
        # Every assignment has the design's counts, so the first is undefined,
        # in the first block with fewer than two units in an arm.
        rest = np.random.default_rng(83).permutation(np.repeat([1, 2, 3], [3, 3, 4]))
        table = table_from_arrays(np.concatenate([[1, 2, 3], rest]), np.arange(13.0), np.zeros(13))
        assert tuple(table.block_sizes) == (4, 4, 5)
        design = Blocked(n_tk)
        first = next(mask_chunks(table, design))
        with pytest.raises(ValueError) as want:
            batch_statistic(table, design, "var_est_blocked", first)
        with pytest.raises(ValueError) as got:
            exact_moments(table, design, "var_est_blocked")
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(
            f"statistic undefined on assignment #0: block {block} has a singleton arm"
        )

    def test_var_est_blocked_memory_stays_within_chunks(self):
        # Beyond its group vectors, a blocked var_est_blocked enumeration
        # holds suffix sums and one piece at a time, never the product of the
        # blocks' subsets (1,108,536 values, 8.9 MB, for the second case).
        cases = [
            ([11, 11], (5, 6), 213_444),
            ([4, 20], (2, 10), 1_108_536),
            ([8] * 3, (4,) * 3, 343_000),
        ]
        rng = np.random.default_rng(84)
        for sizes, n_tk, expected in cases:
            labels = np.repeat(np.arange(1, len(sizes) + 1), sizes)
            y_c = rng.normal(size=len(labels))
            table = table_from_arrays(labels, y_c + rng.normal(size=len(labels)), y_c)
            extra, count = group_path_peak(table, Blocked(n_tk), "var_est_blocked")
            assert count == expected
            assert extra < 2**20, (sizes, extra)

    def test_no_named_statistic_reaches_the_mask_kernel(self, monkeypatch):
        calls = []
        kernel = oracle.batch_statistic

        def counted(table, design, statistic, masks, first=0):
            calls.append(statistic)
            return kernel(table, design, statistic, masks, first)

        monkeypatch.setattr(oracle, "batch_statistic", counted)
        rng = np.random.default_rng(85)
        one_block = table_from_arrays([1] * 8, rng.normal(size=8), rng.normal(size=8))
        two_blocks = table_from_arrays([1] * 4 + [2] * 4, rng.normal(size=8), rng.normal(size=8))
        cases = [(one_block, CompleteRandomization(4)), (one_block, Blocked((4,))),
                 (two_blocks, CompleteRandomization(4)), (two_blocks, Blocked((2, 2)))]
        for table, design in cases:
            for statistic in STATISTICS:
                if table is two_blocks and design == CompleteRandomization(4) and (
                    statistic == "var_est_blocked"
                ):
                    continue  # refused up front, see TestMisappliedEstimator
                count = exact_moments(table, design, statistic).count
                assert count == count_assignments(design, table)
        assert calls == []
        # A callable is the one way to masks.
        exact_moments(two_blocks, Blocked((2, 2)), mask_kernel("var_est_cr", Blocked((2, 2))))
        assert calls == ["var_est_cr"] * 36

    def test_exact_moments_memory_stays_near_its_values(self):
        # The variance is reduced in fixed blocks of values, with no
        # full-size array of deviations beside the values.
        rng = np.random.default_rng(86)
        y_c = rng.normal(size=20)
        table = table_from_arrays([1] * 20, y_c + rng.normal(size=20), y_c)
        values = group_values(table, CompleteRandomization(10), "tau_hat")
        tracemalloc.start()
        try:
            moments = exact_moments(table, CompleteRandomization(10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert moments.count == len(values) == 184_756
        assert peak - values.nbytes < 2**20, peak - values.nbytes
        assert moments.mean == pytest.approx(np.mean(values), rel=1e-14)
        assert moments.variance == pytest.approx(np.var(values), rel=1e-14)

    def test_small_chunks_change_no_value(self, monkeypatch):
        rng = np.random.default_rng(78)
        table = small_table(rng)
        design = Blocked(tuple(int(size) // 2 for size in table.block_sizes))
        whole = exact_moments(table, design, "tau_hat")
        monkeypatch.setattr(oracle, "CHUNK_CELLS", 2 * table.n)
        split = exact_moments(table, design, "tau_hat")
        assert split.evaluated == whole.evaluated == sum(
            math.comb(int(size), int(size) // 2) for size in table.block_sizes
        )
        assert split.mean == pytest.approx(whole.mean, rel=1e-14)
        assert split.variance == pytest.approx(whole.variance, rel=1e-14)

    def test_callables_keep_the_per_mask_path(self, mirrored_blocks_table):
        moments = exact_moments(mirrored_blocks_table, Blocked((1, 1)), lambda t, m: float(m[0]))
        assert (moments.count, moments.evaluated) == (4, 4)


class TestMomentsAddOverGroups:
    @pytest.mark.parametrize("kind", ["scale-1e-6", "scale-1e6", "offset", "shuffled"])
    def test_matches_the_mask_kernel(self, kind):
        # A blocked design randomizes its blocks independently, so the mean
        # of tau_hat or var_est_blocked is c plus the blocks' means and its
        # variance the sum of theirs; the mask kernel evaluates the product
        # of the blocks' subsets. ``offset`` shifts every outcome by 1e8.
        rng = np.random.default_rng(92)
        scale = {"scale-1e-6": 1e-6, "scale-1e6": 1e6}.get(kind, 1.0)
        cases = [
            ((5, 6), [Blocked((2, 3)), Blocked((3, 4))]),
            ((4, 4, 5), [Blocked((2, 2, 3)), Blocked((2, 2, 2))]),
            ((6, 7, 5), [Blocked((3, 3, 2))]),
        ]
        for sizes, designs in cases:
            table = estimator_table(rng, "random" if "scale" in kind else kind, sizes)
            table = table_from_arrays(table.blocks, scale * table.y_t, scale * table.y_c)
            for design in designs:
                for statistic in ("tau_hat", "var_est_blocked"):
                    assert_matches_mask_kernel(table, design, statistic)

    @pytest.mark.parametrize("statistic", STATISTICS)
    def test_blocked_moments_hold_each_block_once(self, statistic):
        # 3 blocks of 8 at 4 have 343,000 assignments but 3 * 70 subsets;
        # the assignments' values alone would fill 2.6 MiB.
        rng = np.random.default_rng(93)
        labels = np.repeat([1, 2, 3], 8)
        y_c = rng.normal(size=24)
        table = table_from_arrays(labels, y_c + rng.normal(size=24), y_c)
        tracemalloc.start()
        try:
            moments = exact_moments(table, Blocked((4, 4, 4)), statistic)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert moments.count == 343_000
        assert peak < 2**20, peak


def misapplied_table(rng, kind, sizes):
    """An ``estimator_table`` for ``var_est_cr`` under blocking: ``scale-*``
    multiplies random outcomes by 1e-6 or 1e6, and ``shift`` puts them on a
    grid of 2^-20 and adds 2^27, which is exact."""
    table = estimator_table(rng, "random" if kind.startswith(("scale", "shift")) else kind, sizes)
    y_t, y_c = table.y_t, table.y_c
    if kind.startswith("scale"):
        scale = {"scale-1e-6": 1e-6, "scale-1e6": 1e6}[kind]
        y_t, y_c = scale * y_t, scale * y_c
    elif kind == "shift":
        y_t, y_c = (np.round(y * 2**20) / 2**20 + 2**27 for y in (y_t, y_c))
        assert np.all(y_t - 2**27 == np.round(table.y_t * 2**20) / 2**20)
    return table_from_arrays(table.blocks, y_t, y_c)


class TestMisappliedEstimator:
    """``var_est_cr`` under blocking, from joint cumulants added over the blocks."""

    CASES = [
        ((9,), [Blocked((4,)), Blocked((2,))]),
        ((5, 6), [Blocked((2, 3)), Blocked((1, 5)), Blocked((4, 1))]),
        ((4, 4, 5), [Blocked((2, 2, 3)), Blocked((1, 3, 1))]),
        ((6, 7, 5), [Blocked((3, 3, 2))]),
    ]

    @pytest.mark.parametrize(
        "kind", ["scale-1e-6", "scale-1e6", "shift", "shuffled", "offset", "bimodal"]
    )
    def test_matches_the_mask_kernel(self, kind):
        # The mask kernel, called once per mask through exact_moments, is the
        # reference; blocks with a single treated or control unit are fine,
        # as the arms are pooled over the blocks.
        rng = np.random.default_rng(95)
        for sizes, designs in self.CASES:
            table = misapplied_table(rng, kind, sizes)
            for design in designs:
                got = exact_moments(table, design, "var_est_cr")
                want = exact_moments(table, design, mask_kernel("var_est_cr", design))
                assert got.count == want.count == count_assignments(design, table)
                assert got.mean == pytest.approx(want.mean, rel=1e-12), (sizes, design)
                assert got.variance == pytest.approx(want.variance, rel=1e-12), (sizes, design)

    def test_exact_shift_changes_nothing(self):
        # Pooled centering removes an exactly representable shift.
        for sizes, designs in self.CASES:
            rng = np.random.default_rng(96)
            shifted = misapplied_table(rng, "shift", sizes)
            table = table_from_arrays(shifted.blocks, shifted.y_t - 2**27, shifted.y_c - 2**27)
            for design in designs:
                got = exact_moments(shifted, design, "var_est_cr")
                want = exact_moments(table, design, "var_est_cr")
                assert got.mean == pytest.approx(want.mean, rel=1e-12)
                assert got.variance == pytest.approx(want.variance, rel=1e-12)

    @pytest.mark.parametrize("kind", ["random", "offset", "shuffled", "bimodal"])
    def test_mean_matches_the_closed_form(self, kind):
        rng = np.random.default_rng(97)
        for sizes, p in [((4, 4, 6, 6), 0.5), ((3, 6, 9), 1 / 3), ((8, 8, 8), 0.25)]:
            table = estimator_table(rng, kind, sizes)
            design = blocked_design_for_proportion(table, p)
            want = cr_varest_bias_under_blocking(table, p).expected_varest_cr
            assert exact_moments(table, design, "var_est_cr").mean == pytest.approx(
                want, rel=1e-12
            )

    def test_large_block_holds_its_three_vectors(self):
        # One 20-unit block at 10 treated has 184,756 subsets; beyond its
        # vectors of l_k, B_k and D_k the products are summed block by block.
        table = estimator_table(np.random.default_rng(102), "random", (20,))
        tracemalloc.start()
        try:
            count = exact_moments(table, Blocked((10,)), "var_est_cr").count
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 184_756
        assert peak - 3 * 8 * count < 2**20, peak

    @pytest.mark.parametrize("m", [1, 3])
    def test_singleton_pooled_arm_is_named(self, m):
        # Every block keeps a unit in each arm, so only a one-block design
        # can leave a pooled arm with fewer than two units.
        table = table_from_arrays([1] * 4, np.arange(4.0), np.zeros(4))
        design = Blocked((m,))
        with pytest.raises(ValueError) as want:
            batch_statistic(table, design, "var_est_cr", next(mask_chunks(table, design)))
        with pytest.raises(ValueError) as got:
            exact_moments(table, design, "var_est_cr")
        assert str(got.value) == str(want.value) == (
            "statistic undefined on assignment #0: each arm needs at least 2 units"
        )

    def test_blocked_estimator_refused_under_complete_randomization(self):
        rng = np.random.default_rng(98)
        two_blocks = table_from_arrays([1] * 6 + [2] * 9, rng.normal(size=15), rng.normal(size=15))
        with pytest.raises(ValueError) as err:
            exact_moments(two_blocks, CompleteRandomization(7), "var_est_blocked")
        assert str(err.value) == (
            "var_est_blocked is undefined under complete randomization of 2 blocks: "
            "some assignment leaves a block with fewer than 2 units in an arm"
        )
        # The mask kernel finds such an assignment.
        _, message = reference_values(
            two_blocks, CompleteRandomization(7), "var_est_blocked",
            reference_assignments(two_blocks, CompleteRandomization(7)),
        )
        assert "singleton arm" in message

    @pytest.mark.parametrize("kind", ["random", "offset", "bimodal"])
    def test_blocked_estimator_on_one_block_is_the_pooled_one(self, kind):
        table = estimator_table(np.random.default_rng(99), kind, (12,))
        for n_t in (2, 5, 6, 10):
            design = CompleteRandomization(n_t)
            got = exact_moments(table, design, "var_est_blocked")
            want = exact_moments(table, design, "var_est_cr")
            assert got.mean == pytest.approx(want.mean, rel=1e-12)
            assert got.variance == pytest.approx(want.variance, rel=1e-12)
        with pytest.raises(ValueError, match="#0: block 1 has a singleton arm"):
            exact_moments(table, CompleteRandomization(11), "var_est_blocked")

    def test_overflow_is_one_error(self):
        # The estimator's variance is of degree 4 in the outcomes: finite
        # near 1e70, beyond float64 near 1e80. The suite turns a numpy
        # overflow warning into an error, so none may be raised on the way.
        rng = np.random.default_rng(100)
        base = estimator_table(rng, "random", (4, 5))
        for magnitude, finite in ((1e70, True), (1e80, False)):
            table = table_from_arrays(base.blocks, magnitude * base.y_t, magnitude * base.y_c)
            for design, statistic in [
                (CompleteRandomization(4), "var_est_cr"),
                (Blocked((2, 2)), "var_est_cr"),
                (Blocked((2, 2)), "var_est_blocked"),
            ]:
                if finite:
                    moments = exact_moments(table, design, statistic)
                    assert math.isfinite(moments.mean) and math.isfinite(moments.variance)
                    continue
                with pytest.raises(ValueError, match=f"^{statistic} moments overflow float64"):
                    exact_moments(table, design, statistic)

    @pytest.mark.parametrize("limit", [None, 0])
    def test_estimator_variability_overflow_is_one_error(self, monkeypatch, limit):
        # Both of varest_variability's paths, enumeration and (with the
        # enumeration limit at 0) Monte Carlo, refuse moments beyond float64.
        if limit is not None:
            monkeypatch.setattr(variance_estimation, "EXACT_ENUMERATION_LIMIT", limit)
        base = estimator_table(np.random.default_rng(101), "random", (4, 5))
        table = table_from_arrays(base.blocks, 1e80 * base.y_t, 1e80 * base.y_c)
        for design in (CompleteRandomization(4), Blocked((2, 2))):
            statistic = "var_est_blocked" if isinstance(design, Blocked) else "var_est_cr"
            with pytest.raises(ValueError, match=f"^{statistic} moments overflow float64"):
                varest_variability(table, design, reps=50)


class TestMonteCarloThroughKernel:
    @pytest.mark.parametrize("cells", [None, 40])
    def test_matches_per_draw_reference(self, monkeypatch, cells):
        monkeypatch.setattr(variance_estimation, "EXACT_ENUMERATION_LIMIT", 0)
        if cells is not None:
            monkeypatch.setattr(oracle, "CHUNK_CELLS", cells)
        rng = np.random.default_rng(91)
        table = make_random_table(rng, n_range=(16, 16), k_range=(2, 2), even_sizes=True)
        while np.any(table.block_sizes < 4):
            table = make_random_table(rng, n_range=(16, 16), k_range=(2, 2), even_sizes=True)
        reps, seed = 150, 12
        halves = Blocked(tuple(int(s) // 2 for s in table.block_sizes))
        for design in (CompleteRandomization(8), halves):
            blocked = isinstance(design, Blocked)
            values = []
            for r in range(reps):
                if blocked:
                    mask = assign_blocked(table, design, mc.rep_rng(seed, r))
                    values.append(_stat_var_est_blocked(table, mask))
                else:
                    mask = assign_cr(table.n, design.n_t, mc.rep_rng(seed, r))
                    values.append(_stat_var_est_cr(table, mask))
            result = varest_variability(table, design, reps=reps, seed=seed)
            assert result.method == "monte_carlo" and result.reps_used == reps
            assert result.mean_varest == pytest.approx(np.mean(values), rel=1e-12)
            assert result.var_of_varest == pytest.approx(np.var(values, ddof=1), rel=1e-12)
