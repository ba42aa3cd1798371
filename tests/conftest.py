import concurrent.futures

import numpy as np
import pytest

from blockcalc import Blocked, CompleteRandomization, mc, table_from_arrays, variance_estimation
from blockcalc.oracle import batch_statistic, chunk_rows, count_assignments, exact_moments
from blockcalc.randomizer import draw_masks, shuffle_plan


@pytest.fixture
def no_process_pool(monkeypatch):
    """Make any attempt to start a process pool fail the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)


@pytest.fixture
def two_unit_table():
    # One block, y_t = (1, 3), y_c = (0, 0): effects (1, 3), SATE 2.
    return table_from_arrays([1, 1], [1.0, 3.0], [0.0, 0.0])


@pytest.fixture
def mirrored_blocks_table():
    # Two blocks, each with outcomes {0, 2} and no treatment effect. The
    # canonical witness that blocking identical-looking blocks hurts and
    # that ignoring the blocking underestimates the variance.
    return table_from_arrays(["A", "A", "B", "B"], [0.0, 2.0, 0.0, 2.0], [0.0, 2.0, 0.0, 2.0])


@pytest.fixture
def four_strata_table():
    # Four strata at constant levels 1..4, four identical units each,
    # zero treatment effect everywhere.
    y = np.repeat([1.0, 2.0, 3.0, 4.0], 4)
    labels = np.repeat([1, 2, 3, 4], 4)
    return table_from_arrays(labels, y, y)


def make_random_table(rng, n_range=(4, 10), k_range=(1, 3), block_shift_sd=1.0, even_sizes=False):
    """Random table with every block size at least 2.

    ``even_sizes`` forces every block size to be even, which guarantees at
    least one feasible common treated proportion (p = 1/2).
    """
    if even_sizes:
        half = int(rng.integers((n_range[0] + 1) // 2, n_range[1] // 2 + 1))
        n = 2 * half
        k_max = min(k_range[1], half)
        k = int(rng.integers(k_range[0], k_max + 1))
        parts = np.full(k, 1)
        for _ in range(half - k):
            parts[rng.integers(k)] += 1
        sizes = 2 * parts
    else:
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        k_max = min(k_range[1], n // 2)
        k = int(rng.integers(k_range[0], k_max + 1))
        sizes = np.full(k, 2)
        for _ in range(n - 2 * k):
            sizes[rng.integers(k)] += 1
    labels = np.repeat(np.arange(1, k + 1), sizes)
    shifts = block_shift_sd * rng.standard_normal(k)
    y_c = rng.standard_normal(n) + shifts[labels - 1]
    y_t = y_c + rng.standard_normal(n) + 0.5 * shifts[labels - 1]
    return table_from_arrays(labels, y_t, y_c)


def make_random_blocked_design(rng, table):
    counts = tuple(int(rng.integers(1, size)) for size in table.block_sizes)
    return Blocked(counts)


def make_random_cr_design(rng, table):
    return CompleteRandomization(int(rng.integers(1, table.n)))


def equal_p_proportions(table):
    """All feasible common treated proportions p with p * n_k integral."""
    g = int(np.gcd.reduce(table.block_sizes))
    return [a / g for a in range(1, g)]


@pytest.fixture
def random_table_factory():
    return make_random_table


def rel_close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def reference_varest_variability(table, design, reps, seed):
    """``(mean, variance)`` of the design's own variance estimator on one
    table, one seeded generator from ``mc.rep_rngs`` per rep: the per-point
    path that ``variance_estimation.varest_variabilities`` batches. Draws
    are evaluated in the same ``chunk_rows`` chunks, so results are equal
    bit for bit. Like the library, it takes ``exact_moments`` up to the
    current ``variance_estimation.EXACT_ENUMERATION_LIMIT``."""
    statistic = "var_est_blocked" if isinstance(design, Blocked) else "var_est_cr"
    total = count_assignments(design, table)
    if total <= variance_estimation.EXACT_ENUMERATION_LIMIT:
        moments = exact_moments(table, design, statistic, cap=total)
        return moments.mean, moments.variance
    plan = shuffle_plan(table, design)
    values = np.empty(reps)
    rows = chunk_rows(table.n)
    for start in range(0, reps, rows):
        stop = min(start + rows, reps)
        draws = [rng.integers(plan.highs) for rng in mc.rep_rngs(seed, start, stop)]
        masks = draw_masks(plan, np.array(draws).reshape(stop - start, len(plan.highs)))
        values[start:stop] = batch_statistic(table, design, statistic, masks, first=start)
    return float(np.mean(values)), float(np.var(values, ddof=1))
