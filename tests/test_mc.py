"""Per-rep generators (``mc.rep_rngs``) and worker clamping of ``mc.map_ordered``.

``mc.rep_rng`` builds each rep's generator from numpy's own ``SeedSequence``
and ``PCG64`` and is the reference for ``mc.rep_rngs``. No test here starts a
process pool: the clamp is checked as arithmetic, and the wiring through
``map_ordered`` with a stand-in executor that maps inline.
"""

from pathlib import Path

import numpy as np
import pytest

from blockcalc import mc
from blockcalc.oracle import chunk_rows
from blockcalc.pop_model import Blocked, CompleteRandomization, table_from_arrays
from blockcalc.replay import Strategy, read_replay_csv, run_replay
from blockcalc.studies import FlexBlockingConfig, study_flexible_blocking
from blockcalc.variance_estimation import varest_variability
from blockcalc.variance_theory import var_diff_site_sampling

GOLDEN = Path(__file__).resolve().parent / "golden"

SEEDS = [0, 1, 7, 12345, 2**32 + 5, 2**70 + 3, 2**130 + 9]


def assert_matches_rep_rng(seed, lo, hi):
    """Every generator ``rep_rngs`` yields has the reference state, and the
    same next draws; an odd count of small integers leaves half a 64-bit
    word buffered, which the next rep must not see."""
    reps = range(lo, hi)
    yielded = 0
    for r, rng in zip(reps, mc.rep_rngs(seed, lo, hi)):
        ref = mc.rep_rng(seed, r)
        assert rng.bit_generator.state == ref.bit_generator.state, (seed, r)
        assert np.array_equal(rng.integers(7, size=9), ref.integers(7, size=9))
        assert rng.standard_normal() == ref.standard_normal()
        assert rng.bit_generator.state == ref.bit_generator.state
        yielded += 1
    assert yielded == len(reps)


class TestRepRngs:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_rep_rng(self, seed):
        assert_matches_rep_rng(seed, 0, 600)

    @pytest.mark.parametrize(
        "lo, hi",
        [
            (0, 0),
            (300, 300),
            (mc.CHUNK_SIZE - 1, mc.CHUNK_SIZE + 1),
            (5, 3 * mc.CHUNK_SIZE + 7),
            (chunk_rows(64) - 2, 2 * chunk_rows(64) + 1),
            (chunk_rows(10) - 1, chunk_rows(10) + 1),
        ],
    )
    def test_ranges_across_chunk_boundaries(self, lo, hi):
        assert_matches_rep_rng(11, lo, hi)

    @pytest.mark.parametrize("seed", [3, 2**70 + 3])
    @pytest.mark.parametrize(
        "lo, hi", [(2**32 - 2, 2**32 + 3), (2**40 + 17, 2**40 + 19), (2**64 - 1, 2**64 + 2)]
    )
    def test_spawn_keys_of_several_words(self, seed, lo, hi):
        assert_matches_rep_rng(seed, lo, hi)

    def test_yields_one_reused_generator(self):
        assert len({id(rng) for rng in mc.rep_rngs(5, 0, 10)}) == 1

    @pytest.mark.parametrize("hi", [0, 3])
    def test_negative_seed_is_numpys_error(self, hi):
        with pytest.raises(ValueError) as numpy_error:
            mc.rep_rng(-1, 0)
        with pytest.raises(ValueError, match="expected non-negative integer") as error:
            list(mc.rep_rngs(-1, 0, hi))
        assert str(error.value) == str(numpy_error.value)


class SpoilingRepRngs:
    """Stands in for ``mc.rep_rngs``: a fresh reference generator per rep,
    each advanced once the next one is asked for, so a caller that keeps a
    generator draws from a spoiled one. Counts the generators it yields."""

    def __init__(self):
        self.yielded = 0

    def __call__(self, seed, lo, hi):
        previous = None
        for r in range(lo, hi):
            rng = mc.rep_rng(seed, r)
            if previous is not None:
                previous.bit_generator.advance(1)
            self.yielded += 1
            yield rng
            previous = rng
        if previous is not None:
            previous.bit_generator.advance(1)


def reference_rep_rngs(seed, lo, hi):
    """Stands in for ``mc.rep_rngs`` with ``mc.rep_rng``, the reference."""
    return (mc.rep_rng(seed, r) for r in range(lo, hi))


def _site_sampling():
    labels = np.repeat(np.arange(5), [4, 6, 8, 10, 12])
    y = np.random.default_rng(3).normal(size=labels.size)
    report = var_diff_site_sampling(table_from_arrays(labels, y, y + 1), 3, 0.5, reps=300, seed=4)
    return report.var_cr, report.var_bk, report.diff, report.mc_se


def _flexible_blocking():
    cfg = FlexBlockingConfig(n=32, block_size=4, interleave_blocks=5, noise_sigma=0.5)
    return study_flexible_blocking(cfg, seed=6, reps=300)


def _varest_monte_carlo():
    labels = np.repeat([1, 2, 3, 4], 4)
    y = np.random.default_rng(8).normal(size=16)
    table = table_from_arrays(labels, y, y + 0.5)
    reps = chunk_rows(table.n) + 50
    return [
        varest_variability(table, design, reps=reps, seed=9, exact_limit=1)
        for design in (CompleteRandomization(8), Blocked((2, 2, 2, 2)))
    ]


def _replay_random_blocks():
    data = read_replay_csv(GOLDEN / "input_replay.csv")
    allocations = chunk_rows(data.n) + 40
    return run_replay(data, [Strategy("random-blocks", {"allocations": allocations})], seed=12)


@pytest.mark.parametrize(
    "caller", [_site_sampling, _flexible_blocking, _varest_monte_carlo, _replay_random_blocks]
)
def test_callers_are_done_with_each_generator_before_the_next(monkeypatch, caller):
    got = caller()
    monkeypatch.setattr(mc, "rep_rngs", reference_rep_rngs)
    want = caller()
    spoiling = SpoilingRepRngs()
    monkeypatch.setattr(mc, "rep_rngs", spoiling)
    assert caller() == want == got
    assert spoiling.yielded > mc.CHUNK_SIZE


@pytest.mark.parametrize(
    "threads, items, cpus, expected",
    [
        (1, 10, 8, 1),
        (4, 10, 8, 4),
        (64, 10, 8, 8),
        (64, 3, 8, 3),
        (10**9, 10**9, 2, 2),
        (0, 5, 4, 1),
        (-3, 5, 4, 1),
        (4, 0, 4, 1),
        (4, 5, 1, 1),
        (7, 50, None, 1),
    ],
)
def test_effective_workers_arithmetic(monkeypatch, threads, items, cpus, expected):
    monkeypatch.setattr(mc.os, "cpu_count", lambda: cpus)
    assert mc.effective_workers(threads, items) == expected


class InlineExecutor:
    """Stands in for ProcessPoolExecutor and records the requested size."""

    sizes: list = []

    def __init__(self, max_workers):
        InlineExecutor.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.fixture
def inline_pool(monkeypatch):
    InlineExecutor.sizes = []
    monkeypatch.setattr(mc, "ProcessPoolExecutor", InlineExecutor)
    monkeypatch.setattr(mc.os, "cpu_count", lambda: 4)
    return InlineExecutor.sizes


def test_map_ordered_sizes_the_pool_by_the_clamp(inline_pool):
    assert mc.map_ordered(abs, [-1, -2, -3], threads=10**6) == [1, 2, 3]
    assert mc.map_ordered(abs, range(-10, 0), threads=10**6) == list(range(10, 0, -1))
    assert inline_pool == [3, 4]


def test_map_ordered_runs_inline_when_one_worker_remains(inline_pool):
    assert mc.map_ordered(abs, [-5], threads=10**6) == [5]
    assert mc.map_ordered(abs, [-1, -2], threads=1) == [1, 2]
    assert inline_pool == []
