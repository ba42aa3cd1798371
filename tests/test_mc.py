"""Per-rep generators (``mc.rep_rngs``), per-rep bounded integers
(``mc.rep_integers``) and the ordered map ``mc.map_ordered``.

``mc.rep_rng`` builds each rep's generator from numpy's own ``SeedSequence``
and ``PCG64`` and is the reference for ``mc.rep_rngs`` and
``mc.rep_integers``.
"""

import itertools
import os
from pathlib import Path

import numpy as np
import pytest

from blockcalc import mc
from blockcalc.oracle import CHUNK_CELLS, chunk_rows
from blockcalc.pop_model import Blocked, table_from_arrays
from blockcalc.randomizer import shuffle_plan
from blockcalc.replay import Strategy, read_replay_csv, run_replay
from blockcalc.studies import FlexBlockingConfig, study_flexible_blocking
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
            # rep_rngs hashes chunk_rows(8) lanes at a time (a lane's seed is 8 words).
            (chunk_rows(8) - 1, chunk_rows(8) + 1),
            (5, 3 * chunk_rows(8) + 7),
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


def reference_integers(seeds, lo, hi, highs):
    """``mc.rep_rng(seed, r).integers(highs)`` for every seed and rep ``r``
    in ``lo..hi-1``, stacked seed by seed."""
    rows = [mc.rep_rng(s, r).integers(highs) for s in seeds for r in range(lo, hi)]
    return np.array(rows, dtype=np.int64).reshape(len(seeds) * (hi - lo), len(highs))


def assert_rep_integers_match(seeds, lo, hi, highs):
    got = mc.rep_integers(seeds, lo, hi, highs)
    assert got.dtype == np.int64 and got.shape == (len(seeds) * (hi - lo), len(highs))
    assert np.array_equal(got, reference_integers(seeds, lo, hi, highs)), (seeds, lo, hi)


#: 2^31 + 5 rejects about half the words; 2^32 - 1 is the largest bound.
HIGHS = [1, 2, 3, 40, 2**31 + 5, 2**32 - 1]

#: Seeds of 1, 2, 3 and 5 words: up to four words fill one pool, five do not.
MIXED_SEEDS = [0, 2**70 + 3, 7, 2**40 + 1, 2**130 + 9, 2**64 + 5, 12345]


def counting_rep_rng(monkeypatch):
    """Redraws of ``mc.rep_integers``, recorded as ``(seed, rep)`` while they
    still come from the reference ``mc.rep_rng``."""
    reference_rep_rng = mc.rep_rng
    redrawn = []

    def counting(seed, rep):
        redrawn.append((seed, rep))
        return reference_rep_rng(seed, rep)

    monkeypatch.setattr(mc, "rep_rng", counting)
    return redrawn


class TestRepIntegers:
    @pytest.mark.parametrize("seed", [0, 7, 2**32 + 5, 2**130 + 9])
    @pytest.mark.parametrize("high", HIGHS)
    def test_matches_rep_rng(self, seed, high):
        # An odd step count leaves half of the last 64-bit output unused.
        assert_rep_integers_match([seed], 0, 300, np.full(7, high))

    @pytest.mark.parametrize("seed", [0, 7, 2**32 + 5, 2**130 + 9])
    def test_mixed_highs(self, seed):
        highs = [40, 1, 2**31 + 5, 3, 1, 2, 2**32 - 1, 40, 3, 1]
        assert_rep_integers_match([seed], 0, 600, highs)

    @pytest.mark.parametrize(
        "lo, hi",
        [
            (0, 0),
            (300, 300),
            # Five steps per lane: slices of chunk_rows(5) lanes.
            (chunk_rows(5) - 1, chunk_rows(5) + 1),
            (5, 3 * chunk_rows(5) + 7),
            (2**32 - 2, 2**32 + 3),
            (2**64 - 1, 2**64 + 2),
        ],
    )
    def test_ranges_across_chunk_and_spawn_key_boundaries(self, lo, hi):
        assert_rep_integers_match([11], lo, hi, [5, 1, 40, 2**31 + 5, 9])

    def test_scalar_high_with_size_is_the_same_draw(self):
        got = mc.rep_integers([7], 0, 50, np.full(8, 40))
        want = [mc.rep_rng(7, r).integers(40, size=8) for r in range(50)]
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", [0, 2**130 + 9])
    def test_blocked_shuffle_plan_highs(self, seed):
        labels = np.repeat(np.arange(1, 6), [10, 15, 2, 20, 7])
        y = np.random.default_rng(4).normal(size=labels.size)
        plan = shuffle_plan(table_from_arrays(labels, y, y), Blocked((4, 7, 1, 10, 6)))
        assert len(set(plan.highs.tolist())) > 10
        assert_rep_integers_match([seed], 0, 400, plan.highs)

    def test_rejected_words_are_redrawn_from_rep_rng(self, monkeypatch):
        highs = np.full(7, 2**31 + 5)
        want = reference_integers([3], 0, 40, highs)
        redrawn = counting_rep_rng(monkeypatch)
        assert np.array_equal(mc.rep_integers([3], 0, 40, highs), want)
        assert 0 < len(redrawn) <= 40

    @pytest.mark.parametrize("hi", [0, 3])
    def test_negative_seed_is_numpys_error(self, hi):
        with pytest.raises(ValueError) as numpy_error:
            mc.rep_rng(-1, 0)
        with pytest.raises(ValueError, match="expected non-negative integer") as error:
            mc.rep_integers([5, -1], 0, hi, [4])
        assert str(error.value) == str(numpy_error.value)

    def test_several_seeds_of_one_to_five_words(self):
        assert_rep_integers_match(MIXED_SEEDS, 0, 300, [5, 1, 40, 2**31 + 5, 9])

    def test_several_seeds_across_a_spawn_key_word(self):
        # Rep 2^32 takes a two-word spawn key, so each seed's lanes split there.
        assert_rep_integers_match(MIXED_SEEDS, 2**32 - 3, 2**32 + 4, [7, 40, 1, 3])

    def test_forced_lemire_rejections_of_several_seeds(self, monkeypatch):
        # A high of 3 * 2^30 rejects a quarter of the words.
        highs = np.full(6, 3 * 2**30)
        want = reference_integers(MIXED_SEEDS, 0, 30, highs)
        redrawn = counting_rep_rng(monkeypatch)
        assert np.array_equal(mc.rep_integers(MIXED_SEEDS, 0, 30, highs), want)
        assert {seed for seed, _ in redrawn} == set(MIXED_SEEDS)

    @pytest.mark.parametrize(
        "highs", [[4, 1, 1, 7, 40], [1, 9, 1, 1, 3], [2**31 + 5, 2, 40, 1, 1], [1, 1, 1, 1, 1]]
    )
    def test_shared_row_with_ones(self, highs):
        # A high of 1 takes no word, so later steps read earlier words; a row
        # of 1s draws none.
        assert_rep_integers_match(MIXED_SEEDS[:4], 0, 300, highs)

    @pytest.mark.parametrize("highs", [[[4, 7], [9, 3]], [[4, 7]], 5])
    def test_highs_other_than_one_row_are_refused(self, highs):
        with pytest.raises(ValueError, match="highs must be one row of bounds"):
            mc.rep_integers([5, 9], 0, 3, highs)

    def test_lane_slices_split_the_reps_of_a_seed(self):
        # Slices hold at most CHUNK_CELLS // steps = 4 lanes, so 3 seeds of 5
        # reps take 4 slices of 4, 4, 4 and 3 lanes, and each seed's reps are
        # split between two slices.
        highs = np.arange(CHUNK_CELLS // 4, 0, -1) + 1
        assert CHUNK_CELLS // len(highs) == 4
        assert_rep_integers_match([5, 2**70 + 3, 9], 10, 15, highs)


#: PCG64's 128-bit LCG multiplier (O'Neill 2014).
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
MASK64 = (1 << 64) - 1
MASK128 = (1 << 128) - 1


def reference_pcg64_words(state_hi, state_lo, seq_hi, seq_lo, outputs):
    """The first ``2 * outputs`` 32-bit words of ``PCG64`` seeded with
    ``initstate`` and stream ``seq`` (as 64-bit halves), in plain Python ints:
    seed with ``(inc + initstate) * MULT + inc``, step, then apply XSL-RR."""
    inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & MASK128
    state = ((inc + (state_hi << 64 | state_lo)) * PCG64_MULT + inc) & MASK128
    words = []
    for _ in range(outputs):
        state = (state * PCG64_MULT + inc) & MASK128
        xored, rot = (state >> 64 ^ state) & MASK64, state >> 122
        output = (xored >> rot | xored << (64 - rot)) & MASK64
        words += [output & 0xFFFFFFFF, output >> 32]
    return words


#: Every seed whose four 64-bit halves are each 0, 2^63 or 2^64 - 1, so that
#: every carry of the low-half products and of inc = 2 * seq + 1 runs.
EXTREME_SEEDS = np.array(
    list(itertools.product([0, 2**63, 2**64 - 1], repeat=4)), dtype=np.uint64
)


class TestPcg64Words:
    @pytest.mark.parametrize("outputs", [1, 4, 29, 200])
    def test_matches_python_int_arithmetic(self, outputs):
        got = mc._pcg64_words(EXTREME_SEEDS, outputs)
        assert got.dtype == np.uint64 and got.shape == (2 * outputs, len(EXTREME_SEEDS))
        for lane, seed in enumerate(EXTREME_SEEDS.tolist()):
            assert got[:, lane].tolist() == reference_pcg64_words(*seed, outputs), seed

    def test_reference_is_numpys_pcg64(self):
        for state_hi, state_lo, seq_hi, seq_lo in EXTREME_SEEDS[::7].tolist():
            bit_generator = np.random.PCG64(0)
            # numpy's own seeding, from the 128-bit initstate and stream.
            inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & MASK128
            initstate = state_hi << 64 | state_lo
            state = ((inc + initstate) * PCG64_MULT + inc) & MASK128
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            raw = bit_generator.random_raw(5).tolist()
            words = [w for output in raw for w in (output & 0xFFFFFFFF, output >> 32)]
            assert words == reference_pcg64_words(state_hi, state_lo, seq_hi, seq_lo, 5)


class TestWordIndex:
    """Every step reads the word numbered by the drawn steps before it, so a
    row with 1s draws the same values as the row without them."""

    HIGHS = [40, 3, 2**31 + 5, 7, 9]

    @pytest.mark.parametrize("lo, hi", [(0, 300), (chunk_rows(5) - 3, 2 * chunk_rows(5) + 4)])
    def test_trailing_ones(self, lo, hi):
        plain = mc.rep_integers([0, 2**70 + 3], lo, hi, self.HIGHS)
        padded = mc.rep_integers([0, 2**70 + 3], lo, hi, self.HIGHS + [1, 1, 1])
        assert np.array_equal(padded[:, :5], plain) and not padded[:, 5:].any()

    def test_ones_in_the_middle(self):
        seeds = [5, 12345, 2**130 + 9]
        row = [40, 1, 3, 2**31 + 5, 1, 7, 9]
        got = mc.rep_integers(seeds, 0, 200, row)
        assert np.array_equal(got, reference_integers(seeds, 0, 200, row))
        plain = mc.rep_integers(seeds, 0, 200, self.HIGHS)
        assert np.array_equal(got[:, [0, 2, 3, 5, 6]], plain) and not got[:, [1, 4]].any()


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
    table = table_from_arrays(labels, y, y + 1)
    report = var_diff_site_sampling(table, 3, 0.5, reps=chunk_rows(3) + 40, seed=4)
    return report.var_cr, report.var_bk, report.diff, report.mc_se


def _flexible_blocking():
    cfg = FlexBlockingConfig(n=32, block_size=4, interleave_blocks=5, noise_sigma=0.5)
    return study_flexible_blocking(cfg, seed=6, reps=chunk_rows(cfg.n) + 88)


def _replay_random_blocks():
    data = read_replay_csv(GOLDEN / "input_replay.csv")
    allocations = chunk_rows(data.n) + 40
    return run_replay(data, [Strategy("random-blocks", {"allocations": allocations})], seed=12)


@pytest.mark.parametrize(
    "caller, n", [(_flexible_blocking, 32), (_replay_random_blocks, 64)]
)
def test_callers_are_done_with_each_generator_before_the_next(monkeypatch, caller, n):
    got = caller()
    monkeypatch.setattr(mc, "rep_rngs", reference_rep_rngs)
    want = caller()
    spoiling = SpoilingRepRngs()
    monkeypatch.setattr(mc, "rep_rngs", spoiling)
    assert caller() == want == got
    # More than one batch of n-unit reps.
    assert spoiling.yielded > chunk_rows(n)


class ReferenceRepIntegers:
    """Stands in for ``mc.rep_integers`` with one ``mc.rep_rng`` per rep, the
    reference. Counts the reps it draws."""

    def __init__(self):
        self.reps = 0

    def __call__(self, seeds, lo, hi, highs):
        self.reps += len(seeds) * (hi - lo)
        return reference_integers(seeds, lo, hi, highs)


def test_site_sampling_matches_per_rep_generators(monkeypatch):
    got = _site_sampling()
    reference = ReferenceRepIntegers()
    monkeypatch.setattr(mc, "rep_integers", reference)
    assert _site_sampling() == got
    assert reference.reps > chunk_rows(3)


@pytest.mark.parametrize(
    "threads, items",
    [(1, 10), (4, 10), (64, 10), (64, 3), (10**9, 50), (0, 5), (-3, 5), (4, 0), (4, 1), (7, 50)],
)
def test_map_ordered_runs_every_item_in_order_in_this_process(no_process_pool, threads, items):
    # The worker count is passed positionally, as the benchmark's tracing
    # wrapper passes it, and changes nothing whatever its value.
    calls = []

    def record(item):
        calls.append((item, os.getpid()))
        return -item

    assert mc.map_ordered(record, range(items), threads) == [-i for i in range(items)]
    assert calls == [(i, os.getpid()) for i in range(items)]
