import math

import numpy as np
import pytest

from blockcalc import mc
from blockcalc.blocking_lab import make_blocks_random
from blockcalc.oracle import chunk_rows
from blockcalc.pop_model import Blocked, table_from_arrays
from blockcalc.replay import (
    STRATEGY_NAMES,
    ReplayData,
    Strategy,
    apportion_counts,
    default_strategies,
    read_replay_csv,
    run_replay,
)
from blockcalc.variance_theory import neyman_var_blocked, neyman_var_cr


def make_data(blocks, z, baseline, y):
    n = len(blocks)
    return ReplayData(
        unit_ids=tuple(f"u{i}" for i in range(n)),
        blocks=tuple(blocks),
        z=tuple(z),
        baseline=np.asarray(baseline, dtype=float),
        y=np.asarray(y, dtype=float),
    )


@pytest.fixture
def realized_experiment():
    # Three blocks of 4 with uneven realized proportions; baseline is a
    # noisy version of the outcome.
    rng = np.random.default_rng(42)
    blocks = [1] * 4 + [2] * 4 + [3] * 4
    y = rng.standard_normal(12) + np.repeat([0.0, 1.0, 2.0], 4)
    baseline = y + 0.5 * rng.standard_normal(12)
    z = list("tccc" "ttcc" "tttc")
    return make_data(blocks, z, baseline, y)


class TestApportionCounts:
    def test_exact_split(self):
        assert apportion_counts(6, [4, 4, 4]) == [2, 2, 2]

    def test_largest_remainder(self):
        assert apportion_counts(5, [4, 4, 4]) == [2, 2, 1]

    def test_total_preserved_and_bounds_respected(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            k = int(rng.integers(1, 6))
            sizes = [int(rng.integers(2, 9)) for _ in range(k)]
            n = sum(sizes)
            n_t = int(rng.integers(k, n - k + 1))
            counts = apportion_counts(n_t, sizes)
            assert sum(counts) == n_t
            assert all(1 <= c <= s - 1 for c, s in zip(counts, sizes))

    def test_infeasible_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            apportion_counts(1, [2, 2])


class TestRunReplay:
    def test_keep_blocks_on_single_block_is_exactly_100(self):
        data = make_data([1] * 6, "ttcccc", np.arange(6.0), np.arange(6.0) ** 2)
        rows = run_replay(data, [Strategy("keep-blocks")])
        assert rows[0]["rel_se_pct"] == pytest.approx(100.0)

    def test_outcome_sorted_blocks_never_worse_than_cr(self, realized_experiment):
        rows = run_replay(realized_experiment, [Strategy("outcome-sorted-blocks")])
        assert rows[0]["rel_se_pct"] <= 100.0

    def test_outcome_sorted_beats_baseline_sorted_here(self, realized_experiment):
        rows = run_replay(
            realized_experiment,
            [Strategy("outcome-sorted-blocks"), Strategy("baseline-sorted-blocks")],
        )
        assert rows[0]["rel_se_pct"] <= rows[1]["rel_se_pct"]

    def test_random_blocks_reports_percentile(self, realized_experiment):
        rows = run_replay(
            realized_experiment,
            [Strategy("random-blocks", {"allocations": 200})],
            seed=7,
        )
        row = rows[0]
        assert row["allocations"] == 200
        assert row["rel_se_p99_pct"] >= row["rel_se_pct"]

    def test_random_blocks_deterministic_for_fixed_seed(self, realized_experiment):
        strategies = [Strategy("random-blocks", {"allocations": 100})]
        a = run_replay(realized_experiment, strategies, seed=3)
        b = run_replay(realized_experiment, strategies, seed=3)
        assert a == b

    def test_balance_proportions_uses_apportionment(self, realized_experiment):
        rows = run_replay(realized_experiment, [Strategy("balance-proportions")])
        assert rows[0]["balanced"] is True

    def test_default_strategy_set_runs(self, realized_experiment):
        rows = run_replay(realized_experiment, default_strategies(allocations=50), seed=1)
        assert [r["strategy"] for r in rows] == [
            "keep-blocks",
            "balance-proportions",
            "random-blocks",
            "random-blocks",
            "baseline-sorted-blocks",
            "outcome-sorted-blocks",
        ]

    def test_unknown_strategy_rejected(self, realized_experiment):
        with pytest.raises(ValueError, match="unknown strategy"):
            run_replay(realized_experiment, [Strategy("sort-by-vibes")])


class TestReplayCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "replay.csv"
        path.write_text(
            "unit_id,block,z,baseline,y\n"
            "a,east,t,1.0,2.0\n"
            "b,east,c,0.5,1.0\n"
            "c,west,t,2.0,4.0\n"
            "d,west,c,1.5,3.0\n"
        )
        data = read_replay_csv(path)
        assert data.blocks.tolist() == [1, 1, 2, 2]
        assert data.realized_treated() == [1, 1]

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "replay.csv"
        path.write_text("unit_id,block,z,y\na,1,t,1.0\n")
        with pytest.raises(ValueError, match="missing columns"):
            read_replay_csv(path)


# ---------------------------------------------------------------------------
# The label-matrix scoring against a table per blocking


def reference_rel_se_pct(data, labels, counts_by_label, var_cr):
    """One blocking scored through its own table: labels canonicalized, the
    counts remapped to the canonical labels, then ``neyman_var_blocked``."""
    table = table_from_arrays(labels, data.y, data.y, unit_ids=data.unit_ids)
    remap = {}
    for old, new in zip(labels, table.blocks):
        remap.setdefault(int(old), new)
    counts = [0] * len(counts_by_label)
    for old, count in enumerate(counts_by_label, start=1):
        counts[remap[old] - 1] = count
    return 100.0 * math.sqrt(neyman_var_blocked(table, Blocked(tuple(counts))) / var_cr)


def reference_sorted_labels(values, sizes):
    order = np.argsort(values, kind="stable")
    labels = [0] * len(values)
    pos = 0
    for k, size in enumerate(sizes, start=1):
        for unit in order[pos : pos + size]:
            labels[unit] = k
        pos += size
    return labels


def reference_replay_row(data, strategy, seed):
    """``(rel_se_pct, rel_se_p99_pct)`` of a strategy, one table per blocking."""
    sizes, realized = data.realized_sizes(), data.realized_treated()
    n_t = sum(realized)
    var_cr = neyman_var_cr(table_from_arrays(data.blocks, data.y, data.y), n_t)
    counts = realized
    if strategy.params.get("balanced") or strategy.name == "balance-proportions":
        counts = apportion_counts(n_t, sizes)
    if strategy.name == "random-blocks":
        ratios = [
            reference_rel_se_pct(
                data, make_blocks_random(data.n, sizes, mc.rep_rng(seed, a)), counts, var_cr
            )
            for a in range(strategy.params["allocations"])
        ]
        return float(np.mean(ratios)), float(np.quantile(ratios, 0.99))
    if strategy.name == "baseline-sorted-blocks":
        labels = reference_sorted_labels(data.baseline, sizes)
    elif strategy.name == "outcome-sorted-blocks":
        labels = reference_sorted_labels(data.y, sizes)
    else:
        labels = data.blocks
    return reference_rel_se_pct(data, labels, counts, var_cr), None


def unequal_blocks_experiment(seed):
    """100 units in six blocks of unequal sizes, rows shuffled, uneven treated counts."""
    rng = np.random.default_rng(seed)
    raw = rng.permutation(np.repeat(np.arange(6), [9, 23, 14, 31, 6, 17]))
    blocks = np.asarray(table_from_arrays(raw, raw, raw).blocks)
    z = np.full(len(raw), "c")
    for k in range(1, 7):
        units = rng.permutation(np.flatnonzero(blocks == k))
        z[units[: rng.integers(1, len(units))]] = "t"
    y = rng.standard_normal(len(raw)) + 0.3 * blocks
    baseline = y + rng.standard_normal(len(raw))
    return make_data(blocks.tolist(), z.tolist(), baseline, y)


class TestMatchesTablePerBlocking:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("index", range(6))
    def test_every_strategy_matches_reference(self, seed, index):
        data = unequal_blocks_experiment(seed)
        # More allocations than one chunk, with a partial last chunk.
        allocations = 2 * chunk_rows(data.n) + 74
        strategy = default_strategies(allocations)[index]
        row = run_replay(data, [strategy], seed=seed)[0]
        rel, p99 = reference_replay_row(data, strategy, seed)
        assert row["rel_se_pct"] == pytest.approx(rel, rel=1e-12, abs=0)
        if p99 is None:
            assert row["rel_se_p99_pct"] is None
        else:
            assert row["rel_se_p99_pct"] == pytest.approx(p99, rel=1e-12, abs=0)

    def test_infeasible_counts_rejected(self):
        data = make_data([1, 1, 2, 2], "ttct", np.arange(4.0), np.arange(4.0) ** 2)
        for name in STRATEGY_NAMES:
            if name != "balance-proportions":
                with pytest.raises(ValueError, match=r"n_tk=2 out of range for block 1 \(size 2\)"):
                    run_replay(data, [Strategy(name, {"allocations": 3})])
