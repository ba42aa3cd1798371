"""Every variance quantity is unchanged when both outcomes move by 1e8.

Outcomes are multiples of 1/1024 below 16 in magnitude, so adding the
offset is exact and any difference between the two runs comes from the
library's own arithmetic. A sum-of-squares formula (``sum x^2 - n mean^2``) or block means
differenced after the offset is added loses about eight digits here.

The closed forms, the point and variance estimators, the enumeration oracle
and the estimator-variability study are also checked under scaling: a
quantity of degree ``d`` in the outcomes (0 for a ratio, 1 for ``tau_hat``
and its mean, 2 for a variance, 4 for the variance of a variance estimate)
scales by ``s**d``.
"""

import json

import numpy as np
import pytest

from blockcalc import mc, variance_estimation
from blockcalc.blocking_lab import r2_blocks, within_variance_ratio
from blockcalc.cli import main
from blockcalc.oracle import exact_moments
from blockcalc.pop_model import (
    CompleteRandomization,
    StrataMoments,
    blocked_design_for_proportion,
    centered_moments,
    pooled_decomposition,
    summarize,
    table_from_arrays,
    write_table_csv,
)
from blockcalc.randomizer import assign_blocked, assign_cr, tau_hat
from blockcalc.variance_estimation import (
    ObservedSample,
    cr_varest_bias,
    cr_varest_bias_under_blocking,
    expected_s2_under_blocking,
    var_est_blocked,
    var_est_cr,
    varest_variability,
)
from blockcalc.variance_theory import (
    block_estimator_variances,
    neyman_var_blocked,
    neyman_var_cr,
    var_diff_finite,
    var_diff_site_sampling,
    var_diff_two_stage,
)

OFFSET = 1e8
RTOL = 1e-12
P = 0.5

#: (offset, scale) pairs every invariance test moves the outcomes by.
MOVES = [(OFFSET, 1.0), (0.0, 1e-6), (0.0, 1e6)]


def dyadic_table(offset=0.0, seed=3, sizes=tuple(np.repeat([4, 6, 8, 10], 5)), scale=1.0):
    """Blocks of the given sizes (by default 20 of sizes 4/6/8/10) in
    shuffled row order, dyadic outcomes times ``scale`` plus ``offset``."""
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.repeat(np.arange(1, len(sizes) + 1), sizes))
    block_c = rng.integers(-2048, 2048, size=len(sizes))[labels - 1]
    block_tau = rng.integers(-1024, 1024, size=len(sizes))[labels - 1]
    y_c = (block_c + rng.integers(-4096, 4096, size=len(labels))) / 1024
    y_t = y_c + (block_tau + rng.integers(-2048, 2048, size=len(labels))) / 1024
    return table_from_arrays(labels, scale * y_t + offset, scale * y_c + offset)


def quantities(table) -> dict:
    design = blocked_design_for_proportion(table, P)
    out = {
        "neyman_var_cr": neyman_var_cr(table, design.n_t),
        "neyman_var_blocked": neyman_var_blocked(table, design),
        "r2_blocks": r2_blocks(table),
        "within_variance_ratio": within_variance_ratio(table.y_c, table.blocks),
    }
    for k, value in enumerate(block_estimator_variances(table, design)):
        out[f"block_variance_{k}"] = value
    report = var_diff_finite(table, P)
    out.update(
        var_cr=report.var_cr,
        var_bk=report.var_bk,
        diff=report.diff,
        **report.decomposition,
    )
    misuse = cr_varest_bias_under_blocking(table, P)
    out.update(
        expected_varest_cr=misuse.expected_varest_cr,
        true_var_bk=misuse.true_var_bk,
        bias=misuse.bias,
    )
    for arm in ("t", "c"):
        out[f"expected_s2_{arm}"] = expected_s2_under_blocking(table, arm, design)
    for arm in ("t", "c", "tc"):
        within, between = pooled_decomposition(table, arm)
        out[f"pooled_within_{arm}"] = within
        out[f"pooled_between_{arm}"] = between
    summary = summarize(table)
    for k, blk in enumerate(summary.per_block + (summary.pooled,)):
        for field in ("tau", "s2_t", "s2_c", "s2_tc"):
            out[f"summary_{k}_{field}"] = getattr(blk, field)
    return out


def degree(name: str) -> int:
    """Degree in the outcomes of a closed-form quantity named by :func:`quantities`."""
    if name in ("r2_blocks", "within_variance_ratio"):
        return 0
    return 1 if name.endswith("_tau") else 2


def assert_moved(base: dict, moved: dict, scale: float):
    """Every ``(value, degree)`` of ``moved`` is its base value times ``scale**degree``."""
    assert base.keys() == moved.keys()
    bad = {
        name: (value, moved[name][0])
        for name, (value, d) in base.items()
        if moved[name][0] != pytest.approx(value * scale**d, rel=RTOL, abs=0)
    }
    assert not bad


@pytest.mark.parametrize("offset, scale", MOVES)
def test_offset_changes_no_quantity(offset, scale):
    def graded(table):
        return {name: (value, degree(name)) for name, value in quantities(table).items()}

    assert_moved(graded(dyadic_table()), graded(dyadic_table(offset, scale=scale)), scale)


@pytest.mark.parametrize("offset", [0.0, OFFSET])
def test_batched_cr_varest_bias_matches_the_table_function(offset):
    # Six tables stacked into one batch with one labelling per row; each
    # table's blocks are renumbered by size, so every row has blocks n_k.
    tables = [dyadic_table(offset, seed=seed) for seed in range(6)]
    rank = [np.argsort(np.argsort(table.block_sizes, kind="stable")) for table in tables]
    labels = np.stack([r[table.labels] for r, table in zip(rank, tables)])
    n_k = np.sort(tables[0].block_sizes)
    arms = np.stack([(tb.y_t, tb.y_c, tb.y_t - tb.y_c) for tb in tables], axis=1)
    t, c, tc = (centered_moments(y, labels, n_k) for y in arms)
    s2 = [arm.ss / (n_k - 1) for arm in (t, c, tc)]
    got = cr_varest_bias(n_k, n_k // 2, t, c, *s2)
    want = [cr_varest_bias_under_blocking(dyadic_table(seed=seed), P).bias for seed in range(6)]
    assert got.tolist() == pytest.approx(want, rel=RTOL, abs=0)


def estimates(table) -> dict:
    """(value, degree) of ``tau_hat`` and both variance estimators on seeded draws."""
    blocked = blocked_design_for_proportion(table, P)
    cr = CompleteRandomization(blocked.n_t)
    out = {}
    for r in range(10):
        for name, design, mask in (
            ("cr", cr, assign_cr(table.n, cr.n_t, mc.rep_rng(17, r))),
            ("bk", blocked, assign_blocked(table, blocked, mc.rep_rng(17, r))),
        ):
            sample = ObservedSample.from_schedule(table, mask)
            out[f"{name}_{r}_tau_hat"] = (tau_hat(table, mask, design), 1)
            out[f"{name}_{r}_var_est_cr"] = (var_est_cr(sample), 2)
            if name == "bk":
                out[f"{name}_{r}_var_est_blocked"] = (var_est_blocked(sample), 2)
    return out


@pytest.mark.parametrize("offset, scale", MOVES)
def test_estimators_are_shift_and_scale_invariant(offset, scale):
    assert_moved(estimates(dyadic_table()), estimates(dyadic_table(offset, scale=scale)), scale)


def test_variance_command_accepts_offset_outcomes(tmp_path):
    rows = {}
    for label, offset in (("base", 0.0), ("shifted", OFFSET)):
        table = dyadic_table(offset)
        write_table_csv(table, tmp_path / f"{label}.csv")
        design = tmp_path / "design.json"
        n_tk = blocked_design_for_proportion(table, P).n_tk
        design.write_text(json.dumps({"n_tk": list(n_tk)}))
        out = tmp_path / label
        argv = ["variance", str(tmp_path / f"{label}.csv"), "--design", f"blocked:{design}",
                "--out", str(out), "--no-header-comment"]
        assert main(argv) == 0
        header, values = (out / "variance_report.csv").read_text().splitlines()
        rows[label] = dict(zip(header.split(","), values.split(",")))
    for column in ("var_cr", "var_bk", "diff", "ratio", "between_term", "within_term"):
        base, shifted = float(rows["base"][column]), float(rows["shifted"][column])
        assert shifted == pytest.approx(base, rel=RTOL, abs=0), column


#: Small enough to enumerate: 3432 CR and 720 blocked assignments.
ORACLE_SIZES = (4, 4, 6)


def oracle_quantities(table) -> dict:
    """(value, degree in the outcomes) of every oracle and estimator-variability result."""
    blocked = blocked_design_for_proportion(table, P)
    designs = {"cr": CompleteRandomization(blocked.n_t), "bk": blocked}
    out = {}
    for name, design in designs.items():
        statistics = ["tau_hat", "var_est_cr"] + (["var_est_blocked"] if name == "bk" else [])
        for statistic in statistics:
            moments = exact_moments(table, design, statistic)
            degree = 1 if statistic == "tau_hat" else 2
            out[f"{name}_{statistic}_mean"] = (moments.mean, degree)
            out[f"{name}_{statistic}_variance"] = (moments.variance, 2 * degree)
        for mode, limit in (("enumeration", 10**6), ("monte_carlo", 0)):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(variance_estimation, "EXACT_ENUMERATION_LIMIT", limit)
                result = varest_variability(table, design, reps=300, seed=11)
            assert result.method == mode
            out[f"{name}_{mode}_mean_varest"] = (result.mean_varest, 2)
            out[f"{name}_{mode}_var_of_varest"] = (result.var_of_varest, 4)
    return out


@pytest.mark.parametrize("offset, scale", MOVES)
def test_oracle_is_shift_and_scale_invariant(offset, scale):
    base = oracle_quantities(dyadic_table(seed=5, sizes=ORACLE_SIZES))
    moved = oracle_quantities(dyadic_table(offset, seed=5, sizes=ORACLE_SIZES, scale=scale))
    assert_moved(base, moved, scale)


def report_fields(report) -> dict:
    return {name: getattr(report, name) for name in ("var_cr", "var_bk", "diff", "mc_se")}


def assert_fields_close(base, moved):
    bad = {
        name: (base[name], moved[name])
        for name in base
        if moved[name] != pytest.approx(base[name], rel=RTOL, abs=0)
    }
    assert not bad


@pytest.mark.parametrize("k_draw, p", [(5, 0.5), (3, 0.5), (1, 0.5)])
def test_site_sampling_is_shift_invariant(k_draw, p):
    def report(offset):
        return var_diff_site_sampling(dyadic_table(offset), k_draw, p, reps=300, seed=13)

    assert_fields_close(report_fields(report(0.0)), report_fields(report(OFFSET)))


@pytest.mark.parametrize("k_draw, p", [(3, 0.5), (4, 0.25), (1, 0.5)])
def test_two_stage_is_shift_invariant(k_draw, p):
    rng = np.random.default_rng(29)
    sizes = (4, 8, 12, 8, 4, 16)
    mu_t, mu_c = (rng.integers(-4096, 4096, size=len(sizes)) / 1024 for _ in range(2))
    sigma2 = rng.integers(1, 4096, size=(len(sizes), 2)) / 1024

    def report(offset):
        moments = StrataMoments(
            weights=np.full(len(sizes), 1 / len(sizes)),
            mu_t=mu_t + offset,
            mu_c=mu_c + offset,
            sigma2_t=sigma2[:, 0],
            sigma2_c=sigma2[:, 1],
            sigma2_tc=np.zeros(len(sizes)),
        )
        return var_diff_two_stage(moments, sizes, k_draw, p, reps=300, seed=31)

    assert_fields_close(report_fields(report(0.0)), report_fields(report(OFFSET)))
