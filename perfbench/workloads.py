"""The three workloads: seeded inputs, the job list of one pass, and the
check each job's output must pass.

A workload's ``setup`` writes its inputs under a directory, parses them back
with blockcalc's readers (the warm-up), and returns a :class:`Plan`: the jobs
of one pass in order, and the exact work one pass does. Jobs call blockcalc
only through ``blockcalc.cli.main`` and module attributes looked up at call
time, so wrappers installed for a traced pass are the ones that run.

Sizes are fixed per workload and scaled so that one pass takes a few
seconds on a 2-core machine; the seed changes values and orderings only.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
import reference

#: cli_mc runs one of this many seeded variants (``seed % GOLDEN_VARIANTS``),
#: each with golden report rows recorded by ``record_golden.py``.
GOLDEN_VARIANTS = 16

#: Tolerance of the golden-row comparison (the repository's golden tolerance).
GOLDEN_RTOL = 1e-12

#: Tolerance of the oracle checks against closed forms.
ORACLE_RTOL = 1e-9

#: Tolerance of the large-table closed forms against the bincount reference.
CLOSED_FORM_RTOL = 1e-10

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_cli_mc.json"


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    report: Path | None = None  # the report CSV a CLI job writes


@dataclass
class Plan:
    jobs: list
    work: int  # work items per pass: draws, assignments or unit-jobs
    work_unit: str


def _close(got, want, rtol, scale=0.0) -> bool:
    return abs(got - want) <= rtol * max(abs(got), abs(want), scale)


def _compare(label, got, want, rtol, scale=0.0) -> list:
    if got is None or not _close(float(got), float(want), rtol, scale):
        return [f"{label}: got {got!r}, expected {want!r} (rtol {rtol})"]
    return []


def read_report(path: Path) -> tuple[list, list]:
    """Header and rows of a report CSV, skipping the leading comment line."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    return rows[0], rows[1:]


def _float(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _cli_job(bc, name: str, argv: list, out: Path, report: str, check_rows) -> Job:
    argv = argv + ["--threads", "1", "--out", str(out)]

    def check(code) -> list:
        if code != 0:
            return [f"{name}: exit code {code}"]
        try:
            header, rows = read_report(out / report)
        except (OSError, IndexError) as err:
            return [f"{name}: unreadable report: {err}"]
        return check_rows(header, rows)

    return Job(name, lambda: bc.cli.main(argv), check, out / report)


def _field(header, row, column) -> float | None:
    return _float(row[header.index(column)])


def _rng(seed: int, stream: int) -> np.random.Generator:
    """The generator of one workload's inputs; any integer seed is accepted."""
    return np.random.default_rng([seed % 2**32, stream])


# ---------------------------------------------------------------------------
# cli_mc: Monte Carlo on many small tables

FLEX_REPS = 64
MISC_REPS = 20
SITE_REPS = 150
SITE_SIZES = (4, 6, 8, 10, 12)  # 8 copies: 40 population blocks
TWO_STAGE_REPS = 5000
TWO_STAGE_STRATA = 8
REPLAY_ALLOCATIONS = 100
REPLAY_SIZES = (6, 8, 10, 12, 14)  # 4 copies: 200 units in 20 blocks


def golden_rows_check(golden, name):
    """Compare a report against its golden rows at :data:`GOLDEN_RTOL`.

    Numeric cells are compared with a tolerance scaled by the largest
    magnitude in their golden column, so cells that are zero up to rounding
    stay comparable after a change reorders float sums.
    """

    def check(header, rows) -> list:
        if golden is None:
            return []
        want = golden.get(name)
        if want is None:
            return [f"{name}: no golden rows"]
        if header != want["columns"] or len(rows) != len(want["rows"]):
            return [f"{name}: report shape differs from the golden rows"]
        scales = []
        for j in range(len(header)):
            numbers = [abs(v) for v in (_float(r[j]) for r in want["rows"]) if v is not None]
            scales.append(max(numbers, default=0.0))
        errors = []
        for i, (got_row, want_row) in enumerate(zip(rows, want["rows"])):
            for j, (got, ref) in enumerate(zip(got_row, want_row)):
                g, w = _float(got), _float(ref)
                if g is None or w is None:
                    ok = got == ref
                else:
                    ok = _close(g, w, GOLDEN_RTOL, scales[j])
                if not ok:
                    errors.append(f"{name}: row {i} {header[j]} = {got}, golden {ref}")
        return errors

    return check


def load_golden(variant: int):
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)["variants"][str(variant)]


def setup_cli_mc(bc, seed: int, root: Path, check_golden: bool = True) -> Plan:
    """cli_mc inputs and jobs; ``check_golden=False`` only when recording them."""
    variant = seed % GOLDEN_VARIANTS
    golden = load_golden(variant) if check_golden else None
    rng = _rng(variant, 1)
    root.mkdir(parents=True, exist_ok=True)
    site = inputs.blocked_table(rng, inputs.shuffled_sizes(rng, SITE_SIZES, 8))
    site_csv = inputs.write_table_csv(site, root / "site_blocks.csv")
    strata_csv = inputs.write_strata_csv(rng, TWO_STAGE_STRATA, root / "strata.csv")
    replay_csv = inputs.write_replay_csv(
        rng, inputs.shuffled_sizes(rng, REPLAY_SIZES, 4), root / "replay.csv"
    )
    bc.pop_model.read_table_csv(site_csv)
    bc.pop_model.read_strata_csv(strata_csv)
    bc.replay.read_replay_csv(replay_csv)

    flex = bc.studies.FlexBlockingConfig()
    misc = bc.studies.MisconceptionsConfig()
    random_blocks = sum(
        s.name == "random-blocks" for s in bc.replay.default_strategies(REPLAY_ALLOCATIONS)
    )
    work = (
        FLEX_REPS * len(flex.dgps)
        + MISC_REPS * len(misc.spread_scales) * len(misc.rhos) * 2
        + SITE_REPS
        + TWO_STAGE_REPS
        + REPLAY_ALLOCATIONS * random_blocks
    )

    def golden_check(name):
        return golden_rows_check(golden, name)

    def two_stage_check(header, rows):
        errors = golden_check("compare-two-stage")(header, rows)
        diff = _field(header, rows[0], "diff") if rows else None
        if diff is None or diff < 0:
            errors.append(f"compare-two-stage: diff {diff!r} is not >= 0")
        return errors

    seed_args = ["--seed", str(variant)]
    out = root / "out"
    jobs = [
        _cli_job(
            bc,
            "study-flexible-blocking",
            ["study", "flexible-blocking", "--reps", str(FLEX_REPS)] + seed_args,
            out / "flexible-blocking",
            "study_flexible_blocking.csv",
            golden_check("study-flexible-blocking"),
        ),
        _cli_job(
            bc,
            "study-misconceptions",
            ["study", "misconceptions", "--reps", str(MISC_REPS)] + seed_args,
            out / "misconceptions",
            "study_misconceptions.csv",
            golden_check("study-misconceptions"),
        ),
        _cli_job(
            bc,
            "study-ratio-sweep",
            ["study", "ratio-sweep"] + seed_args,
            out / "ratio-sweep",
            "study_ratio_sweep.csv",
            golden_check("study-ratio-sweep"),
        ),
        _cli_job(
            bc,
            "compare-site",
            ["compare", str(site_csv), "--framework", "site", "--k-draw", "8", "--p", "0.5",
             "--reps", str(SITE_REPS)] + seed_args,
            out / "site",
            "compare_report.csv",
            golden_check("compare-site"),
        ),
        _cli_job(
            bc,
            "compare-two-stage",
            ["compare", str(strata_csv), "--framework", "two-stage", "--k-draw", "8", "--p", "0.5",
             "--n-per-stratum", "4", "--reps", str(TWO_STAGE_REPS)] + seed_args,
            out / "two-stage",
            "compare_report.csv",
            two_stage_check,
        ),
        _cli_job(
            bc,
            "replay",
            ["replay", str(replay_csv), "--reps", str(REPLAY_ALLOCATIONS)] + seed_args,
            out / "replay",
            "replay_report.csv",
            golden_check("replay"),
        ),
    ]
    return Plan(jobs=jobs, work=work, work_unit="draws")


# ---------------------------------------------------------------------------
# exact_oracle: exhaustive enumeration, no random number generation


#: (job, design, block sizes, statistic). CR designs treat half the units,
#: blocked designs two units in every block. CR and blocked enumerations are
#: separate jobs because a batched kernel may help one and not the other.
ENUMERATIONS = (
    ("enumerate-cr-tau_hat", "cr", (18,), "tau_hat"),
    ("enumerate-blocked-tau_hat", "blocked", (5, 5, 5, 5), "tau_hat"),
    ("enumerate-cr-var_est_cr", "cr", (14,), "var_est_cr"),
    ("enumerate-blocked-var_est_blocked", "blocked", (4, 4, 4, 4), "var_est_blocked"),
)
#: ``variance --oracle`` enumerates both designs of this blocked table.
VARIANCE_ORACLE_SIZES = (4, 4, 4, 4)
#: (job, design, block sizes) for ``varest_variability`` in enumeration mode.
VAREST_VARIABILITY = (
    ("varest_variability-cr", "cr", (12,)),
    ("varest_variability-blocked", "blocked", (4, 4, 4)),
)


def _treated(design: str, sizes) -> list:
    return [2] * len(sizes) if design == "blocked" else [sum(sizes) // 2]


def _count(design: str, sizes) -> int:
    if design == "blocked":
        return reference.count_blocked(sizes, _treated(design, sizes))
    return reference.count_cr(sum(sizes), _treated(design, sizes)[0])


def _var_tau(st, design: str, sizes) -> float:
    if design == "blocked":
        return reference.neyman_blocked(st, _treated(design, sizes))
    return reference.neyman_cr(st, _treated(design, sizes)[0])


def _mean_varest(st, design: str, sizes) -> float:
    if design == "blocked":
        return reference.varest_blocked_mean(st, _treated(design, sizes))
    return reference.varest_cr_mean(st, _treated(design, sizes)[0])


def setup_exact_oracle(bc, seed: int, root: Path) -> Plan:
    rng = _rng(seed, 2)
    root.mkdir(parents=True, exist_ok=True)
    out = root / "out"
    jobs: list = []
    work = 0

    def write_inputs(name, design, sizes):
        table = inputs.blocked_table(rng, sizes)
        path = inputs.write_table_csv(table, root / f"{name}.csv")
        bc.pop_model.read_table_csv(path)
        if design == "cr":
            return table, path, f"cr:{_treated(design, sizes)[0]}"
        design_json = inputs.write_design_json(_treated(design, sizes), root / f"{name}.json")
        return table, path, f"blocked:{design_json}"

    for name, design, sizes, statistic in ENUMERATIONS:
        table, path, design_arg = write_inputs(name, design, sizes)
        st = reference.Stats(table)
        count = _count(design, sizes)
        work += count
        if statistic == "tau_hat":
            mean, variance = st.mean["tc"], _var_tau(st, design, sizes)
        else:
            mean, variance = _mean_varest(st, design, sizes), None
        jobs.append(_cli_job(
            bc, name, ["enumerate", str(path), "--design", design_arg, "--statistic", statistic],
            out / name, "enumerate_report.csv", _enumerate_check(name, count, mean, variance),
        ))

    table, path, design_arg = write_inputs("variance-oracle", "blocked", VARIANCE_ORACLE_SIZES)
    st = reference.Stats(table)
    work += _count("cr", VARIANCE_ORACLE_SIZES) + _count("blocked", VARIANCE_ORACLE_SIZES)
    jobs.append(_cli_job(
        bc, "variance-oracle", ["variance", str(path), "--design", design_arg, "--oracle"],
        out / "variance-oracle", "variance_report.csv",
        _variance_oracle_check(_var_tau(st, "cr", VARIANCE_ORACLE_SIZES),
                               _var_tau(st, "blocked", VARIANCE_ORACLE_SIZES)),
    ))

    for name, design, sizes in VAREST_VARIABILITY:
        table = inputs.blocked_table(rng, sizes)
        count = _count(design, sizes)
        work += count
        design_obj = (
            bc.pop_model.Blocked(tuple(_treated(design, sizes))) if design == "blocked"
            else bc.pop_model.CompleteRandomization(_treated(design, sizes)[0])
        )
        mean = _mean_varest(reference.Stats(table), design, sizes)
        jobs.append(_varest_job(bc, name, table, design_obj, count, mean))
    return Plan(jobs=jobs, work=work, work_unit="assignments")


def _enumerate_check(name, count, mean, variance):
    def check(header, rows) -> list:
        if not rows:
            return [f"{name}: empty report"]
        row = rows[0]
        errors = []
        if int(row[header.index("count")]) != count:
            errors.append(f"{name}: count {row[header.index('count')]} != {count}")
        errors += _compare(f"{name} mean", _field(header, row, "mean"), mean, ORACLE_RTOL)
        if variance is not None:
            errors += _compare(f"{name} variance", _field(header, row, "variance"), variance, ORACLE_RTOL)
        return errors

    return check


def _variance_oracle_check(var_cr, var_bk):
    def check(header, rows) -> list:
        if not rows:
            return ["variance-oracle: empty report"]
        row = rows[0]
        errors = []
        if row[header.index("oracle_match")] != "true":
            errors.append(f"variance-oracle: oracle_match={row[header.index('oracle_match')]}")
        for column, want in (
            ("var_cr", var_cr), ("oracle_var_cr", var_cr), ("var_bk", var_bk), ("oracle_var_bk", var_bk),
        ):
            errors += _compare(f"variance-oracle {column}", _field(header, row, column), want, ORACLE_RTOL)
        return errors

    return check


def _varest_job(bc, name, table, design, count, mean) -> Job:
    def run():
        built = bc.pop_model.table_from_arrays(table.labels, table.y_t, table.y_c)
        return bc.variance_estimation.varest_variability(built, design)

    def check(result) -> list:
        errors = []
        if result.method != "enumeration" or result.reps_used != count:
            errors.append(f"{name}: {result.method} over {result.reps_used}, expected enumeration over {count}")
        errors += _compare(f"{name} mean_varest", result.mean_varest, mean, ORACLE_RTOL)
        if not result.var_of_varest > 0:
            errors.append(f"{name}: var_of_varest {result.var_of_varest} is not positive")
        return errors

    return Job(name, run, check)


# ---------------------------------------------------------------------------
# large_table: one big table, closed forms only

LARGE_SIZES = (50, 100, 150)
LARGE_BLOCKS = 200  # about 67 blocks of each size, 20,000 units


def setup_large_table(bc, seed: int, root: Path) -> Plan:
    rng = _rng(seed, 3)
    root.mkdir(parents=True, exist_ok=True)
    copies = LARGE_BLOCKS // len(LARGE_SIZES)
    extra = [LARGE_SIZES[1]] * (LARGE_BLOCKS - copies * len(LARGE_SIZES))
    sizes = rng.permutation(np.asarray(list(LARGE_SIZES) * copies + extra))
    table = inputs.blocked_table(rng, sizes)
    path = inputs.write_table_csv(table, root / "large.csv")
    n_tk = [int(s) // 2 for s in sizes]
    design_json = inputs.write_design_json(n_tk, root / "large_design.json")
    bc.pop_model.read_table_csv(path)

    st = reference.Stats(table)
    n = st.n
    p = 0.5
    var_cr = reference.neyman_cr(st, n // 2)
    var_bk = reference.neyman_blocked(st, n_tk)
    between, within = reference.var_diff_terms(st, p)
    design = bc.pop_model.Blocked(tuple(n_tk))
    state: dict = {}

    def variance_check(header, rows):
        if not rows:
            return ["variance: empty report"]
        row = rows[0]
        errors = []
        if int(row[header.index("n")]) != n or int(row[header.index("n_t")]) != n // 2:
            errors.append("variance: wrong n or n_t")
        for column, want in (
            ("var_cr", var_cr), ("var_bk", var_bk), ("diff", between - within),
            ("ratio", var_bk / var_cr), ("between_term", between), ("within_term", within),
        ):
            errors += _compare(f"variance {column}", _field(header, row, column), want,
                               CLOSED_FORM_RTOL, scale=var_cr)
        return errors

    def read_job():
        state["table"] = bc.pop_model.read_table_csv(path)
        return state["table"]

    def read_check(table) -> list:
        if table.n != n or table.num_blocks != LARGE_BLOCKS:
            return ["read_table_csv: wrong shape"]
        return []

    bias = reference.cr_varest_bias(st, p)

    def bias_check(result) -> list:
        scale = max(var_bk, abs(bias))
        return (
            _compare("cr_varest_bias bias", result.bias, bias, CLOSED_FORM_RTOL, scale)
            + _compare("cr_varest_bias true_var_bk", result.true_var_bk, var_bk, CLOSED_FORM_RTOL)
            + _compare("cr_varest_bias expected_varest_cr", result.expected_varest_cr, var_bk + bias,
                       CLOSED_FORM_RTOL, scale)
        )

    def scalar_check(label, want):
        return lambda got: _compare(label, got, want, CLOSED_FORM_RTOL)

    def pooled_check(arm):
        want_within, want_between = reference.pooled_decomposition(st, arm)
        scale = st.s2[arm]
        return lambda got: (
            _compare(f"pooled {arm} within", got.within, want_within, CLOSED_FORM_RTOL, scale)
            + _compare(f"pooled {arm} between", got.between, want_between, CLOSED_FORM_RTOL, scale)
        )

    def pooled_job(arm):
        return Job(f"pooled_decomposition-{arm}",
                   lambda: bc.pop_model.pooled_decomposition(state["table"], arm), pooled_check(arm))

    jobs = [
        _cli_job(bc, "variance", ["variance", str(path), "--design", f"blocked:{design_json}"],
                 root / "out" / "variance", "variance_report.csv", variance_check),
        Job("read_table_csv", read_job, read_check),
        Job("cr_varest_bias_under_blocking",
            lambda: bc.variance_estimation.cr_varest_bias_under_blocking(state["table"], p), bias_check),
        Job("expected_s2-t",
            lambda: bc.variance_estimation.expected_s2_under_blocking(state["table"], "t", design),
            scalar_check("expected_s2 t", reference.expected_s2(st, "t", p))),
        Job("expected_s2-c",
            lambda: bc.variance_estimation.expected_s2_under_blocking(state["table"], "c", design),
            scalar_check("expected_s2 c", reference.expected_s2(st, "c", p))),
        pooled_job("t"),
        pooled_job("c"),
        pooled_job("tc"),
        Job("r2_blocks", lambda: bc.blocking_lab.r2_blocks(state["table"]),
            scalar_check("r2_blocks", reference.r2_blocks(st))),
    ]
    # Every job but the CSV read evaluates closed forms over all n units.
    return Plan(jobs=jobs, work=n * (len(jobs) - 1), work_unit="unit-jobs")


SETUPS = {
    "cli_mc": setup_cli_mc,
    "exact_oracle": setup_exact_oracle,
    "large_table": setup_large_table,
}
