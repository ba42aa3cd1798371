"""A census of every report column: which check stands behind each one.

:data:`CENSUS` maps each report (one per command, one per
``compare --framework`` and per study) to its columns, and each column to
the kind of check it has and the tests that make that check. Headers come
from the committed golden reports where they exist; the other reports are
run on golden inputs by the commands that cost little (``variance
--oracle`` and ``enumerate`` on the first two blocks of the golden site
table, ``compare --framework strat|unequal|mixed`` on the golden strata).

A column a report gains, loses or renames, and a named test that no longer
exists, fails :func:`test_every_report_column_has_a_check`.
"""

from __future__ import annotations

import argparse
import ast
import csv
import json
from pathlib import Path

import pytest

from blockcalc.cli import FRAMEWORK_NEEDS, build_parser, main
from blockcalc.studies import STUDIES
from blockcalc.variance_theory import MODE_CR_SRS_VS_BK_STRAT

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"

# The kinds of check.
ORACLE = "the oracle itself: exhaustive enumeration of the assignments"
VS_ORACLE = "a closed form checked against the oracle"
EXACT = "an exact expectation checked by enumeration"
MC_SE = "a Monte Carlo mean within a few standard errors of an exact expectation"
STATISTIC = "an exact statistic of one population, checked against a reference or a band"
WORKED = "a superpopulation closed form checked against hand-worked values (no oracle yet)"
SIMULATED = "simulated, with no exact check yet"
LABEL = "a label or an echo of the run's settings"
EMPTY = "always empty in this report"

# The tests each entry names, as "<file under tests/>::<name>".
CENSUS_TEST = "test_column_census.py::test_cheap_reports_echo_and_derive"
GOLDEN_TEST = "test_golden.py::test_report_matches_golden"
ORACLE_TESTS = (
    "test_oracle.py::TestBatchKernel::test_matches_per_mask_reference",
    "test_oracle.py::TestMomentsAddOverGroups::test_matches_the_mask_kernel",
)
NEYMAN_VS_ORACLE = (
    "test_variance_theory.py::TestOracleEquivalence::test_closed_forms_match_enumeration",
    "test_acceptance.py::test_criterion_01_oracle_equivalence",
)
DECOMPOSITION = (
    "test_acceptance.py::test_criterion_02_finite_difference_identity",
    "test_variance_theory.py::TestVarDiffFinite::test_mirrored_blocks_decomposition",
)
STRAT_WORKED = "test_variance_theory.py::TestVarDiffStrat::test_worked_two_stratum_example"
UNEQUAL_REDUCES = (
    "test_variance_theory.py::TestVarDiffStratUnequal::test_reduces_to_equal_proportions_exactly"
)
RATIO_SWEEP_ROWS = "test_studies.py::test_ratio_sweep_rows_match_per_point_reference"
MISCONCEPTIONS_ROWS = "test_studies.py::test_misconceptions_rows_match_per_point_reference"
FLEX_CHUNKS = "test_studies.py::test_study_reduces_chunks_in_order"
R2_REFERENCE = "test_blocking_lab.py::TestR2Blocks::test_matches_stacked_vector_reference"
REPLAY_ROWS = "test_replay.py::TestMatchesTablePerBlocking::test_every_strategy_matches_reference"
NOT_MONTE_CARLO = {"mc_se": (EMPTY, CENSUS_TEST), "reps": (EMPTY, CENSUS_TEST)}


def sampling_framework(name, batched):
    """The columns of ``compare --framework site|two-stage``: only ``diff``
    has an exact expectation to be checked against (ROADMAP item 6)."""
    per_rep = f"test_variance_theory.py::{batched}::test_per_rep_values_match_reference"
    mean = (
        "test_variance_theory.py::TestExactSamplingFrameworks::"
        f"test_{name.replace('-', '_')}_monte_carlo_mean_within_four_se"
    )
    return {
        "framework": (LABEL, GOLDEN_TEST),
        "mode": (EMPTY, GOLDEN_TEST),
        "var_cr": (SIMULATED, per_rep, GOLDEN_TEST),
        "var_bk": (SIMULATED, per_rep, GOLDEN_TEST),
        "diff": (MC_SE, mean),
        "ratio": (SIMULATED, GOLDEN_TEST),
        "between_term": (EMPTY, GOLDEN_TEST),
        "unequal_p_term": (EMPTY, GOLDEN_TEST),
        "mc_se": (MC_SE, mean),
        "reps": (LABEL, GOLDEN_TEST),
    }


#: report -> column -> (kind of check, test, ...)
CENSUS = {
    "variance": {
        "framework": (LABEL, CENSUS_TEST),
        "n": (LABEL, CENSUS_TEST),
        "n_t": (LABEL, CENSUS_TEST),
        "var_cr": (VS_ORACLE, *NEYMAN_VS_ORACLE),
        "var_bk": (VS_ORACLE, *NEYMAN_VS_ORACLE),
        "diff": (
            VS_ORACLE, CENSUS_TEST, "test_cli.py::TestVarianceCommand::test_blocked_with_oracle"
        ),
        "ratio": (VS_ORACLE, CENSUS_TEST),
        "between_term": (VS_ORACLE, *DECOMPOSITION),
        "within_term": (VS_ORACLE, *DECOMPOSITION),
        "oracle_var_cr": (ORACLE, *ORACLE_TESTS),
        "oracle_var_bk": (ORACLE, *ORACLE_TESTS),
        "oracle_match": (
            ORACLE,
            CENSUS_TEST,
            "test_cli.py::TestVarianceCommand::test_oracle_mismatch_caught_at_small_outcome_scale",
        ),
    },
    "enumerate": {
        "design": (LABEL, CENSUS_TEST),
        "statistic": (LABEL, CENSUS_TEST),
        "count": (
            ORACLE, "test_oracle.py::TestCounts::test_enumeration_visits_each_assignment_once"
        ),
        "mean": (ORACLE, "test_oracle.py::TestExactMoments::test_two_unit_cr", *ORACLE_TESTS),
        "variance": (ORACLE, "test_oracle.py::TestExactMoments::test_two_unit_cr", *ORACLE_TESTS),
    },
    "compare --framework strat": {
        "framework": (LABEL, CENSUS_TEST),
        "mode": (EMPTY, CENSUS_TEST),
        "var_cr": (WORKED, CENSUS_TEST, STRAT_WORKED),
        "var_bk": (WORKED, "test_variance_theory.py::TestVarBlockedStrat::test_arithmetic"),
        "diff": (WORKED, STRAT_WORKED),
        "ratio": (WORKED, CENSUS_TEST),
        "between_term": (WORKED, CENSUS_TEST, STRAT_WORKED),
        "unequal_p_term": (EMPTY, CENSUS_TEST),
        **NOT_MONTE_CARLO,
    },
    "compare --framework unequal": {
        "framework": (LABEL, CENSUS_TEST),
        "mode": (EMPTY, CENSUS_TEST),
        "var_cr": (WORKED, CENSUS_TEST, UNEQUAL_REDUCES),
        "var_bk": (WORKED, UNEQUAL_REDUCES),
        "diff": (
            WORKED, "test_variance_theory.py::TestVarDiffStratUnequal::test_worked_negative_example"
        ),
        "ratio": (WORKED, CENSUS_TEST),
        "between_term": (WORKED, CENSUS_TEST, UNEQUAL_REDUCES),
        "unequal_p_term": (
            WORKED,
            CENSUS_TEST,
            "test_acceptance.py::test_criterion_03_stratified_sign_and_reduction",
        ),
        **NOT_MONTE_CARLO,
    },
    "compare --framework mixed": {
        "framework": (LABEL, CENSUS_TEST),
        "mode": (LABEL, CENSUS_TEST),
        "var_cr": (WORKED, "test_variance_theory.py::TestVarCrSrs::test_mixture_built_pooled"),
        "var_bk": (WORKED, CENSUS_TEST),
        "diff": (
            WORKED, "test_variance_theory.py::TestVarDiffMixed::test_srs_vs_blocked_worked_example"
        ),
        "ratio": (WORKED, CENSUS_TEST),
        "between_term": (EMPTY, CENSUS_TEST),
        "unequal_p_term": (EMPTY, CENSUS_TEST),
        **NOT_MONTE_CARLO,
    },
    "compare --framework site": sampling_framework("site", "TestBatchedSiteSampling"),
    "compare --framework two-stage": sampling_framework("two-stage", "TestBatchedTwoStage"),
    "study ratio-sweep": {
        "spread_scale": (LABEL, GOLDEN_TEST),
        "rho": (LABEL, GOLDEN_TEST),
        "r2": (STATISTIC, RATIO_SWEEP_ROWS, R2_REFERENCE),
        **dict.fromkeys(
            ["var_cr", "var_bk_equal_p", "var_bk_unequal_p", "ratio_equal_p", "ratio_unequal_p"],
            (VS_ORACLE, RATIO_SWEEP_ROWS, *NEYMAN_VS_ORACLE),
        ),
    },
    "study misconceptions": {
        "spread_scale": (LABEL, GOLDEN_TEST),
        "rho": (LABEL, GOLDEN_TEST),
        "r2": (STATISTIC, MISCONCEPTIONS_ROWS, R2_REFERENCE),
        "var_bk": (VS_ORACLE, MISCONCEPTIONS_ROWS, *NEYMAN_VS_ORACLE),
        "expected_varest_cr_over_var_bk": (
            EXACT,
            MISCONCEPTIONS_ROWS,
            "test_variance_estimation.py::TestCrVarestBiasAtStudySize::"
            "test_closed_form_matches_enumeration_of_every_block",
        ),
        "expected_varest_bk_over_var_bk": (
            EXACT,
            MISCONCEPTIONS_ROWS,
            "test_variance_estimation.py::TestConservatism::"
            "test_blocked_estimator_never_anti_conservative",
        ),
        # ROADMAP item 4 makes these three exact.
        **dict.fromkeys(
            ["var_varest_cr", "var_varest_bk", "var_varest_cr_over_bk"],
            (SIMULATED, MISCONCEPTIONS_ROWS),
        ),
        "reps": (LABEL, GOLDEN_TEST),
    },
    "study flexible-blocking": {
        "method": (LABEL, GOLDEN_TEST),
        "dgp": (LABEL, GOLDEN_TEST),
        # ROADMAP item 5 makes both simulated columns exact.
        "rel_se_pct": (SIMULATED, FLEX_CHUNKS),
        "x_within_over_total_pct": (
            STATISTIC,
            "test_studies.py::test_x_within_over_total_is_exact_at_the_default_config",
            "test_acceptance.py::test_criterion_10_blocking_method_bands",
        ),
        "y_within_over_total_pct": (SIMULATED, FLEX_CHUNKS),
        "reps": (LABEL, FLEX_CHUNKS),
    },
    "replay": {
        "strategy": (LABEL, GOLDEN_TEST),
        "balanced": (LABEL, GOLDEN_TEST),
        # Exact for the fixed blockings; the random-blocks rows are a
        # simulated mean whose square has an exact mean (ROADMAP item 13).
        "rel_se_pct": (
            SIMULATED, REPLAY_ROWS, "test_replay.py::test_random_blocks_mean_squared_ratio_is_exact"
        ),
        "rel_se_p99_pct": (SIMULATED, REPLAY_ROWS),
        "allocations": (LABEL, GOLDEN_TEST),
    },
}

GOLDEN_REPORTS = {
    "compare --framework site": "compare_site.csv",
    "compare --framework two-stage": "compare_two_stage.csv",
    "study ratio-sweep": "study_ratio_sweep.csv",
    "study misconceptions": "study_misconceptions.csv",
    "study flexible-blocking": "study_flexible_blocking.csv",
    "replay": "replay.csv",
}

#: The other reports: the command line run on golden inputs, as a format
#: string over the inputs directory, and the report it writes.
CHEAP_RUNS = {
    "variance": ("variance {table} --design blocked:{design} --oracle", "variance_report.csv"),
    "enumerate": ("enumerate {table} --design cr:5 --statistic tau_hat", "enumerate_report.csv"),
    "compare --framework strat": (
        "compare {strata} --framework strat --n 24 --p 0.5", "compare_report.csv"
    ),
    "compare --framework unequal": (
        "compare {strata} --framework unequal --n 24 --p-k 0.25,0.75,0.25,0.75,0.25,0.75",
        "compare_report.csv",
    ),
    "compare --framework mixed": (
        "compare {strata} --framework mixed --n-t 12 --n-c 12 --mode srs-vs-blocked",
        "compare_report.csv",
    ),
}


@pytest.fixture(scope="module")
def cheap_reports(tmp_path_factory):
    """The one row of each cheap report, as text."""
    inputs = tmp_path_factory.mktemp("inputs")
    # The first two blocks of the golden site table, 4 and 6 units, half of
    # each treated: the oracle enumerates 252 CR and 120 blocked assignments.
    with open(GOLDEN / "input_site_blocks.csv", newline="", encoding="utf-8") as fh:
        lines = [line for line in fh if line.split(",")[1] in ("block", "b1", "b2")]
    (inputs / "table.csv").write_text("".join(lines), encoding="utf-8")
    (inputs / "design.json").write_text(json.dumps({"n_tk": [2, 3]}))
    paths = {"table": inputs / "table.csv", "design": inputs / "design.json",
             "strata": GOLDEN / "input_strata.csv"}
    rows = {}
    for report, (command, written) in CHEAP_RUNS.items():
        out = tmp_path_factory.mktemp("report")
        argv = command.format(**paths).split() + ["--no-header-comment", "--out", str(out)]
        assert main(argv) == 0, argv
        with open(out / written, newline="", encoding="utf-8") as fh:
            (rows[report],) = csv.DictReader(fh)
    return rows


def golden_header(name):
    with open(GOLDEN / name, newline="", encoding="utf-8") as fh:
        return next(csv.reader(fh))


def defined_tests(path):
    """The ``Class::test`` and ``test`` names defined in a test file."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names.update(f"{node.name}::{item.name}" for item in node.body
                         if isinstance(item, ast.FunctionDef))
    return names


def test_every_report_column_has_a_check(cheap_reports):
    (actions,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    variants = {"compare": [f"--framework {name}" for name in FRAMEWORK_NEEDS], "study": STUDIES}
    commands = {f"{command} {variant}".strip()
                for command in actions.choices for variant in variants.get(command, [""])}
    assert set(CENSUS) == commands == set(GOLDEN_REPORTS) | set(CHEAP_RUNS)
    for report, columns in CENSUS.items():
        header = (golden_header(GOLDEN_REPORTS[report]) if report in GOLDEN_REPORTS
                  else list(cheap_reports[report]))
        assert list(columns) == header, report
    kinds = {ORACLE, VS_ORACLE, EXACT, MC_SE, STATISTIC, WORKED, SIMULATED, LABEL, EMPTY}
    defined = {}
    for report, columns in CENSUS.items():
        for column, (kind, *tests) in columns.items():
            assert kind in kinds and tests, (report, column)
            for test in tests:
                path, _, name = test.partition("::")
                if path not in defined:
                    defined[path] = defined_tests(TESTS / path)
                assert name in defined[path], f"{report} {column}: no test {test}"


def test_cheap_reports_echo_and_derive(cheap_reports):
    # Echoes of the run's settings, and columns each report leaves empty.
    for report, row in cheap_reports.items():
        for column, (kind, *_) in CENSUS[report].items():
            if kind == EMPTY:
                assert row[column] == "", (report, column)
    variance = cheap_reports["variance"]
    assert (variance["framework"], variance["n"], variance["n_t"]) == ("finite", "10", "5")
    assert variance["oracle_match"] == "true"
    enumerate_ = cheap_reports["enumerate"]
    assert (enumerate_["design"], enumerate_["statistic"]) == ("cr:5", "tau_hat")
    assert [cheap_reports[f"compare --framework {name}"]["framework"]
            for name in ("strat", "unequal", "mixed")] == ["stratified", "stratified", "mixed"]
    assert cheap_reports["compare --framework mixed"]["mode"] == MODE_CR_SRS_VS_BK_STRAT
    # Columns derived from checked ones: diff, ratio and the decomposition.
    numbers = {"var_cr", "var_bk", "diff", "ratio", "between_term", "within_term",
               "unequal_p_term", "oracle_var_cr", "oracle_var_bk"}
    for report in set(CHEAP_RUNS) - {"enumerate"}:
        row = {name: float(text) for name, text in cheap_reports[report].items()
               if name in numbers and text}
        scale = max(abs(row["var_cr"]), abs(row["var_bk"]))
        assert abs(row["diff"] - (row["var_cr"] - row["var_bk"])) <= 1e-12 * scale, report
        assert row["ratio"] == row["var_bk"] / row["var_cr"], report
        if "between_term" in row:  # diff = between - within (+ unequal_p_term)
            terms = row["between_term"] - row.get("within_term", 0) + row.get("unequal_p_term", 0)
            assert abs(terms - row["diff"]) <= 1e-12 * scale, report
        for arm in ("cr", "bk"):
            if f"oracle_var_{arm}" in row:
                oracle = row[f"oracle_var_{arm}"]
                assert abs(oracle - row[f"var_{arm}"]) <= 1e-10 * abs(oracle), report
