import argparse
import builtins
import csv
import dataclasses
import datetime
import errno
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import blockcalc
from blockcalc import cli, oracle, studies
from blockcalc.cli import main

SRC = str(Path(blockcalc.__file__).resolve().parent.parent)
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(*argv):
    """Run the CLI in a fresh interpreter, as a user would."""
    return subprocess.run(
        [sys.executable, "-m", "blockcalc.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=120,
    )


def assert_one_line_error(proc, message):
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"blockcalc: error: {message}")
    assert proc.stderr.count("\n") == 1


def read_report(path):
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def write_mirrored_table(path):
    path.write_text(
        "unit_id,block,y_t,y_c\n"
        "a,A,0,0\nb,A,2,2\nc,B,0,0\nd,B,2,2\n"
    )


def write_strata(path, mu=(0.0, 0.0)):
    path.write_text(
        "stratum,weight,mu_t,mu_c,sigma2_t,sigma2_c,sigma2_tc\n"
        f"1,0.5,{mu[0]},{mu[0]},1.0,1.0,0.0\n"
        f"2,0.5,{mu[1]},{mu[1]},1.0,1.0,0.0\n"
    )


def test_import_leaves_the_process_pool_unloaded():
    code = "import sys, blockcalc.cli; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=120,
    )
    assert proc.stdout == "False\n"


class TestVarianceCommand:
    def test_blocked_with_oracle(self, tmp_path):
        table = tmp_path / "table.csv"
        write_mirrored_table(table)
        design = tmp_path / "design.json"
        design.write_text(json.dumps({"n_tk": [1, 1]}))
        rc = main(
            ["variance", str(table), "--design", f"blocked:{design}", "--oracle",
             "--out", str(tmp_path)]
        )
        assert rc == 0
        row = read_report(tmp_path / "variance_report.csv")[0]
        assert float(row["var_bk"]) == pytest.approx(2.0)
        assert float(row["var_cr"]) == pytest.approx(4.0 / 3.0)
        assert float(row["diff"]) == pytest.approx(-2.0 / 3.0)
        assert row["oracle_match"] == "true"
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["outputs"] == ["variance_report.csv"]
        assert manifest["command"] == "variance"
        assert manifest["method"] == "enumeration"
        # C(4, 2) = 6 CR assignments and 2 * 2 blocked ones, one batch each.
        assert manifest["counts"] == {"assignments": 10, "chunks": 2}

    def test_oracle_mismatch_caught_at_small_outcome_scale(self, tmp_path, monkeypatch):
        # Outcomes of order 1e-5 give variances of order 1e-10, far below an
        # absolute tolerance floor of 1e-9: an oracle off by a factor of ten
        # must still be reported as a mismatch.
        outcomes = 1e-5 * np.random.default_rng(8).random((8, 2))
        lines = ["unit_id,block,y_t,y_c"] + [
            f"u{i},{1 + i // 4},{yt!r},{yc!r}" for i, (yt, yc) in enumerate(outcomes.tolist())
        ]
        table = tmp_path / "table.csv"
        table.write_text("\n".join(lines) + "\n")
        argv = ["variance", str(table), "--design", "cr:4", "--oracle"]

        assert main(argv + ["--out", str(tmp_path / "true")]) == 0
        assert read_report(tmp_path / "true" / "variance_report.csv")[0]["oracle_match"] == "true"

        exact = cli.exact_moments

        def inflated(*args, **kwargs):
            moments = exact(*args, **kwargs)
            return dataclasses.replace(moments, variance=10 * moments.variance)

        monkeypatch.setattr(cli, "exact_moments", inflated)
        assert main(argv + ["--out", str(tmp_path / "wrong")]) == 0
        row = read_report(tmp_path / "wrong" / "variance_report.csv")[0]
        assert float(row["oracle_var_cr"]) < 1e-9
        assert row["oracle_match"] == "false"

    def test_single_block_design(self, tmp_path):
        table = tmp_path / "table.csv"
        table.write_text("unit_id,block,y_t,y_c\na,1,1,0\nb,1,3,0\nc,1,2,1\nd,1,0,2\n")
        design = tmp_path / "design.json"
        design.write_text(json.dumps({"n_tk": [2]}))
        assert main(["variance", str(table), "--design", f"blocked:{design}", "--out", str(tmp_path)]) == 0
        row = read_report(tmp_path / "variance_report.csv")[0]
        assert float(row["diff"]) == pytest.approx(0.0, abs=1e-15)

    def test_decompose_rejects_unequal_proportions(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        table.write_text(
            "unit_id,block,y_t,y_c\n"
            "a,1,1,0\nb,1,2,0\nc,2,3,0\nd,2,4,0\ne,2,5,0\nf,2,6,0\n"
        )
        design = tmp_path / "design.json"
        design.write_text(json.dumps({"n_tk": [1, 1]}))
        rc = main(
            ["variance", str(table), "--design", f"blocked:{design}", "--decompose",
             "--out", str(tmp_path)]
        )
        assert rc == 1
        assert "equal treated proportion" in capsys.readouterr().err

    def test_decompose_rejects_complete_randomization(self, tmp_path):
        table = tmp_path / "table.csv"
        write_mirrored_table(table)
        proc = run_cli("variance", str(table), "--design", "cr:2", "--decompose",
                       "--out", str(tmp_path))
        assert_one_line_error(proc, "the variance-difference decomposition requires a blocked design")
        assert not (tmp_path / "variance_report.csv").exists()

    def test_header_comment_toggle(self, tmp_path):
        table = tmp_path / "table.csv"
        write_mirrored_table(table)
        main(["variance", str(table), "--design", "cr:2", "--out", str(tmp_path), "--seed", "5"])
        first = (tmp_path / "variance_report.csv").read_text().splitlines()[0]
        assert first == "# blockcalc 0.1.0 seed=5"
        main(["variance", str(table), "--design", "cr:2", "--out", str(tmp_path),
              "--no-header-comment"])
        first = (tmp_path / "variance_report.csv").read_text().splitlines()[0]
        assert first.startswith("framework")


class TestCompareCommand:
    def test_strat_equal_means_zero(self, tmp_path):
        strata = tmp_path / "strata.csv"
        write_strata(strata)
        rc = main(["compare", str(strata), "--framework", "strat", "--n", "8",
                   "--p", "0.5", "--out", str(tmp_path)])
        assert rc == 0
        row = read_report(tmp_path / "compare_report.csv")[0]
        assert float(row["diff"]) == pytest.approx(0.0, abs=1e-15)
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert "method" not in manifest and "counts" not in manifest

    def test_unequal_worked_example(self, tmp_path):
        strata = tmp_path / "strata.csv"
        write_strata(strata)
        rc = main(["compare", str(strata), "--framework", "unequal", "--n", "8",
                   "--p", "0.5", "--p-k", "0.25,0.75", "--out", str(tmp_path)])
        assert rc == 0
        row = read_report(tmp_path / "compare_report.csv")[0]
        assert float(row["diff"]) == pytest.approx(-1.0 / 6.0)

    def test_unequal_takes_p_from_the_proportions(self, tmp_path):
        strata = tmp_path / "strata.csv"
        write_strata(strata)
        reports = []
        for out, extra in ((tmp_path / "a", []), (tmp_path / "b", ["--p", "0.5"])):
            rc = main(["compare", str(strata), "--framework", "unequal", "--n", "8",
                       "--p-k", "0.25,0.75", *extra, "--out", str(out)])
            assert rc == 0
            reports.append((out / "compare_report.csv").read_bytes())
        assert reports[0] == reports[1]

    def test_site_framework_identical_blocks(self, tmp_path):
        table = tmp_path / "blocks.csv"
        write_mirrored_table(table)
        rc = main(["compare", str(table), "--framework", "site", "--k-draw", "4",
                   "--p", "0.5", "--reps", "200", "--seed", "3", "--out", str(tmp_path)])
        assert rc == 0
        row = read_report(tmp_path / "compare_report.csv")[0]
        assert float(row["diff"]) < 0
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["method"] == "monte_carlo"
        assert manifest["counts"] == {"reps": 200}

    def test_two_stage_runs(self, tmp_path):
        strata = tmp_path / "strata.csv"
        write_strata(strata, mu=(0.0, 2.0))
        rc = main(["compare", str(strata), "--framework", "two-stage", "--k-draw", "3",
                   "--p", "0.5", "--n-per-stratum", "4", "--reps", "150",
                   "--seed", "2", "--out", str(tmp_path)])
        assert rc == 0
        row = read_report(tmp_path / "compare_report.csv")[0]
        assert float(row["diff"]) > 0
        assert row["mc_se"] != ""
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["method"] == "monte_carlo"
        assert manifest["counts"] == {"reps": 150}

    def test_manifest_records_environment_and_report_bytes_stay(self, tmp_path):
        rc = main(["compare", str(GOLDEN / "input_strata.csv"), "--framework", "two-stage",
                   "--k-draw", "4", "--p", "0.5", "--n-per-stratum", "4", "--reps", "2000",
                   "--seed", "0", "--no-header-comment", "--out", str(tmp_path)])
        assert rc == 0
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        environment = manifest["environment"]
        assert sorted(environment) == ["cpu_count", "numpy", "platform", "python"]
        assert environment["numpy"] == np.__version__
        assert environment["python"] == platform.python_version()
        report = (tmp_path / "compare_report.csv").read_bytes()
        assert report == (GOLDEN / "compare_two_stage.csv").read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            ["variance", "{table}", "--design", "cr:2", "--oracle"],
            ["enumerate", "{table}", "--design", "cr:2"],
            ["compare", "{strata}", "--framework", "strat", "--n", "20", "--p", "0.5"],
            ["study", "ratio-sweep"],
            ["replay", str(GOLDEN / "input_replay.csv"), "--reps", "20"],
        ],
    )
    def test_manifest_records_stage_timings(self, tmp_path, argv):
        table, strata = tmp_path / "table.csv", tmp_path / "strata.csv"
        write_mirrored_table(table)
        write_strata(strata)
        argv = [a.format(table=table, strata=strata) for a in argv]
        assert main([*argv, "--out", str(tmp_path)]) == 0
        timings = json.loads((tmp_path / "run_manifest.json").read_text())["timings"]
        assert sorted(timings) == ["compute_s", "load_s", "write_s"]
        assert all(type(v) is float and v >= 0 for v in timings.values())

    def test_two_stage_sizes_must_match_strata(self, tmp_path):
        proc = run_cli("compare", str(GOLDEN / "input_strata.csv"), "--framework", "two-stage",
                       "--k-draw", "3", "--p", "0.5", "--n-per-stratum", "4,4",
                       "--out", str(tmp_path))
        assert_one_line_error(proc, "n_k must give one size per stratum (6), got 2")
        assert not (tmp_path / "compare_report.csv").exists()

    @pytest.mark.parametrize(
        "framework, extra",
        [
            ("site", ["input_site_blocks.csv"]),
            ("two-stage", ["input_strata.csv", "--n-per-stratum", "4"]),
        ],
    )
    @pytest.mark.parametrize(
        "reps, seed, message",
        [
            ("1", "0", "Monte Carlo needs reps >= 2 for a standard error, got 1"),
            ("0", "0", "Monte Carlo needs reps >= 2 for a standard error, got 0"),
            ("50", "-1", "expected non-negative integer"),
        ],
    )
    def test_bad_monte_carlo_args_are_one_line_errors(
        self, tmp_path, framework, extra, reps, seed, message
    ):
        proc = run_cli("compare", str(GOLDEN / extra[0]), *extra[1:], "--framework", framework,
                       "--k-draw", "3", "--p", "0.5", "--reps", reps, "--seed", seed,
                       "--out", str(tmp_path))
        assert_one_line_error(proc, message)
        assert not (tmp_path / "compare_report.csv").exists()

    @pytest.mark.parametrize(
        "framework, extra, reps",
        [
            ("strat", ["--n", "8", "--p", "0.5"], "-5"),
            ("unequal", ["--n", "8", "--p-k", "0.25,0.75"], "10000"),
            ("mixed", ["--n-t", "2", "--n-c", "2"], "200"),
        ],
    )
    def test_closed_forms_reject_reps(self, tmp_path, framework, extra, reps):
        strata = tmp_path / "strata.csv"
        write_strata(strata)
        proc = run_cli("compare", str(strata), "--framework", framework, *extra, "--reps", reps,
                       "--out", str(tmp_path))
        assert_one_line_error(proc, f"framework {framework!r} takes no --reps")
        assert proc.stderr.rstrip().endswith(f"got {reps}")
        assert not (tmp_path / "compare_report.csv").exists()

    def test_mixed_modes(self, tmp_path):
        strata = tmp_path / "strata.csv"
        write_strata(strata, mu=(0.0, 2.0))
        rc = main(["compare", str(strata), "--framework", "mixed", "--n-t", "2",
                   "--n-c", "2", "--mode", "srs-vs-blocked", "--out", str(tmp_path)])
        assert rc == 0
        row = read_report(tmp_path / "compare_report.csv")[0]
        assert float(row["diff"]) == pytest.approx(1.0)

    def test_missing_moment_columns_fail(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("stratum,weight,mu_t\n1,1.0,0.0\n")
        rc = main(["compare", str(bad), "--framework", "strat", "--n", "4",
                   "--p", "0.5", "--out", str(tmp_path)])
        assert rc == 1
        assert "missing columns" in capsys.readouterr().err


class TestStudyCommand:
    def test_ratio_sweep_writes_report(self, tmp_path):
        rc = main(["study", "ratio-sweep", "--seed", "1", "--out", str(tmp_path)])
        assert rc == 0
        rows = read_report(tmp_path / "study_ratio_sweep.csv")
        assert len(rows) == 36
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["counts"] == {"reps": 0, "chunks": 1, "workers": 1}
        worst = max(float(r["ratio_equal_p"]) for r in rows)
        assert worst > 1.0

    def test_seed_does_not_change_ratio_sweep_bytes(self, tmp_path):
        reports = []
        for seed in ("0", "7", "12345"):
            rc = main(["study", "ratio-sweep", "--seed", seed, "--no-header-comment",
                       "--out", str(tmp_path / seed)])
            assert rc == 0
            reports.append((tmp_path / seed / "study_ratio_sweep.csv").read_bytes())
        assert reports[0] == reports[1] == reports[2]

    def test_config_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"spread_scales": [0.0, 1.0], "rhos": [0.0]}))
        rc = main(["study", "ratio-sweep", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        rows = read_report(tmp_path / "study_ratio_sweep.csv")
        assert len(rows) == 2
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["config"]["config"]["spread_scales"] == [0.0, 1.0]

    def test_misconceptions_manifest_counts(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"spread_scales": [0.0, 1.0], "rhos": [0.5]}))
        rc = main(["study", "misconceptions", "--config", str(cfg), "--reps", "30",
                   "--out", str(tmp_path)])
        assert rc == 0
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["counts"] == {"reps": 30, "chunks": 1, "workers": 1}

    def test_unknown_config_field_fails(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nope": 1}))
        rc = main(["study", "ratio-sweep", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 1
        assert "unknown config fields" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override",
        [{"n": "64"}, {"n": True}, {"noise_sigma": "1"}, {"dgps": "linear"}, {"methods": [1]}, [1]],
    )
    def test_wrong_config_type_is_one_line_error(self, tmp_path, override):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(override))
        proc = run_cli("study", "flexible-blocking", "--config", str(cfg), "--reps", "1",
                       "--out", str(tmp_path))
        assert_one_line_error(proc, "config")

    @pytest.mark.parametrize(
        "name, reps, message",
        [
            ("flexible-blocking", "0", "reps must be at least 1, got 0"),
            ("flexible-blocking", "-1", "reps must be at least 1, got -1"),
            ("misconceptions", "-3", "reps must be at least 1, got -3"),
            ("misconceptions", "1", "Monte Carlo needs reps >= 2"),
        ],
    )
    def test_bad_reps_is_one_line_error(self, tmp_path, name, reps, message):
        proc = run_cli("study", name, "--reps", reps, "--out", str(tmp_path))
        assert_one_line_error(proc, message)
        assert not list(tmp_path.glob("study_*.csv"))

    @pytest.mark.parametrize(
        "name, config, message",
        [
            ("flexible-blocking", '{"block_size": 0}', "block_size must be at least 2, got 0"),
            ("flexible-blocking", '{"noise_sigma": 0}', "noise_sigma must be positive, got 0"),
            ("flexible-blocking", '{"n": -16}', "n must be a positive multiple of 16, got -16"),
            ("flexible-blocking", '{"noise_sigma": 1e400}',
             "config field 'noise_sigma' for flexible-blocking must be a JSON finite number"),
            ("flexible-blocking", '{"noise_sigma": NaN}',
             "config field 'noise_sigma' for flexible-blocking must be a JSON finite number"),
            ("ratio-sweep", '{"spread_scales": [0.5, Infinity]}',
             "config field 'spread_scales' for ratio-sweep must be a non-empty list"),
            ("ratio-sweep", '{"spread_scales": []}',
             "config field 'spread_scales' for ratio-sweep must be a non-empty list"),
            ("ratio-sweep", '{"block_sizes": [2, 10], "treated_equal": [1, 2], '
             '"treated_unequal": [1, 2]}', "every block needs at least 3 units"),
            ("misconceptions", '{"rhos": []}',
             "config field 'rhos' for misconceptions must be a non-empty list"),
            ("flexible-blocking", '{"methods": []}',
             "config field 'methods' for flexible-blocking must be a non-empty list"),
            ("flexible-blocking", '{"dgps": []}',
             "config field 'dgps' for flexible-blocking must be a non-empty list"),
        ],
    )
    def test_bad_config_value_is_one_line_error(self, tmp_path, name, config, message):
        path = tmp_path / "cfg.json"
        path.write_text(config)
        reps = [] if name == "ratio-sweep" else ["--reps", "2"]
        proc = run_cli("study", name, "--config", str(path), *reps, "--out", str(tmp_path))
        assert_one_line_error(proc, message)
        assert not list(tmp_path.glob("study_*.csv"))

    @pytest.mark.parametrize(
        "config, message",
        [
            # 23 of 115 treated overall, but not 20% of every block.
            ({"treated_counts": [3, 3, 2, 3, 3, 3, 4, 2]},
             "treated_counts [3, 3, 2, 3, 3, 3, 4, 2] must treat the same share of every block"),
            ({"treated_counts": [2, 2]},
             "treated_counts [2, 2] do not fit block_sizes [10, 10, 10, 15, 15, 15, 20, 20]: "
             "design has wrong number of blocks"),
            ({"block_sizes": [5, 5], "treated_counts": [5, 5]},
             "treated_counts [5, 5] do not fit block_sizes [5, 5]: "
             "n_tk=5 out of range for block 1 (size 5)"),
            ({"block_sizes": [6], "treated_counts": [1]},
             "treated_counts [1] must leave at least 2 units in each arm"),
        ],
    )
    def test_misconceptions_refuses_unequal_or_unfit_treated_counts(
        self, tmp_path, config, message
    ):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**config, "spread_scales": [1.0], "rhos": [0.5]}))
        proc = run_cli("study", "misconceptions", "--config", str(path), "--reps", "4",
                       "--out", str(tmp_path))
        assert_one_line_error(proc, message)
        assert proc.stderr.rstrip().endswith(message)
        assert not list(tmp_path.glob("study_*.csv"))

    @pytest.mark.parametrize("reps", ["5", "1"])
    def test_ratio_sweep_rejects_reps(self, tmp_path, reps):
        proc = run_cli("study", "ratio-sweep", "--reps", reps, "--out", str(tmp_path))
        assert_one_line_error(proc, "study ratio-sweep takes no reps")
        assert proc.stderr.rstrip().endswith(f"got {reps}")
        assert not list(tmp_path.glob("*"))

    @pytest.mark.parametrize("name", ["flexible-blocking", "misconceptions"])
    def test_negative_seed_is_one_line_error(self, tmp_path, name):
        proc = run_cli("study", name, "--reps", "5", "--seed", "-1", "--out", str(tmp_path))
        assert_one_line_error(proc, "expected non-negative integer")
        assert not list(tmp_path.glob("study_*.csv"))

    def test_started_at_is_stamped_before_the_work(self, tmp_path, monkeypatch):
        called = []

        def run_study(name, **kwargs):
            called.append(datetime.datetime.now(datetime.timezone.utc))
            return [], ["ratio"], {}, {}

        monkeypatch.setattr(cli, "run_study", run_study)
        assert main(["study", "ratio-sweep", "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert datetime.datetime.fromisoformat(manifest["started_at"]) <= called[0]

    def test_threads_do_not_change_flexible_blocking_bytes(self, tmp_path, no_process_pool):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out, threads in ((out1, "1"), (out2, "3")):
            rc = main(["study", "flexible-blocking", "--seed", "9", "--reps", "600",
                       "--threads", threads, "--out", str(out)])
            assert rc == 0
        a = (out1 / "study_flexible_blocking.csv").read_bytes()
        b = (out2 / "study_flexible_blocking.csv").read_bytes()
        assert a == b
        manifests = [json.loads((out / "run_manifest.json").read_text()) for out in (out1, out2)]
        counts = [manifest["counts"] for manifest in manifests]
        assert counts == [{"reps": 600, "chunks": 3, "workers": 1}] * 2

    @pytest.mark.parametrize(
        "study, extra",
        [("ratio-sweep", []), ("misconceptions", ["--reps", "20"])],
    )
    def test_threads_do_not_change_scenario_study_bytes(
        self, tmp_path, no_process_pool, study, extra
    ):
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            rc = main(["study", study, "--seed", "4", *extra, "--threads", threads,
                       "--out", str(out)])
            assert rc == 0
            reports.append((out / f"study_{study.replace('-', '_')}.csv").read_bytes())
            assert json.loads((out / "run_manifest.json").read_text())["counts"]["workers"] == 1
        assert reports[0] == reports[1]

    def test_threads_do_not_change_three_batch_misconceptions_bytes(
        self, tmp_path, no_process_pool
    ):
        # 300 grid points of 115 units are three batches of mc.chunk_bounds,
        # run in order in this process at either thread count.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"spread_scales": [0.05 * i for i in range(100)]}))
        reports, counts = [], []
        for threads in ("1", "2"):
            out = tmp_path / threads
            rc = main(["study", "misconceptions", "--config", str(cfg), "--seed", "5",
                       "--reps", "4", "--threads", threads, "--out", str(out)])
            assert rc == 0
            reports.append((out / "study_misconceptions.csv").read_bytes())
            counts.append(json.loads((out / "run_manifest.json").read_text())["counts"])
        assert reports[0] == reports[1]
        assert len(read_report(tmp_path / "1" / "study_misconceptions.csv")) == 300
        assert counts == [{"reps": 4, "chunks": 3, "workers": 1}] * 2


class TestReplayCommand:
    def test_single_block_keep_blocks(self, tmp_path):
        table = tmp_path / "replay.csv"
        table.write_text(
            "unit_id,block,z,baseline,y\n"
            "a,1,t,0.1,1.0\nb,1,t,0.4,2.0\nc,1,c,0.2,0.5\nd,1,c,0.9,3.0\n"
        )
        strategies = tmp_path / "strategies.json"
        strategies.write_text(json.dumps([{"name": "keep-blocks"}]))
        rc = main(["replay", str(table), "--strategies", str(strategies),
                   "--out", str(tmp_path)])
        assert rc == 0
        row = read_report(tmp_path / "replay_report.csv")[0]
        assert float(row["rel_se_pct"]) == pytest.approx(100.0)

    def test_default_strategies(self, tmp_path):
        rng = np.random.default_rng(0)
        lines = ["unit_id,block,z,baseline,y"]
        for i in range(12):
            block = i // 4 + 1
            z = "t" if i % 4 < 2 else "c"
            lines.append(f"u{i},{block},{z},{rng.normal():.4f},{rng.normal():.4f}")
        table = tmp_path / "replay.csv"
        table.write_text("\n".join(lines) + "\n")
        rc = main(["replay", str(table), "--reps", "50", "--out", str(tmp_path)])
        assert rc == 0
        rows = read_report(tmp_path / "replay_report.csv")
        assert len(rows) == 6

    @pytest.mark.parametrize(
        "strategies, counts",
        [
            (None, {"allocations": 100, "chunks": 2}),
            (
                [
                    {"name": "random-blocks", "params": {"allocations": 300}},
                    {"name": "random-blocks", "params": {"allocations": 20, "balanced": True}},
                    {"name": "keep-blocks"},
                ],
                {"allocations": 300, "chunks": 4},
            ),
            ([{"name": "keep-blocks"}, {"name": "outcome-sorted-blocks"}], None),
        ],
        ids=["default", "two-random", "no-random"],
    )
    def test_manifest_records_the_random_blocks_sweep(self, tmp_path, strategies, counts):
        """The one shared sweep's partitions drawn and batches (``chunk_rows(200)``
        is 81), and no method or counts when no strategy draws."""
        rng = np.random.default_rng(4)
        lines = ["unit_id,block,z,baseline,y"]
        for i in range(200):
            lines.append(f"u{i},{i % 8},{'tc'[i // 8 % 2]},{rng.normal():.6f},{rng.normal():.6f}")
        table = tmp_path / "replay.csv"
        table.write_text("\n".join(lines) + "\n")
        argv = ["replay", str(table), "--reps", "100", "--out", str(tmp_path)]
        if strategies is not None:
            (tmp_path / "strategies.json").write_text(json.dumps(strategies))
            argv += ["--strategies", str(tmp_path / "strategies.json")]
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        if counts is None:
            assert "method" not in manifest and "counts" not in manifest
        else:
            assert manifest["method"] == "monte_carlo"
            assert manifest["counts"] == counts

    @pytest.mark.parametrize(
        "treated, strategies, message",
        [
            ("ttct", None, "n_tk=2 out of range for block 1 (size 2)"),
            ("tctc", "[]", "strategies file holds an empty list; name at least one strategy"),
            ("tctc", '{"name": "keep-blocks"}', "strategies file must hold a JSON list"),
            ("tctc", '["keep-blocks"]', "strategies file entry 1 must be an object"),
            ("tctc", '[{"name": 3}]', "strategies file entry 1 must be an object"),
            (
                "tctc",
                '[{"name": "keep-blocks"}, {"name": "keep-blocks", "params": 5}]',
                "strategies file entry 2 params must be an object",
            ),
            (
                "tctc",
                '[{"name": "random-blocks", "params": {"allocations": null}}]',
                "strategy 'random-blocks' param 'allocations' must be an integer >= 1, got None",
            ),
            (
                "tctc",
                '[{"name": "random-blocks", "params": {"allocations": 2.7}}]',
                "strategy 'random-blocks' param 'allocations' must be an integer >= 1, got 2.7",
            ),
            (
                "tctc",
                '[{"name": "random-blocks", "params": {"allocations": true}}]',
                "strategy 'random-blocks' param 'allocations' must be an integer >= 1, got True",
            ),
            (
                "tctc",
                '[{"name": "random-blocks", "params": {"allocations": 0}}]',
                "strategy 'random-blocks' param 'allocations' must be an integer >= 1, got 0",
            ),
            (
                "tctc",
                '[{"name": "random-blocks", "params": {"balanced": "no"}}]',
                "strategy 'random-blocks' param 'balanced' must be true or false, got 'no'",
            ),
            (
                "tctc",
                '[{"name": "random-blocks", "params": {"allocation": 5}}]',
                "unknown params for strategy 'random-blocks': ['allocation']",
            ),
            (
                "tctc",
                '[{"name": "keep-blocks", "params": {"allocations": 2.5}}]',
                "strategy 'keep-blocks' param 'allocations' must be an integer >= 1, got 2.5",
            ),
        ],
        ids=["infeasible-counts", "empty-list", "object", "string-entry", "number-name",
             "number-params", "null-allocations", "float-allocations", "bool-allocations",
             "zero-allocations", "string-balanced", "unknown-param", "float-allocations-keep-blocks"],
    )
    def test_bad_input_is_one_line_error(self, tmp_path, treated, strategies, message):
        table = tmp_path / "replay.csv"
        table.write_text("unit_id,block,z,baseline,y\n" + "".join(
            f"u{i},{1 + i // 2},{z},{i},{i * i}\n" for i, z in enumerate(treated)
        ))
        argv = [str(table)]
        if strategies is not None:
            (tmp_path / "strategies.json").write_text(strategies)
            argv += ["--strategies", str(tmp_path / "strategies.json")]
        proc = run_cli("replay", *argv, "--out", str(tmp_path))
        assert_one_line_error(proc, message)
        assert not (tmp_path / "replay_report.csv").exists()

    @pytest.mark.parametrize(
        "reps, strategies",
        [("0", None), ("-5", '[{"name": "keep-blocks"}, {"name": "outcome-sorted-blocks"}]')],
        ids=["default-strategies", "no-random-blocks"],
    )
    def test_reps_below_one_is_one_line_error(self, tmp_path, reps, strategies):
        argv = [str(GOLDEN / "input_replay.csv"), "--reps", reps]
        if strategies is not None:
            (tmp_path / "strategies.json").write_text(strategies)
            argv += ["--strategies", str(tmp_path / "strategies.json")]
        proc = run_cli("replay", *argv, "--out", str(tmp_path))
        assert_one_line_error(proc, f"--reps must be at least 1, got {reps}")
        assert proc.stderr.rstrip().endswith(f"got {reps}")
        assert not (tmp_path / "replay_report.csv").exists()

    def test_constant_outcomes_are_one_line_error(self, tmp_path):
        table = tmp_path / "replay.csv"
        table.write_text("unit_id,block,z,baseline,y\n" + "".join(
            f"u{i},{1 + i // 2},{z},{i},2.5\n" for i, z in enumerate("tctc")
        ))
        proc = run_cli("replay", str(table), "--out", str(tmp_path))
        assert_one_line_error(proc, "outcome y is constant")
        assert not (tmp_path / "replay_report.csv").exists()


class TestEnumerateCommand:
    def test_counts_and_moments(self, tmp_path):
        table = tmp_path / "table.csv"
        write_mirrored_table(table)
        rc = main(["enumerate", str(table), "--design", "cr:2", "--out", str(tmp_path)])
        assert rc == 0
        row = read_report(tmp_path / "enumerate_report.csv")[0]
        assert row["count"] == "6"
        assert float(row["variance"]) == pytest.approx(4.0 / 3.0)
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["method"] == "enumeration"
        assert manifest["counts"] == {"assignments": 6, "chunks": 1}

    def test_cap_violation_fails(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        write_mirrored_table(table)
        rc = main(["enumerate", str(table), "--design", "cr:2", "--cap", "2",
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "cap" in capsys.readouterr().err


# One CSV per reader with a short second data row, and the command reading it.
CSV_COMMANDS = [
    (
        "table",
        ["variance", "--design", "cr:2"],
        "unit_id,block,y_t,y_c\na,A,0,0\nb,A,2\nc,B,0,0\nd,B,2,2\n",
    ),
    (
        "strata",
        ["compare", "--framework", "strat", "--n", "8", "--p", "0.5"],
        "# moments\nstratum,weight,mu_t,mu_c,sigma2_t,sigma2_c,sigma2_tc\n"
        "1,0.5,0,0,1,1,0\n2,0.5,0\n",
    ),
    (
        "replay",
        ["replay"],
        "unit_id,block,z,baseline,y\na,1,t,0.1,1.0\nb,1,t,0.4\n",
    ),
]


class TestArgumentValidation:
    def test_missing_framework_args_fail_cleanly(self, tmp_path, capsys):
        strata = tmp_path / "strata.csv"
        write_strata(strata)
        rc = main(["compare", str(strata), "--framework", "strat", "--out", str(tmp_path)])
        assert rc == 1
        assert "--n" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["variance", "{table}", "--design", "cr:2"],
            ["compare", "{strata}", "--framework", "strat", "--n", "8", "--p", "0.5"],
            ["study", "ratio-sweep"],
            ["replay", "{replay}"],
            ["enumerate", "{table}", "--design", "cr:2"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_threads_below_one_is_one_line_error(self, tmp_path, capsys, argv, threads):
        inputs = {"table": tmp_path / "table.csv", "strata": tmp_path / "strata.csv",
                  "replay": GOLDEN / "input_replay.csv"}
        write_mirrored_table(inputs["table"])
        write_strata(inputs["strata"])
        argv = [str(inputs[a[1:-1]]) if a.startswith("{") else a for a in argv]
        out = tmp_path / "out"
        assert main([*argv, "--threads", threads, "--out", str(out)]) == 1
        message = f"blockcalc: error: --threads must be at least 1, got {threads}\n"
        assert capsys.readouterr().err == message
        assert not out.exists()

    @pytest.mark.parametrize("cap", ["0", "-5"])
    @pytest.mark.parametrize("command", ["variance", "enumerate"])
    def test_cap_below_one_is_one_line_error(self, tmp_path, capsys, command, cap):
        # Refused before anything runs, also by `variance` without --oracle.
        table = tmp_path / "table.csv"
        write_mirrored_table(table)
        out = tmp_path / "out"
        argv = [command, str(table), "--design", "cr:2", "--cap", cap, "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"blockcalc: error: --cap must be at least 1, got {cap}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["variance", "{table}", "--design", "cr:abc"],
             "--design cr:<n_t> needs an integer n_t, got 'cr:abc'"),
            (["enumerate", "{table}", "--design", "cr:2.5"],
             "--design cr:<n_t> needs an integer n_t, got 'cr:2.5'"),
            (["compare", "{strata}", "--framework", "unequal", "--n", "8", "--p-k", "0.5,x"],
             "--p-k must be comma-separated numbers, got '0.5,x'"),
            (["compare", "{strata}", "--framework", "two-stage", "--k-draw", "2", "--p", "0.5",
              "--n-per-stratum", "4,x"],
             "--n-per-stratum must be comma-separated integers, got '4,x'"),
        ],
    )
    def test_unparsable_flag_value_is_one_line_error(self, tmp_path, argv, message):
        write_mirrored_table(tmp_path / "table.csv")
        write_strata(tmp_path / "strata.csv")
        argv = [str(tmp_path / f"{a[1:-1]}.csv") if a.startswith("{") else a for a in argv]
        proc = run_cli(*argv, "--out", str(tmp_path))
        assert_one_line_error(proc, message)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["{strata}", "--framework", "two-stage", "--k-draw", "4", "--n-per-stratum", "4",
              "--p", "{value}"], "--p"),
            (["{table}", "--framework", "site", "--k-draw", "3", "--p", "{value}"], "--p"),
            (["{strata}", "--framework", "unequal", "--n", "8", "--p-k", "0.25,{value}"],
             "--p-k"),
        ],
    )
    def test_non_finite_proportion_is_one_line_error(self, tmp_path, argv, flag, value):
        inputs = {"strata": GOLDEN / "input_strata.csv", "table": GOLDEN / "input_site_blocks.csv"}
        argv = [a.format(value=value, **inputs) for a in argv]
        proc = run_cli("compare", *argv, "--out", str(tmp_path))
        got = repr(argv[-1]) if flag == "--p-k" else value
        assert_one_line_error(proc, f"{flag} must be finite, got {got}")
        assert not (tmp_path / "compare_report.csv").exists()

    @pytest.mark.parametrize("command", ["enumerate", "variance"])
    @pytest.mark.parametrize(
        "payload",
        [
            '[2, 2]', '{"n_tk": "22"}', '{"n_tk": [2.7, 2]}', '{"n_tk": [true, 1]}',
            '{"counts": [2, 2]}',
        ],
    )
    def test_malformed_design_json_is_one_line_error(self, tmp_path, command, payload):
        table = tmp_path / "table.csv"
        table.write_text("unit_id,block,y_t,y_c\n" + "".join(
            f"u{i},{1 + i // 4},{i},0\n" for i in range(8)
        ))
        design = tmp_path / "design.json"
        design.write_text(payload)
        proc = run_cli(command, str(table), "--design", f"blocked:{design}", "--out", str(tmp_path))
        assert_one_line_error(proc, "design file")

    @pytest.mark.parametrize("kind, argv, text", CSV_COMMANDS)
    def test_short_csv_row_is_one_line_error(self, tmp_path, kind, argv, text):
        path = tmp_path / f"{kind}.csv"
        path.write_text(text)
        proc = run_cli(argv[0], str(path), *argv[1:], "--out", str(tmp_path))
        assert_one_line_error(proc, f"{kind} CSV data row 2 has no value")

    @pytest.mark.parametrize("kind, argv, text", CSV_COMMANDS)
    def test_oversized_csv_field_is_one_line_error(self, tmp_path, kind, argv, text):
        # The csv module refuses a field over 131,072 characters; it fills
        # the first data row here.
        lines = text.splitlines(keepends=True)
        header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        lines.insert(header + 1, "9" * 131_073 + "\n")
        path = tmp_path / f"{kind}.csv"
        path.write_text("".join(lines))
        proc = run_cli(argv[0], str(path), *argv[1:], "--out", str(tmp_path))
        assert_one_line_error(proc, f"{kind} CSV is not readable: field larger than field limit")


def write_huge_table(path):
    """Eight units whose outcomes near +-1e200 overflow a float64 sum of squares."""
    values = [(1e200, -1e200), (-1e200, 1e200), (5e199, 0.0), (0.0, -5e199)] * 2
    path.write_text("unit_id,block,y_t,y_c\n" + "".join(
        f"u{i},{1 + i // 4},{y_t!r},{y_c!r}\n" for i, (y_t, y_c) in enumerate(values)
    ))


class TestOutcomeMagnitude:
    @pytest.mark.parametrize(
        "argv",
        [
            ["variance", "{table}", "--design", "cr:4"],
            ["enumerate", "{table}", "--design", "cr:4", "--statistic", "var_est_cr"],
        ],
    )
    def test_huge_table_is_one_line_error(self, tmp_path, argv):
        write_huge_table(tmp_path / "table.csv")
        argv = [a.format(table=tmp_path / "table.csv") for a in argv]
        proc = run_cli(*argv, "--out", str(tmp_path))
        assert_one_line_error(proc, "y_t outcomes too large for float64 moments over 8 units")
        assert "RuntimeWarning" not in proc.stderr
        assert not list(tmp_path.glob("*_report.csv"))

    @pytest.mark.parametrize(
        "argv, config, message",
        [
            # ratio-sweep draws no outcomes: the noise check refuses means
            # near 1e308 first, and base_sigma 1e300 overflows var_cr.
            (["ratio-sweep"], {"spread_scales": [1e308]},
             "base_sigma 1.0 is below one ulp of the largest target block mean 8.4375e+307"),
            (["ratio-sweep"], {"base_sigma": 1e300},
             "var_cr is nan at base_sigma 1e+300 (spread_scale 0.0, rho 0.0)"),
            (["misconceptions", "--reps", "5"], {"spread_scales": [1e308]},
             "y_t outcomes too large for float64 moments over 115 units"),
            (["misconceptions", "--reps", "5"], {"base_sigma": 1e300},
             "y_t outcomes too large for float64 moments over 115 units"),
        ],
    )
    def test_huge_scenario_study_is_one_line_error(self, tmp_path, argv, config, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        proc = run_cli("study", *argv, "--config", str(path), "--out", str(tmp_path))
        assert_one_line_error(proc, message)
        assert "RuntimeWarning" not in proc.stderr
        assert not list(tmp_path.glob("study_*.csv"))

    @pytest.mark.parametrize("argv", [["ratio-sweep"], ["misconceptions", "--reps", "4"]])
    def test_noise_below_one_ulp_of_the_block_means_is_one_line_error(self, tmp_path, argv):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"base_sigma": 1e-160, "spread_scales": [1.0], "rhos": [0.5]}))
        proc = run_cli("study", *argv, "--config", str(path), "--out", str(tmp_path))
        assert_one_line_error(
            proc, "base_sigma 1e-160 is below one ulp of the largest target block mean 0.84375"
        )
        assert "RuntimeWarning" not in proc.stderr
        assert not list(tmp_path.glob("study_*.csv"))

    @pytest.mark.parametrize(
        "config, message",
        [
            # Point 0 underflows; the noise of point 3 (scale 1.0) is below one ulp.
            ({"base_sigma": 1e-200, "spread_scales": [0.0, 1.0]},
             "var_cr is 0.0 at base_sigma 1e-200 (spread_scale 0.0, rho 0.0)"),
            # Point 0's noise is below one ulp; point 3's ScenarioConfig is refused.
            ({"base_sigma": 1e-200, "spread_scales": [1.0, -1.0]},
             "base_sigma 1e-200 is below one ulp"),
            ({"base_sigma": 1e-200, "spread_scales": [0.0, -1.0]},
             "var_cr is 0.0 at base_sigma 1e-200 (spread_scale 0.0, rho 0.0)"),
            ({"spread_scales": [1.0, -1.0]}, "spreads must be nonnegative"),
        ],
    )
    def test_ratio_sweep_checks_points_in_grid_order(self, tmp_path, config, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        proc = run_cli("study", "ratio-sweep", "--config", str(path), "--out", str(tmp_path))
        assert_one_line_error(proc, message)
        assert "RuntimeWarning" not in proc.stderr

    @pytest.mark.parametrize(
        "argv, config, message",
        [
            (
                ["ratio-sweep"],
                {"base_sigma": 1e-200, "spread_scales": [0.0]},
                "var_cr is 0.0 at base_sigma 1e-200 (spread_scale 0.0, rho 0.0)",
            ),
            (
                ["misconceptions", "--reps", "4"],
                {"base_sigma": 1e-200, "spread_scales": [0.0]},
                "var_bk is 0.0 at base_sigma 1e-200 (spread_scale 0.0, rho 0.0)",
            ),
            (
                ["flexible-blocking", "--reps", "4"],
                {"noise_sigma": 1e-200},
                "var_cr is 0.0 at noise_sigma 1e-200 (method 'flex', dgp 'indep')",
            ),
            (
                ["flexible-blocking", "--reps", "4"],
                {"noise_sigma": 1e200},
                "var_cr is inf at noise_sigma 1e+200 (method 'flex', dgp 'linear')",
            ),
            (
                ["misconceptions", "--reps", "5"],
                {"base_sigma": 1e100},
                "var_varest_cr is inf at base_sigma 1e+100 (spread_scale 0.0, rho 0.0)",
            ),
        ],
    )
    def test_study_results_outside_float64_are_one_line_error(
        self, tmp_path, argv, config, message
    ):
        # Each study variance underflows to 0 or overflows to inf at this
        # outcome scale; the error names the config field that sets it.
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        proc = run_cli("study", *argv, "--config", str(path), "--out", str(tmp_path))
        assert_one_line_error(proc, f"{message}: outside float64's range")
        assert "RuntimeWarning" not in proc.stderr
        assert not list(tmp_path.glob("study_*.csv"))
        assert not (tmp_path / "run_manifest.json").exists()


def limit_address_space():
    """Cap the child's address space at 16 GiB, so an allocation of petabytes
    fails at once on any machine rather than only where it outgrows the
    user address space."""
    limit = 16 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize(
    "argv, size",
    [
        (["compare", str(GOLDEN / "input_strata.csv"), "--framework", "two-stage", "--k-draw",
          "4", "--p", "0.5", "--n-per-stratum", "4", "--reps", "100000000000000"], "2.13 PiB"),
        (["study", "misconceptions", "--reps", "100000000000000"], "12.8 PiB"),
        (["replay", str(GOLDEN / "input_replay.csv"), "--reps", "100000000000000"], "728. TiB"),
    ],
    ids=lambda value: value[0] if isinstance(value, list) else None,
)
def test_reps_too_large_to_hold_is_one_line_error(tmp_path, argv, size):
    proc = subprocess.run(
        [sys.executable, "-m", "blockcalc.cli", *argv, "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=120,
        preexec_fn=limit_address_space,
    )
    assert_one_line_error(proc, f"Unable to allocate {size} for an array")


def subparsers(parser):
    """The parser and each command's subparser, by command name ('' for the parser)."""
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {"": parser, **commands.choices}


#: One cheap run of every command, with inputs written by ``write_inputs``.
EVERY_COMMAND = [
    ["variance", "{table}", "--design", "blocked:{design}", "--oracle"],
    ["compare", str(GOLDEN / "input_strata.csv"), "--framework", "two-stage", "--k-draw", "4",
     "--p", "0.5", "--n-per-stratum", "4", "--reps", "200"],
    ["study", "ratio-sweep"],
    ["replay", str(GOLDEN / "input_replay.csv"), "--reps", "20"],
    ["enumerate", "{table}", "--design", "cr:2", "--statistic", "var_est_cr"],
]


def write_inputs(tmp_path, argv):
    table, design = tmp_path / "table.csv", tmp_path / "design.json"
    write_mirrored_table(table)
    design.write_text(json.dumps({"n_tk": [1, 1]}))
    return [a.format(table=table, design=design) for a in argv] + ["--seed", "3"]


def report_bytes(out):
    (report,) = out.glob("*.csv")
    return report.read_bytes()


@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda argv: argv[0])
def test_threads_do_not_change_command_bytes(tmp_path, no_process_pool, argv):
    argv = write_inputs(tmp_path, argv)
    for threads in ("1", "3"):
        assert main([*argv, "--threads", threads, "--out", str(tmp_path / threads)]) == 0
    assert report_bytes(tmp_path / "1") == report_bytes(tmp_path / "3")


class TestOutputWriter:
    """Reports and manifests are written over an existing file in place, then cut."""

    def fresh_and_stale(self, tmp_path, argv):
        """``argv`` with its inputs, a fresh run's ``--out`` and a second ``--out``
        holding that run's report and manifest names, each filled with more
        bytes than the run writes."""
        argv = write_inputs(tmp_path, argv)
        fresh, stale = tmp_path / "fresh", tmp_path / "stale"
        assert main([*argv, "--out", str(fresh)]) == 0
        stale.mkdir()
        for path in fresh.iterdir():
            (stale / path.name).write_bytes(b"{" + b"x" * (2 * path.stat().st_size + 4096))
        return argv, fresh, stale

    @pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda argv: argv[0])
    def test_rerun_over_longer_files_matches_a_fresh_run(self, tmp_path, monkeypatch, argv):
        argv, fresh, stale = self.fresh_and_stale(tmp_path, argv)
        opened = []
        os_open, builtin_open = os.open, builtins.open

        def guarded_os_open(path, flags, *args, **kwargs):
            opened.append((Path(path), "O_TRUNC" if flags & os.O_TRUNC else "os.open"))
            return os_open(path, flags, *args, **kwargs)

        def guarded_open(file, mode="r", *args, **kwargs):
            if isinstance(file, (str, Path)):
                opened.append((Path(file), "w" if "w" in mode else mode))
            return builtin_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(cli.os, "open", guarded_os_open)
        monkeypatch.setattr(builtins, "open", guarded_open)
        assert main([*argv, "--out", str(stale)]) == 0
        monkeypatch.undo()
        # Each output is opened once, through os.open and without O_TRUNC.
        outputs = sorted((path, how) for path, how in opened if path.parent == stale)
        assert outputs == sorted((path, "os.open") for path in stale.iterdir())
        assert report_bytes(stale) == report_bytes(fresh)
        text = (stale / "run_manifest.json").read_text()
        assert json.loads(text)["outputs"] == [next(stale.glob("*.csv")).name]
        assert text.endswith("}\n")

    @pytest.mark.parametrize("target", ["file", "devnull"])
    def test_report_symlink_is_written_through(self, tmp_path, target):
        argv, fresh, stale = self.fresh_and_stale(tmp_path, EVERY_COMMAND[-1])
        report = stale / "enumerate_report.csv"
        real = tmp_path / "elsewhere.csv"
        report.replace(real)
        if target == "devnull":
            real = Path(os.devnull)
        report.symlink_to(real)
        assert main([*argv, "--out", str(stale)]) == 0
        assert report.is_symlink() and report.resolve() == real.resolve()
        if target == "file":
            assert real.read_bytes() == report_bytes(fresh)

    def test_existing_report_keeps_its_inode_links_and_mode(self, tmp_path):
        argv, fresh, stale = self.fresh_and_stale(tmp_path, EVERY_COMMAND[-1])
        report = stale / "enumerate_report.csv"
        report.chmod(0o640)
        link = tmp_path / "hard_link.csv"
        os.link(report, link)
        before = report.stat()
        assert main([*argv, "--out", str(stale)]) == 0
        after = report.stat()
        assert (after.st_ino, after.st_nlink, after.st_mode) == (
            before.st_ino, 2, before.st_mode
        )
        assert link.read_bytes() == report_bytes(fresh)

    def test_new_report_is_created_with_mode_0o666_less_the_umask(self, tmp_path):
        argv = write_inputs(tmp_path, EVERY_COMMAND[-1])
        umask = os.umask(0o027)
        try:
            assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        finally:
            os.umask(umask)
        for path in (tmp_path / "out").iterdir():
            assert path.stat().st_mode & 0o777 == 0o640, path.name

    @pytest.mark.parametrize("kind", ["directory", "link-under-a-file", "read-only"])
    def test_unwritable_report_is_one_line_error(self, tmp_path, kind):
        argv = write_inputs(tmp_path, EVERY_COMMAND[-1])
        out = tmp_path / "out"
        report = out / "enumerate_report.csv"
        out.mkdir()
        if kind == "directory":
            report.mkdir()
            message = f"[Errno {errno.EISDIR}]"
        elif kind == "link-under-a-file":
            # No user, root included, can create a file under a regular file.
            (tmp_path / "plain").write_text("not a directory\n")
            report.symlink_to(tmp_path / "plain" / "report.csv")
            message = f"[Errno {errno.ENOTDIR}]"
        else:
            report.write_text("old\n")
            report.chmod(0o444)
            if os.access(report, os.W_OK):
                pytest.skip("this user writes through a read-only mode")
            message = f"[Errno {errno.EACCES}]"
        proc = run_cli(*argv, "--out", str(out))
        assert_one_line_error(proc, message)
        assert not (out / "run_manifest.json").exists()

    def test_failed_write_leaves_only_the_new_prefix(self, tmp_path, monkeypatch, capsys):
        argv, fresh, stale = self.fresh_and_stale(tmp_path, EVERY_COMMAND[-1])
        os_write = os.write
        calls = []

        def failing_write(fd, data):
            calls.append(len(data))
            if len(calls) > 1:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return os_write(fd, bytes(data[:10]))

        monkeypatch.setattr(cli.os, "write", failing_write)
        assert main([*argv, "--out", str(stale)]) == 1
        monkeypatch.undo()
        err = capsys.readouterr().err
        assert err == f"blockcalc: error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
        assert calls == [len(report_bytes(fresh)), len(report_bytes(fresh)) - 10]
        assert (stale / "enumerate_report.csv").read_bytes() == report_bytes(fresh)[:10]


def test_parser_choices_come_from_their_sources():
    actions = {
        name: {a.dest: a.choices for a in parser._actions if a.choices is not None}
        for name, parser in subparsers(cli.build_parser()).items()
    }
    assert list(actions["study"]["name"]) == list(studies.STUDIES)
    assert list(actions["enumerate"]["statistic"]) == list(oracle.STATISTICS)
    assert list(actions["compare"]["framework"]) == list(cli.FRAMEWORK_NEEDS)


class TestParserReuse:
    """``main`` builds its parser once per process and looks commands up when it runs."""

    def test_calls_share_one_parser(self, tmp_path, monkeypatch):
        parsers = []
        parse_args = argparse.ArgumentParser.parse_args

        def recording(self, *args, **kwargs):
            parsers.append(self)
            return parse_args(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
        argv = write_inputs(tmp_path, EVERY_COMMAND[-1])
        assert main([*argv, "--out", str(tmp_path / "a")]) == 0
        assert main([*argv, "--out", str(tmp_path / "b")]) == 0
        assert len(parsers) == 2
        assert parsers[0] is parsers[1] is cli._parser()

    def test_command_patched_after_a_warm_call_runs(self, tmp_path, monkeypatch):
        argv = write_inputs(tmp_path, EVERY_COMMAND[-1])
        assert main([*argv, "--out", str(tmp_path / "warm")]) == 0
        names = []

        def cmd_study(args, manifest):
            names.append(args.name)
            return "patched.csv", ["name"], [{"name": args.name}], {}

        monkeypatch.setattr(cli, "cmd_study", cmd_study)
        out = tmp_path / "patched"
        assert main(["study", "misconceptions", "--out", str(out)]) == 0
        assert names == ["misconceptions"]
        assert read_report(out / "patched.csv") == [{"name": "misconceptions"}]

    def test_help_and_usage_match_a_fresh_parser(self, tmp_path, capsys):
        argv = write_inputs(tmp_path, EVERY_COMMAND[-1])
        assert main([*argv, "--out", str(tmp_path)]) == 0
        with pytest.raises(SystemExit):
            main(["enumerate", "--bogus"])
        capsys.readouterr()
        reused, fresh = subparsers(cli._parser()), subparsers(cli.build_parser())
        assert list(reused) == list(fresh) == ["", *(a[0] for a in EVERY_COMMAND)]
        for name, parser in reused.items():
            assert parser.format_help() == fresh[name].format_help(), name
            assert parser.format_usage() == fresh[name].format_usage(), name

    def test_a_bad_flag_leaves_the_next_call_unchanged(self, tmp_path, capsys):
        argv = write_inputs(tmp_path, EVERY_COMMAND[-1])
        with pytest.raises(SystemExit) as exit_:
            main([*argv[:-2], "--statistic", "nope"])
        assert exit_.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err
        assert main([*argv, "--out", str(tmp_path / "in_process")]) == 0
        proc = run_cli(*argv, "--out", str(tmp_path / "one_shot"))
        assert proc.returncode == 0, proc.stderr
        assert report_bytes(tmp_path / "in_process") == report_bytes(tmp_path / "one_shot")

    def test_every_command_in_one_process_matches_one_shot_runs(self, tmp_path):
        for i, argv in enumerate(EVERY_COMMAND):
            argv = write_inputs(tmp_path, argv)
            in_process, one_shot = tmp_path / f"in_process_{i}", tmp_path / f"one_shot_{i}"
            assert main([*argv, "--out", str(in_process)]) == 0
            proc = run_cli(*argv, "--out", str(one_shot))
            assert proc.returncode == 0, proc.stderr
            assert report_bytes(in_process) == report_bytes(one_shot), argv[0]
