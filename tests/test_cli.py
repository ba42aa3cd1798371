import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import blockcalc
from blockcalc import cli, mc
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
        assert manifest["counts"] == {"reps": 0, "chunks": 36, "workers": 1}
        worst = max(float(r["ratio_equal_p"]) for r in rows)
        assert worst > 1.0

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
        assert manifest["counts"] == {"reps": 30, "chunks": 2, "workers": 1}

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

    def test_threads_do_not_change_flexible_blocking_bytes(self, tmp_path):
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
        assert counts == [
            {"reps": 600, "chunks": 3, "workers": 1},
            {"reps": 600, "chunks": 3, "workers": mc.effective_workers(3, 3)},
        ]


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
        "treated, strategies, message",
        [
            ("ttct", None, "n_tk=2 out of range for block 1 (size 2)"),
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
        ids=["infeasible-counts", "object", "string-entry", "number-name", "number-params",
             "null-allocations", "float-allocations", "bool-allocations", "zero-allocations",
             "string-balanced", "unknown-param", "float-allocations-keep-blocks"],
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
