"""Golden report rows for the studies, the two sampling frameworks and replay.

Every case runs the CLI with ``--threads 1`` on committed inputs under
``tests/golden/`` and compares the report with the committed golden CSV.
Numeric cells must agree to :data:`GOLDEN_RTOL`, scaled by the largest
magnitude in their golden column, so refactors may reorder float sums but
may not change results; every other cell must match exactly.

Re-record only when a change is meant to alter these outputs::

    PYTHONPATH=src python tests/test_golden.py --record
"""

from __future__ import annotations

import csv
import sys
from pathlib import Path

import numpy as np
import pytest

from blockcalc.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_RTOL = 1e-12

#: case name -> (CLI arguments with ``{input}`` placeholders, report written)
CASES = {
    "study_ratio_sweep": (["study", "ratio-sweep"], "study_ratio_sweep.csv"),
    "study_flexible_blocking": (
        ["study", "flexible-blocking", "--reps", "600"],
        "study_flexible_blocking.csv",
    ),
    "study_misconceptions": (
        ["study", "misconceptions", "--reps", "150"],
        "study_misconceptions.csv",
    ),
    "compare_site": (
        ["compare", "{input_site_blocks.csv}", "--framework", "site", "--k-draw", "4",
         "--p", "0.5", "--reps", "2000"],
        "compare_report.csv",
    ),
    "compare_two_stage": (
        ["compare", "{input_strata.csv}", "--framework", "two-stage", "--k-draw", "4",
         "--p", "0.5", "--n-per-stratum", "4", "--reps", "2000"],
        "compare_report.csv",
    ),
    "replay": (["replay", "{input_replay.csv}"], "replay_report.csv"),
}


def _argv(case: str, out: Path) -> list[str]:
    args, _ = CASES[case]
    args = [str(GOLDEN / a[1:-1]) if a.startswith("{") else a for a in args]
    return args + ["--seed", "0", "--threads", "1", "--no-header-comment", "--out", str(out)]


def _read(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case, tmp_path):
    assert main(_argv(case, tmp_path)) == 0
    got = _read(tmp_path / CASES[case][1])
    want = _read(GOLDEN / f"{case}.csv")
    assert got[0] == want[0]
    assert len(got) == len(want)
    scales = [
        max((abs(v) for v in (_number(row[j]) for row in want[1:]) if v is not None), default=0.0)
        for j in range(len(want[0]))
    ]
    for i, (got_row, want_row) in enumerate(zip(got[1:], want[1:])):
        for j, (g, w) in enumerate(zip(got_row, want_row)):
            gv, wv = _number(g), _number(w)
            if gv is None or wv is None:
                assert g == w, f"row {i} {want[0][j]}: {g!r} != golden {w!r}"
            else:
                tol = GOLDEN_RTOL * max(abs(gv), abs(wv), scales[j])
                assert abs(gv - wv) <= tol, f"row {i} {want[0][j]}: {g} != golden {w}"


# ---------------------------------------------------------------------------
# Recording


def _write_rows(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_inputs(seed: int = 20201028) -> None:
    """The committed inputs: 12 population blocks, 6 strata, a 64-unit replay."""
    rng = np.random.default_rng(seed)
    site = []
    for k, size in enumerate([4, 6, 8, 4, 6, 8, 4, 6, 8, 4, 6, 8], start=1):
        mu_c, tau = rng.normal(0.0, 2.0), rng.normal(1.0, 1.0)
        for _ in range(size):
            y_c = mu_c + rng.normal()
            y_t = y_c + tau + rng.normal(0.0, 0.5)
            site.append([f"u{len(site) + 1}", f"b{k}", repr(float(y_t)), repr(float(y_c))])
    _write_rows(GOLDEN / "input_site_blocks.csv", ["unit_id", "block", "y_t", "y_c"], site)
    strata = []
    for j in range(6):
        mu_c = rng.normal(0.0, 2.0)
        s2_t, s2_c = rng.uniform(0.5, 2.0, size=2)
        row = [1.0 / 6, mu_c + rng.normal(1.0, 1.0), mu_c, s2_t, s2_c, 0.25]
        strata.append([f"s{j + 1}"] + [repr(float(v)) for v in row])
    _write_rows(
        GOLDEN / "input_strata.csv",
        ["stratum", "weight", "mu_t", "mu_c", "sigma2_t", "sigma2_c", "sigma2_tc"],
        strata,
    )
    replay = []
    for k, size in enumerate([6, 8, 10, 8, 6, 10, 8, 8], start=1):
        arms = rng.permutation(["t"] * (size // 2) + ["c"] * (size - size // 2))
        shift = rng.normal(0.0, 2.0)
        for arm in arms:
            baseline = shift + rng.normal()
            y = baseline + rng.normal(0.0, 0.7)
            row = [f"u{len(replay) + 1}", f"b{k}", str(arm), repr(float(baseline)), repr(float(y))]
            replay.append(row)
    _write_rows(GOLDEN / "input_replay.csv", ["unit_id", "block", "z", "baseline", "y"], replay)


def record() -> None:
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    write_inputs()
    for case, (_, report) in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            if main(_argv(case, Path(tmp))) != 0:
                raise SystemExit(f"{case} failed")
            (GOLDEN / f"{case}.csv").write_bytes((Path(tmp) / report).read_bytes())


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    record()
