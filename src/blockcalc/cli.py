"""Command-line front end.

Commands: ``variance``, ``compare``, ``study``, ``replay``, ``enumerate``.
Every run writes its report CSVs plus a ``run_manifest.json`` recording the
command, a digest of the fully resolved configuration, the master seed, the
library version, timestamps, and the output file list; runs that enumerate
assignments (``enumerate``, ``variance --oracle``) add ``method`` and the
``counts`` of assignments and batches, Monte Carlo comparisons (``compare
--framework site|two-stage``) add ``method`` and the ``reps``, and studies
add the ``counts`` of reps, chunks and workers used. Report CSVs start
with a comment line ``# blockcalc <version> seed=<seed>`` unless
``--no-header-comment`` is given. Reruns with the same seed and config are byte-identical
regardless of ``--threads``.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .oracle import DEFAULT_CAP, exact_moments
from .pop_model import (
    Blocked,
    CompleteRandomization,
    equal_proportions,
    read_strata_csv,
    read_table_csv,
    validate_design,
)
from .replay import (
    REPLAY_COLUMNS,
    default_strategies,
    read_replay_csv,
    read_strategies_json,
    run_replay,
)
from .studies import run_study
from .variance_theory import (
    MODE_CR_SRS_VS_BK_STRAT,
    MODE_CR_SRS_VS_CR_STRAT,
    neyman_var_blocked,
    neyman_var_cr,
    var_diff_finite,
    var_diff_mixed,
    var_diff_site_sampling,
    var_diff_strat,
    var_diff_strat_unequal,
    var_diff_two_stage,
)

ORACLE_MATCH_RTOL = 1e-9


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return int(value)
    return value


def write_report_csv(path, columns, rows, seed, header_comment=True):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if header_comment:
            fh.write(f"# blockcalc {__version__} seed={seed}\n")
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow({key: _fmt(row.get(key)) for key in columns})


def _config_digest(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()


class ManifestWriter:
    def __init__(self, command: str, config: dict, seed: int, out_dir: Path):
        self.command = command
        self.config = config
        self.seed = seed
        self.out_dir = out_dir
        self.outputs: list[str] = []
        self.started_at = datetime.datetime.now(datetime.timezone.utc).isoformat()
        self.extra: dict = {}

    def record_enumeration(self, moments) -> None:
        """Add one exact enumeration's assignment and batch counts to the manifest."""
        counts = self.extra.setdefault("counts", {"assignments": 0, "chunks": 0})
        counts["assignments"] += moments.count
        counts["chunks"] += moments.chunks
        self.extra["method"] = "enumeration"

    def csv_path(self, name: str) -> Path:
        path = self.out_dir / name
        self.outputs.append(name)
        return path

    def finish(self) -> Path:
        manifest = {
            "command": self.command,
            "config_digest": _config_digest(self.config),
            "config": self.config,
            "seed": self.seed,
            "version": __version__,
            "started_at": self.started_at,
            "finished_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "outputs": self.outputs,
            **self.extra,
        }
        path = self.out_dir / "run_manifest.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


def _parse_design(text: str):
    kind, _, value = text.partition(":")
    if kind == "cr":
        return CompleteRandomization(n_t=int(value))
    if kind == "blocked":
        with open(value, encoding="utf-8") as fh:
            payload = json.load(fh)
        n_tk = payload.get("n_tk") if isinstance(payload, dict) else None
        # bool is a subclass of int; JSON true/false are not counts.
        if not isinstance(n_tk, list) or not all(type(m) is int for m in n_tk):
            raise ValueError(
                f"design file {value} must hold a JSON object whose n_tk is a list of integers"
            )
        return Blocked(tuple(n_tk))
    raise ValueError("design must be 'cr:<n_t>' or 'blocked:<file.json>'")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _add_common(parser, reps_default=None):
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--threads", type=int, default=1, help="worker count (speed only)")
    parser.add_argument(
        "--no-header-comment",
        action="store_true",
        help="omit the leading comment line from report CSVs",
    )
    if reps_default is not None:
        parser.add_argument("--reps", type=int, default=reps_default)


def cmd_variance(args) -> int:
    table = read_table_csv(args.table)
    design = _parse_design(args.design)
    validate_design(design, table)
    out = _out_dir(args)
    blocked = isinstance(design, Blocked)
    if args.decompose and not blocked:
        raise ValueError(
            "the variance-difference decomposition requires a blocked design "
            "with an equal treated proportion in every block"
        )
    n_t = design.n_t
    row: dict = {
        "framework": "finite",
        "n": table.n,
        "n_t": n_t,
        "var_cr": neyman_var_cr(table, n_t),
        "var_bk": None,
        "diff": None,
        "ratio": None,
        "between_term": None,
        "within_term": None,
        "oracle_var_cr": None,
        "oracle_var_bk": None,
        "oracle_match": None,
    }
    if blocked:
        row["var_bk"] = neyman_var_blocked(table, design)
        equal_p = equal_proportions(design, table)
        if args.decompose and not equal_p:
            raise ValueError(
                "the variance-difference decomposition requires an equal treated "
                "proportion in every block; got per-block counts "
                f"{design.n_tk} for sizes {tuple(int(s) for s in table.block_sizes)}"
            )
        row["diff"] = row["var_cr"] - row["var_bk"]
        row["ratio"] = None if row["var_cr"] == 0 else row["var_bk"] / row["var_cr"]
        if equal_p:
            report = var_diff_finite(table, n_t / table.n)
            row["between_term"] = report.decomposition["between_term"]
            row["within_term"] = report.decomposition["within_term"]
    manifest = ManifestWriter(
        "variance",
        {"table": str(args.table), "design": args.design, "oracle": args.oracle},
        args.seed,
        out,
    )
    if args.oracle:
        checks = [("cr", CompleteRandomization(n_t))] + ([("bk", design)] if blocked else [])
        match = True
        for name, oracle_design in checks:
            moments = exact_moments(table, oracle_design, "tau_hat", cap=args.cap)
            manifest.record_enumeration(moments)
            oracle, closed = moments.variance, row[f"var_{name}"]
            row[f"oracle_var_{name}"] = oracle
            # Scaled by the larger magnitude with no absolute floor, so tiny
            # outcome scales are checked as strictly as large ones.
            match &= abs(oracle - closed) <= ORACLE_MATCH_RTOL * max(abs(oracle), abs(closed))
        row["oracle_match"] = match
    write_report_csv(
        manifest.csv_path("variance_report.csv"),
        list(row.keys()),
        [row],
        args.seed,
        header_comment=not args.no_header_comment,
    )
    manifest.finish()
    return 0


COMPARE_COLUMNS = [
    "framework",
    "mode",
    "var_cr",
    "var_bk",
    "diff",
    "ratio",
    "between_term",
    "unequal_p_term",
    "mc_se",
    "reps",
]


def _require_args(args, names):
    missing = [f"--{name.replace('_', '-')}" for name in names if getattr(args, name) is None]
    if missing:
        raise ValueError(
            f"framework {args.framework!r} needs {', '.join(missing)}"
        )


def cmd_compare(args) -> int:
    out = _out_dir(args)
    mode = None
    if args.framework in ("strat", "unequal"):
        _require_args(args, ["n", "p"])
    if args.framework == "unequal":
        _require_args(args, ["p_k"])
    if args.framework == "mixed":
        _require_args(args, ["n_t", "n_c"])
    if args.framework in ("site", "two-stage"):
        _require_args(args, ["k_draw", "p"])
    if args.framework == "two-stage":
        _require_args(args, ["n_per_stratum"])
    if args.framework == "site":
        table = read_table_csv(args.input)
        report = var_diff_site_sampling(
            table, k_draw=args.k_draw, p=args.p, reps=args.reps, seed=args.seed
        )
    else:
        moments = read_strata_csv(args.input)
        if args.framework == "strat":
            report = var_diff_strat(moments, n=args.n, p=args.p)
        elif args.framework == "unequal":
            p_k = [float(v) for v in args.p_k.split(",")]
            report = var_diff_strat_unequal(moments, n=args.n, p_k=p_k, p=args.p)
        elif args.framework == "mixed":
            mode = {
                "srs-vs-blocked": MODE_CR_SRS_VS_BK_STRAT,
                "srs-vs-stratified-cr": MODE_CR_SRS_VS_CR_STRAT,
            }[args.mode]
            report = var_diff_mixed(moments, n_t=args.n_t, n_c=args.n_c, mode=mode)
        elif args.framework == "two-stage":
            sizes = [int(v) for v in args.n_per_stratum.split(",")]
            if len(sizes) == 1:
                sizes = sizes * moments.num_strata
            report = var_diff_two_stage(
                moments, sizes, k_draw=args.k_draw, p=args.p, reps=args.reps, seed=args.seed
            )
        else:
            raise ValueError(f"unknown framework {args.framework!r}")
    decomposition = report.decomposition or {}
    row = {
        "framework": report.framework,
        "mode": mode,
        "var_cr": report.var_cr,
        "var_bk": report.var_bk,
        "diff": report.diff,
        "ratio": report.ratio,
        "between_term": decomposition.get("between_term"),
        "unequal_p_term": decomposition.get("unequal_p_term"),
        "mc_se": report.mc_se,
        "reps": report.reps,
    }
    manifest = ManifestWriter(
        "compare",
        {"input": str(args.input), "framework": args.framework, "mode": mode},
        args.seed,
        out,
    )
    if report.reps is not None:
        manifest.extra.update(method="monte_carlo", counts={"reps": report.reps})
    write_report_csv(
        manifest.csv_path("compare_report.csv"),
        COMPARE_COLUMNS,
        [row],
        args.seed,
        header_comment=not args.no_header_comment,
    )
    manifest.finish()
    return 0


def cmd_study(args) -> int:
    out = _out_dir(args)
    overrides = None
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            overrides = json.load(fh)
    rows, columns, resolved, counts = run_study(
        args.name,
        config_overrides=overrides,
        seed=args.seed,
        reps=args.reps,
        threads=args.threads,
    )
    manifest = ManifestWriter(
        "study",
        {"name": args.name, "config": resolved, "reps": args.reps},
        args.seed,
        out,
    )
    manifest.extra["counts"] = counts
    write_report_csv(
        manifest.csv_path(f"study_{args.name.replace('-', '_')}.csv"),
        columns,
        rows,
        args.seed,
        header_comment=not args.no_header_comment,
    )
    manifest.finish()
    return 0


def cmd_replay(args) -> int:
    out = _out_dir(args)
    data = read_replay_csv(args.table)
    strategies = (
        read_strategies_json(args.strategies)
        if args.strategies
        else default_strategies(args.reps)
    )
    rows = run_replay(data, strategies, seed=args.seed, default_allocations=args.reps)
    manifest = ManifestWriter(
        "replay",
        {
            "table": str(args.table),
            "strategies": [{"name": s.name, "params": s.params} for s in strategies],
        },
        args.seed,
        out,
    )
    write_report_csv(
        manifest.csv_path("replay_report.csv"),
        REPLAY_COLUMNS,
        rows,
        args.seed,
        header_comment=not args.no_header_comment,
    )
    manifest.finish()
    return 0


def cmd_enumerate(args) -> int:
    out = _out_dir(args)
    table = read_table_csv(args.table)
    design = _parse_design(args.design)
    moments = exact_moments(table, design, args.statistic, cap=args.cap)
    row = {
        "design": args.design,
        "statistic": args.statistic,
        "count": moments.count,
        "mean": moments.mean,
        "variance": moments.variance,
    }
    manifest = ManifestWriter(
        "enumerate",
        {"table": str(args.table), "design": args.design, "statistic": args.statistic},
        args.seed,
        out,
    )
    manifest.record_enumeration(moments)
    write_report_csv(
        manifest.csv_path("enumerate_report.csv"),
        list(row.keys()),
        [row],
        args.seed,
        header_comment=not args.no_header_comment,
    )
    manifest.finish()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockcalc",
        description="Variance comparisons of blocked vs. completely randomized designs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_var = sub.add_parser("variance", help="design variances for one table")
    p_var.add_argument("table", help="table CSV (unit_id,block,y_t,y_c)")
    p_var.add_argument("--design", required=True, help="cr:<n_t> or blocked:<file.json>")
    p_var.add_argument("--oracle", action="store_true", help="cross-check by enumeration")
    p_var.add_argument(
        "--decompose",
        action="store_true",
        help="fail unless the between/within decomposition applies",
    )
    p_var.add_argument("--cap", type=int, default=DEFAULT_CAP)
    _add_common(p_var)
    p_var.set_defaults(fn=cmd_variance)

    p_cmp = sub.add_parser("compare", help="superpopulation variance comparisons")
    p_cmp.add_argument("input", help="strata CSV (or table CSV for --framework site)")
    p_cmp.add_argument(
        "--framework",
        required=True,
        choices=["strat", "unequal", "mixed", "two-stage", "site"],
    )
    p_cmp.add_argument("--n", type=int, help="total sample size (strat/unequal)")
    p_cmp.add_argument("--p", type=float, help="treated proportion")
    p_cmp.add_argument("--p-k", help="comma-separated per-stratum proportions (unequal)")
    p_cmp.add_argument(
        "--mode",
        choices=["srs-vs-blocked", "srs-vs-stratified-cr"],
        default="srs-vs-blocked",
        help="which mixed-framework comparison to run",
    )
    p_cmp.add_argument("--n-t", type=int, help="treated count (mixed)")
    p_cmp.add_argument("--n-c", type=int, help="control count (mixed)")
    p_cmp.add_argument("--k-draw", type=int, help="blocks drawn per replication")
    p_cmp.add_argument(
        "--n-per-stratum",
        help="units drawn per selected stratum (two-stage); one value or one per row",
    )
    _add_common(p_cmp, reps_default=10_000)
    p_cmp.set_defaults(fn=cmd_compare)

    p_study = sub.add_parser("study", help="run a canonical simulation study")
    p_study.add_argument(
        "name", choices=["ratio-sweep", "flexible-blocking", "misconceptions"]
    )
    p_study.add_argument("--config", help="JSON file overriding config fields")
    _add_common(p_study, reps_default=None)
    p_study.add_argument("--reps", type=int, default=None)
    p_study.set_defaults(fn=cmd_study)

    p_replay = sub.add_parser("replay", help="replay blocking strategies on a realized CSV")
    p_replay.add_argument("table", help="replay CSV (unit_id,block,z,baseline,y)")
    p_replay.add_argument("--strategies", help="JSON list of {name, params}")
    _add_common(p_replay, reps_default=1000)
    p_replay.set_defaults(fn=cmd_replay)

    p_enum = sub.add_parser("enumerate", help="exact moments over all assignments")
    p_enum.add_argument("table")
    p_enum.add_argument("--design", required=True)
    p_enum.add_argument(
        "--statistic",
        default="tau_hat",
        choices=["tau_hat", "var_est_cr", "var_est_blocked"],
    )
    p_enum.add_argument("--cap", type=int, default=DEFAULT_CAP)
    _add_common(p_enum)
    p_enum.set_defaults(fn=cmd_enumerate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, KeyError) as err:
        print(f"blockcalc: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
