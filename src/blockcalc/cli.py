"""Command-line front end.

Commands: ``variance``, ``compare``, ``study``, ``replay``, ``enumerate``.
:func:`main` owns every run: it starts the ``run_manifest.json`` (stamping
``started_at`` and creating ``--out``) before any input is read, calls the
command's ``cmd_*`` function, which returns one report, writes that report
CSV, then finishes the manifest. A ``ValueError``, ``OSError``, ``KeyError``
or ``MemoryError`` on the way ends the run in one ``blockcalc: error:`` line.

The argument parser is built once per process, on the first :func:`main`
call, and reused by every later call. It holds no function objects:
:func:`main` looks the ``cmd_<command>`` function up by name in this module
when it runs, so a ``cmd_*`` function wrapped or replaced after the first
call is the one that runs.

The manifest records the command, a digest of the fully resolved
configuration, the master seed, the library version, timestamps, the
output file list and the ``environment`` (Python and numpy versions,
platform and CPU count); runs that enumerate assignments (``enumerate``,
``variance --oracle``) add ``method`` and the ``counts`` of ``assignments``
and of group subsets ``evaluated``, which ``--cap`` bounds. Monte Carlo
comparisons (``compare --framework site|two-stage``) add ``method`` and the
``reps``, replays that draw ``random-blocks`` partitions add ``method`` and
the ``counts`` of allocations drawn and batches of their one shared sweep,
and studies add the ``counts`` of reps, chunks and workers (always 1). Those
batches and chunks are at most ``oracle.chunk_rows(n)`` reps, partitions or
(for ``misconceptions``) grid points of ``n`` units; ``ratio-sweep`` scores
its whole grid as one chunk. Every manifest has ``timings``: the seconds
spent reading inputs (``load_s``), computing the report (``compute_s``) and
writing the report CSV (``write_s``). Report CSVs start with a comment line
``# blockcalc <version> seed=<seed>`` unless ``--no-header-comment`` is
given. Reruns with the same seed and config are byte-identical. An existing
report or manifest is overwritten in place and cut to its new length
(:func:`_write_text`); symlinks are followed as before. Every
command runs in this one process; ``--threads`` (at least 1) is accepted
for compatibility and changes nothing.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import functools
import hashlib
import io
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .oracle import DEFAULT_CAP, STATISTICS, exact_moments
from .pop_model import (
    Blocked,
    CompleteRandomization,
    equal_proportions,
    read_json,
    read_strata_csv,
    read_table_csv,
    validate_design,
)
from .replay import (
    DEFAULT_ALLOCATIONS,
    REPLAY_COLUMNS,
    default_strategies,
    read_replay_csv,
    read_strategies_json,
    run_replay,
)
from .studies import STUDIES, run_study
from .variance_theory import (
    DEFAULT_REPS,
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

#: What every ``cmd_*`` returns to :func:`main`: the report file name, its
#: columns, its rows and the resolved configuration for the manifest.
Report = tuple[str, list, list, dict]


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


def _write_text(path, text: str) -> None:
    """Write ``text`` as UTF-8 over the file at ``path``, creating it if missing.

    The file is opened without ``O_TRUNC`` and cut to the bytes written once
    they are written, or once a write raises, so old bytes never follow new
    ones. Truncating a non-empty file to zero at open costs ext4 about 0.1 ms
    (its ``auto_da_alloc`` replace-by-truncate path); writing over it and
    cutting it costs a few microseconds. A symlink is followed, and an
    existing file keeps its inode, links and mode; a new one gets 0o666 less
    the umask. A file that is no longer than what was written, such as a
    device, is not cut.
    """
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    written = 0
    try:
        while written < len(data):
            written += os.write(fd, data[written:])
    finally:
        try:
            if os.fstat(fd).st_size > written:
                os.ftruncate(fd, written)
        finally:
            os.close(fd)


def write_report_csv(path, columns, rows, seed, header_comment=True):
    text = io.StringIO(newline="")
    if header_comment:
        text.write(f"# blockcalc {__version__} seed={seed}\n")
    writer = csv.writer(text)
    writer.writerow(columns)
    writer.writerows([_fmt(row.get(key)) for key in columns] for row in rows)
    _write_text(path, text.getvalue())


def _config_digest(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()


class ManifestWriter:
    """The manifest of one command run, started before the command does any work.

    Creating it stamps ``started_at``, takes ``--seed`` and ``--out`` from the
    parsed ``args`` and creates the output directory; :meth:`mark` closes one
    stage of the run, and :meth:`finish` writes the manifest with the
    resolved configuration.
    """

    def __init__(self, command: str, args):
        self.started_at = datetime.datetime.now(datetime.timezone.utc).isoformat()
        self._clock = time.perf_counter()
        self.timings: dict[str, float] = {}
        self.command = command
        self.seed = args.seed
        self.out_dir = Path(args.out)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.outputs: list[str] = []
        self.extra: dict = {}

    def record_enumeration(self, moments) -> None:
        """Add one exact enumeration's assignments and evaluated subsets to the manifest."""
        counts = self.extra.setdefault("counts", {"assignments": 0, "evaluated": 0})
        counts["assignments"] += moments.count
        counts["evaluated"] += moments.evaluated
        self.extra["method"] = "enumeration"

    def mark(self, stage: str) -> None:
        """Record the seconds since the last mark, or since the start, as ``<stage>_s``."""
        now = time.perf_counter()
        self.timings[f"{stage}_s"] = now - self._clock
        self._clock = now

    def csv_path(self, name: str) -> Path:
        path = self.out_dir / name
        self.outputs.append(name)
        return path

    def finish(self, config: dict) -> Path:
        # uname, not platform.platform(), which reads the interpreter binary
        # for its libc version (about 20 ms per run).
        uname = platform.uname()
        manifest = {
            "command": self.command,
            "config_digest": _config_digest(config),
            "config": config,
            "seed": self.seed,
            "version": __version__,
            "started_at": self.started_at,
            "finished_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "outputs": self.outputs,
            "timings": self.timings,
            "environment": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "platform": f"{uname.system}-{uname.release}-{uname.machine}",
                "cpu_count": os.cpu_count(),
            },
            **self.extra,
        }
        path = self.out_dir / "run_manifest.json"
        _write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        return path


def _parse_list(flag: str, text: str, kind) -> list:
    """The comma-separated ``kind`` values of ``text``; a bad one is an error naming ``flag``."""
    try:
        return [kind(v) for v in text.split(",")]
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise ValueError(f"{flag} must be comma-separated {noun}, got {text!r}") from None


def _parse_design(text: str):
    kind, _, value = text.partition(":")
    if kind == "cr":
        try:
            n_t = int(value)
        except ValueError:
            raise ValueError(f"--design cr:<n_t> needs an integer n_t, got {text!r}") from None
        return CompleteRandomization(n_t=n_t)
    if kind == "blocked":
        payload = read_json(value, "design")
        n_tk = payload.get("n_tk") if isinstance(payload, dict) else None
        # bool is a subclass of int; JSON true/false are not counts.
        if not isinstance(n_tk, list) or not all(type(m) is int for m in n_tk):
            raise ValueError(
                f"design file {value} must hold a JSON object whose n_tk is a list of integers"
            )
        return Blocked(tuple(n_tk))
    raise ValueError("design must be 'cr:<n_t>' or 'blocked:<file.json>'")


def _add_common(parser):
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help="at least 1; accepted for compatibility, changes nothing",
    )
    parser.add_argument(
        "--no-header-comment",
        action="store_true",
        help="omit the leading comment line from report CSVs",
    )


def cmd_variance(args, manifest: ManifestWriter) -> Report:
    table = read_table_csv(args.table)
    design = _parse_design(args.design)
    manifest.mark("load")
    validate_design(design, table)
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
    config = {"table": str(args.table), "design": args.design, "oracle": args.oracle}
    return "variance_report.csv", list(row), [row], config


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

#: The options each ``compare --framework`` needs. ``unequal`` takes ``p``
#: from the weights and ``--p-k``, and checks a ``--p`` that is given.
FRAMEWORK_NEEDS = {
    "strat": ["n", "p"],
    "unequal": ["n", "p_k"],
    "mixed": ["n_t", "n_c"],
    "two-stage": ["k_draw", "p", "n_per_stratum"],
    "site": ["k_draw", "p"],
}


def cmd_compare(args, manifest: ManifestWriter) -> Report:
    needs = FRAMEWORK_NEEDS[args.framework]
    missing = [f"--{name.replace('_', '-')}" for name in needs if getattr(args, name) is None]
    if missing:
        raise ValueError(f"framework {args.framework!r} needs {', '.join(missing)}")
    if args.p is not None and not math.isfinite(args.p):
        raise ValueError(f"--p must be finite, got {args.p}")
    if args.framework not in ("site", "two-stage") and args.reps is not None:
        raise ValueError(
            f"framework {args.framework!r} takes no --reps (it is a closed form), got {args.reps}"
        )
    reps = DEFAULT_REPS if args.reps is None else args.reps
    mode = None
    site = args.framework == "site"
    data = read_table_csv(args.input) if site else read_strata_csv(args.input)
    manifest.mark("load")
    if site:
        report = var_diff_site_sampling(
            data, k_draw=args.k_draw, p=args.p, reps=reps, seed=args.seed
        )
    elif args.framework == "strat":
        report = var_diff_strat(data, n=args.n, p=args.p)
    elif args.framework == "unequal":
        p_k = _parse_list("--p-k", args.p_k, float)
        if not all(map(math.isfinite, p_k)):
            raise ValueError(f"--p-k must be finite, got {args.p_k!r}")
        report = var_diff_strat_unequal(data, n=args.n, p_k=p_k, p=args.p)
    elif args.framework == "mixed":
        mode = {
            "srs-vs-blocked": MODE_CR_SRS_VS_BK_STRAT,
            "srs-vs-stratified-cr": MODE_CR_SRS_VS_CR_STRAT,
        }[args.mode]
        report = var_diff_mixed(data, n_t=args.n_t, n_c=args.n_c, mode=mode)
    else:
        sizes = _parse_list("--n-per-stratum", args.n_per_stratum, int)
        if len(sizes) == 1:
            sizes = sizes * data.num_strata
        report = var_diff_two_stage(
            data, sizes, k_draw=args.k_draw, p=args.p, reps=reps, seed=args.seed
        )
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
    if report.reps is not None:
        manifest.extra.update(method="monte_carlo", counts={"reps": report.reps})
    config = {"input": str(args.input), "framework": args.framework, "mode": mode}
    return "compare_report.csv", COMPARE_COLUMNS, [row], config


def cmd_study(args, manifest: ManifestWriter) -> Report:
    overrides = read_json(args.config, "config") if args.config else None
    manifest.mark("load")
    rows, columns, resolved, counts = run_study(
        args.name,
        config_overrides=overrides,
        seed=args.seed,
        reps=args.reps,
    )
    manifest.extra["counts"] = counts
    config = {"name": args.name, "config": resolved, "reps": args.reps}
    return f"study_{args.name.replace('-', '_')}.csv", columns, rows, config


def cmd_replay(args, manifest: ManifestWriter) -> Report:
    if args.reps < 1:
        raise ValueError(f"--reps must be at least 1, got {args.reps}")
    data = read_replay_csv(args.table)
    strategies = (
        read_strategies_json(args.strategies)
        if args.strategies
        else default_strategies(args.reps)
    )
    manifest.mark("load")
    counts: dict = {}
    rows = run_replay(
        data, strategies, seed=args.seed, default_allocations=args.reps, counts=counts
    )
    if counts:
        manifest.extra.update(method="monte_carlo", counts=counts)
    named = [{"name": s.name, "params": s.params} for s in strategies]
    config = {"table": str(args.table), "strategies": named}
    return "replay_report.csv", REPLAY_COLUMNS, rows, config


def cmd_enumerate(args, manifest: ManifestWriter) -> Report:
    table = read_table_csv(args.table)
    design = _parse_design(args.design)
    manifest.mark("load")
    moments = exact_moments(table, design, args.statistic, cap=args.cap)
    row = {
        "design": args.design,
        "statistic": args.statistic,
        "count": moments.count,
        "mean": moments.mean,
        "variance": moments.variance,
    }
    manifest.record_enumeration(moments)
    config = {"table": str(args.table), "design": args.design, "statistic": args.statistic}
    return "enumerate_report.csv", list(row), [row], config


#: Help of ``--cap``, which :func:`main` checks before any command runs.
_CAP_HELP = "most group subsets to evaluate (under cr:, assignments), at least 1"


def build_parser() -> argparse.ArgumentParser:
    """A new parser of every command's arguments.

    It must hold no function objects: one parser serves every :func:`main`
    call of a process, and ``cmd_*`` functions wrapped or replaced after it
    was built must still be the ones that run.
    """
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
    p_var.add_argument("--cap", type=int, default=DEFAULT_CAP, help=_CAP_HELP)
    _add_common(p_var)

    p_cmp = sub.add_parser("compare", help="superpopulation variance comparisons")
    p_cmp.add_argument("input", help="strata CSV (or table CSV for --framework site)")
    p_cmp.add_argument(
        "--framework",
        required=True,
        choices=list(FRAMEWORK_NEEDS),
    )
    p_cmp.add_argument("--n", type=int, help="total sample size (strat/unequal)")
    p_cmp.add_argument("--p", type=float, help="treated proportion (optional for unequal)")
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
    _add_common(p_cmp)
    p_cmp.add_argument(
        "--reps", type=int, help=f"Monte Carlo reps (site, two-stage; default {DEFAULT_REPS})"
    )

    p_study = sub.add_parser("study", help="run a canonical simulation study")
    p_study.add_argument("name", choices=list(STUDIES))
    p_study.add_argument("--config", help="JSON file overriding config fields")
    _add_common(p_study)
    p_study.add_argument("--reps", type=int)

    p_replay = sub.add_parser("replay", help="replay blocking strategies on a realized CSV")
    p_replay.add_argument("table", help="replay CSV (unit_id,block,z,baseline,y)")
    p_replay.add_argument("--strategies", help="JSON list of {name, params}")
    _add_common(p_replay)
    p_replay.add_argument("--reps", type=int, default=DEFAULT_ALLOCATIONS)

    p_enum = sub.add_parser("enumerate", help="exact moments over all assignments")
    p_enum.add_argument("table")
    p_enum.add_argument("--design", required=True)
    p_enum.add_argument(
        "--statistic",
        default="tau_hat",
        choices=STATISTICS,
    )
    p_enum.add_argument("--cap", type=int, default=DEFAULT_CAP, help=_CAP_HELP)
    _add_common(p_enum)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built by the first :func:`main` call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    command = globals()[f"cmd_{args.command}"]
    try:
        for flag, least in (("threads", 1), ("seed", 0), ("cap", 1)):
            if getattr(args, flag, least) < least:
                raise ValueError(f"--{flag} must be at least {least}, got {getattr(args, flag)}")
        manifest = ManifestWriter(args.command, args)
        name, columns, rows, config = command(args, manifest)
        manifest.mark("compute")
        write_report_csv(
            manifest.csv_path(name),
            columns,
            rows,
            args.seed,
            header_comment=not args.no_header_comment,
        )
        manifest.mark("write")
        manifest.finish(config)
    except (ValueError, OSError, KeyError, MemoryError) as err:
        print(f"blockcalc: error: {err or type(err).__name__}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
