"""blockcalc benchmark: seeded workloads, end-to-end metrics, a traced run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cli_mc --seed 1 --seconds 24 --trace 0

One process, one client, jobs run back to back (closed loop), every command
with ``--threads 1``. The run imports blockcalc from ``src/`` of the
checkout, builds the workload's inputs from the seed (several times, to time
set-up), runs one warm-up pass, then repeats passes of the job list until
``--seconds`` have been measured, checking every job's output on every pass.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of three
set-ups, each a fresh interpreter's import of numpy and blockcalc plus one
input generation with parse-back), ``wall_s`` (median pass),
``work_per_s`` (the workload's work items per second of ``wall_s``) and
``peak_rss_mb``. Pass times are rescaled to a fixed machine speed measured
by a reference task timed before every job (see ``speed.py``). ``--trace 1``
alternates untraced passes with passes traced by wrappers installed around
blockcalc's public functions, and reports the per-layer metrics (raw times)
as medians over the traced passes.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; metric names and units come from
``BENCHMARK.json``. A fuller record (environment, per-job times, failures
and, when tracing, every span) is written to ``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing  # standard library only; modules that import numpy load in main()

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 3
MIN_PASSES = 3
MIN_TRACED_PASSES = 2

BLOCKCALC_MODULES = (
    "pop_model", "randomizer", "oracle", "variance_theory", "variance_estimation",
    "blocking_lab", "mc", "studies", "replay", "cli",
)

WORK_NAMES = {"draws": "draws_per_s", "assignments": "assignments_per_s", "unit-jobs": "units_per_s"}

# Per-layer metrics. A name ending in ``.s`` is the summed self time of the
# span of that name; ``.calls`` its call count.
SELF_TIMES = (
    "pop_model.read_table_csv", "pop_model.table_build", "pop_model.summarize",
    "pop_model.pooled_decomposition", "randomizer.assign", "variance_theory.neyman",
    "variance_theory.var_diff_finite", "variance_estimation.var_est",
    "variance_estimation.varest_variability", "variance_estimation.closed_forms",
    "oracle.exact_moments", "oracle.iterate", "oracle.statistic", "blocking_lab.generate",
    "blocking_lab.make_blocks", "blocking_lab.within_variance_ratio", "blocking_lab.r2_blocks",
    "mc.rep_rng", "studies.flexible_blocking", "studies.misconceptions", "studies.ratio_sweep",
    "replay.run_replay", "cli.variance", "cli.compare", "cli.study", "cli.replay",
    "cli.enumerate", "cli.write",
)
CALLS = (
    "pop_model.table_build", "pop_model.summarize", "randomizer.assign", "variance_theory.neyman",
    "variance_theory.var_diff_finite", "variance_estimation.var_est", "oracle.exact_moments",
    "oracle.statistic", "blocking_lab.generate", "mc.rep_rng",
)
COUNTS = (
    "pop_model.block_indices.calls", "variance_estimation.observed_sample.calls",
    "oracle.assignments.cr", "oracle.assignments.blocked", "mc.chunks", "mc.workers",
    "replay.allocations",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer, traced_wall: float, work: int) -> dict:
    metrics = {f"{name}.s": tracer.self_s(name) for name in SELF_TIMES}
    metrics.update({f"{name}.calls": tracer.calls(name) for name in CALLS})
    counts = tracer.counts
    metrics.update({name: counts[name] for name in COUNTS})
    metrics["variance_theory.site_sampling.ms_per_rep"] = 1e3 * _ratio(
        tracer.total_s("variance_theory.site_sampling"), counts["variance_theory.site_sampling.reps"]
    )
    metrics["variance_theory.two_stage.us_per_rep"] = 1e6 * _ratio(
        tracer.total_s("variance_theory.two_stage"), counts["variance_theory.two_stage.reps"]
    )
    for kind in ("cr", "blocked"):
        metrics[f"oracle.{kind}.us_per_assignment"] = 1e6 * _ratio(
            tracer.enumeration_s[kind], counts[f"oracle.assignments.{kind}"]
        )
    attributed = tracer.attributed_s()
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.attributed_s"] = attributed
    metrics["trace.unattributed_s"] = traced_wall - attributed
    metrics["bench.work_items"] = work
    return metrics


def exact_counts(metrics: dict) -> dict:
    """The work counters of one traced pass, which must repeat exactly."""
    return {k: v for k, v in metrics.items() if isinstance(v, int)}


def environment(numpy_version: str) -> dict:
    caches = {}
    try:
        getconf = subprocess.run(
            ["getconf", "-a"], capture_output=True, text=True, timeout=10, check=False
        ).stdout
    except (OSError, subprocess.SubprocessError):
        getconf = ""
    for line in getconf.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].endswith("CACHE_SIZE") and parts[1] != "0":
            caches[parts[0]] = int(parts[1])
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "cache_bytes": caches,
        "mode": "single process, one client, closed loop, jobs back to back, --threads 1",
        "scaling": "not reported: a single-process baseline on a small shared machine",
    }


class Runner:
    """Runs passes of a plan, times each job and collects check failures."""

    def __init__(self, plan, reference):
        self.plan = plan
        self.reference = reference
        self.attempted = 0
        self.failures: list = []
        self.job_times: dict = {job.name: [] for job in plan.jobs}

    def run_pass(self, label: str, tracer=None) -> tuple[float, float]:
        """One pass of the job list: (summed job time, mean reference time)."""
        elapsed = 0.0
        references = []
        for job in self.plan.jobs:
            references.append(self.reference())
            if tracer is not None:
                tracer.job = f"{label}/{job.name}"
            self.attempted += 1
            start = time.perf_counter()
            try:
                result = job.run()
            except Exception as err:  # a raising job is a failed job; keep measuring
                elapsed += time.perf_counter() - start
                traceback.print_exc()
                self.failures.append(f"{label} {job.name}: raised {type(err).__name__}: {err}")
                continue
            duration = time.perf_counter() - start
            elapsed += duration
            if tracer is None and label != "warmup":
                self.job_times[job.name].append(duration)
            try:
                errors = job.check(result)
            except Exception as err:  # an output the checker cannot read is wrong
                errors = [f"{job.name}: check raised {type(err).__name__}: {err}"]
            if errors:
                self.failures.append(f"{label} " + "; ".join(errors))
        return elapsed, statistics.fmean(references)


def measure(runner, seconds: float, traced: bool, bc):
    """Timed passes for ``seconds``; with ``traced`` every other pass is traced."""
    untraced, traced_walls, layers, spans = [], [], [], []
    start = time.perf_counter()
    index = 0
    while (
        time.perf_counter() - start < seconds
        or len(untraced) < (MIN_TRACED_PASSES if traced else MIN_PASSES)
        or (traced and len(traced_walls) < MIN_TRACED_PASSES)
    ):
        index += 1
        if traced and index % 2 == 0:
            tracer = tracing.Tracer()
            installed = tracing.Installation(tracer, bc)
            try:
                wall, _ = runner.run_pass(f"traced{index}", tracer)
            finally:
                installed.remove()
            traced_walls.append(wall)
            layers.append(layer_metrics(tracer, wall, runner.plan.work))
            spans.extend(tracer.spans)
        else:
            untraced.append(runner.run_pass(f"pass{index}"))
    return untraced, traced_walls, layers, spans


def fresh_import_s() -> float:
    """Time a fresh interpreter takes to import numpy and every blockcalc module.

    The child times itself: timing it from here would add the polling
    interval of a wait with a timeout (up to 50 ms) to the measurement.
    """
    modules = ", ".join(["numpy"] + [f"blockcalc.{name}" for name in BLOCKCALC_MODULES])
    code = (
        f"import sys, time; sys.path.insert(0, {str(ROOT / 'src')!r}); start = time.perf_counter(); "
        f"import {modules}; print(time.perf_counter() - start)"
    )
    child = subprocess.run(
        [sys.executable, "-c", code], check=True, timeout=120, capture_output=True, text=True
    )
    return float(child.stdout)


def load_blockcalc():
    """Import numpy and every blockcalc module from ``src/`` of this checkout.

    Single-threaded numpy keeps the run a one-process, one-thread baseline.
    Returns ``None`` (after saying why) when the checkout has no sources.
    """
    src = ROOT / "src"
    if not (src / "blockcalc" / "__init__.py").is_file():
        print(f"perfbench: no blockcalc sources under {src}", file=sys.stderr)
        return None
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(src))
    import importlib

    import numpy  # noqa: F401  (timed as part of the import)

    import blockcalc

    for name in BLOCKCALC_MODULES:
        importlib.import_module(f"blockcalc.{name}")
    if not Path(blockcalc.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: imported blockcalc from {blockcalc.__file__}, not {src}", file=sys.stderr)
        return None
    return blockcalc


def main(argv=None) -> int:
    process_start = time.perf_counter()
    parser = argparse.ArgumentParser(description="blockcalc benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    import_start = time.perf_counter()
    blockcalc = load_blockcalc()
    import_s = time.perf_counter() - import_start
    if blockcalc is None:
        return 2

    import numpy

    import speed
    import workloads

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        # One set-up is a fresh interpreter's import plus one input generation
        # with parse-back. Not rescaled: neither tracked the reference task in
        # measurements, and rescaling them widened their spread.
        import_times, setup_times = [], []
        for i in range(SETUP_REPEATS):
            import_times.append(fresh_import_s())
            start = time.perf_counter()
            plan = workloads.SETUPS[args.workload](blockcalc, args.seed, run_dir / f"setup{i}")
            setup_times.append(time.perf_counter() - start)
        setup_s = statistics.median(map(sum, zip(import_times, setup_times)))

        runner = Runner(plan, speed.reference)
        runner.run_pass("warmup")
        untraced, traced_walls, layers, spans = measure(runner, args.seconds, bool(args.trace), blockcalc)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    wall_s = statistics.median(speed.rescale(t, r) for t, r in untraced)
    raw_wall_s = statistics.median(t for t, _ in untraced)
    if args.trace:
        # Counters repeat exactly (checked below); times are medians.
        metrics = {
            name: value if isinstance(value, int) else statistics.median(layer[name] for layer in layers)
            for name, value in layers[0].items()
        }
        metrics["trace.untraced_wall_s"] = raw_wall_s
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - raw_wall_s
        repeated = all(exact_counts(layer) == exact_counts(layers[0]) for layer in layers)
        if not repeated:
            runner.failures.append("work counters differ between traced passes of one seed")
        wanted = spec["per_layer"]
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "work_per_s": plan.work / wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wanted = spec["end_to_end"]
    if set(metrics) != {m["name"] for m in wanted}:
        print(f"perfbench: metrics {sorted(set(metrics) ^ {m['name'] for m in wanted})} "
              "differ from BENCHMARK.json", file=sys.stderr)
        return 2

    failed = len(runner.failures)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(numpy.__version__),
        "work_per_pass": plan.work,
        "work_unit": plan.work_unit,
        "in_process_import_s": import_s,
        "fresh_import_s": import_times,
        "input_setup_s": setup_times,
        "raw_untraced_pass_s": [t for t, _ in untraced],
        "untraced_pass_reference_s": [r for _, r in untraced],
        "raw_wall_s": raw_wall_s,
        "raw_traced_pass_s": traced_walls,
        "job_median_s": {k: statistics.median(v) for k, v in runner.job_times.items() if v},
        "attempted": runner.attempted,
        "failures": runner.failures,
        "metrics": metrics,
        "total_s": time.perf_counter() - process_start,
    }
    if args.trace:
        record["layers_per_traced_pass"] = layers
        record["span_fields"] = ["name", "start", "end", "parent", "job", "calls", "total_s", "self_s"]
        record["spans"] = spans
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    result_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    print(f"# environment {json.dumps(record['environment'])}")
    print(f"# {args.workload} seed={args.seed}: {len(untraced)} untraced and {len(traced_walls)} traced "
          f"passes, {plan.work} {plan.work_unit} per pass; record in {result_path.relative_to(ROOT)}")
    for name in sorted(metrics):
        unit = next(m["unit"] for m in wanted if m["name"] == name)
        alias = f" ({WORK_NAMES[plan.work_unit]})" if name == "work_per_s" else ""
        print(f"{name} = {metrics[name]!r} {unit}{alias}")
    if not args.trace:
        print(f"# raw median pass {raw_wall_s!r} s; wall_s and work_per_s are at the reference speed")
    print(f"failed_ratio = {failed / runner.attempted!r} ({failed} of {runner.attempted} jobs)")
    for failure in runner.failures[:20]:
        print(f"# FAILED {failure}")
    units = {m["name"]: m["unit"] for m in wanted}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
