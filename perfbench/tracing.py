"""In-memory span tracer and the runtime wrappers that feed it.

The wrappers are installed by the benchmark around blockcalc's public
functions for one traced pass and removed afterwards, so untraced passes run
the library exactly as shipped. Every module attribute that is the same
function object is replaced, which covers names callers import, such as
``variance_theory.summarize``.

Self time is computed as each span closes: its duration minus the durations
of its direct children. Calls made underneath an enumeration or an
estimator-variability call (one per assignment or per draw) are aggregated
per enclosing call instead of being kept one span each, which bounds memory.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

#: Spans whose descendants are aggregated per call rather than kept one by one.
AGGREGATORS = frozenset({"oracle.exact_moments", "variance_estimation.varest_variability"})


class Tracer:
    """Span stack, finished spans, per-name totals and exact work counters.

    A finished span is ``(name, start, end, parent, job, calls, total_s,
    self_s)``; ``parent`` is the index of the parent span or ``None``. An
    aggregated record has ``start`` and ``end`` set to ``None`` and counts
    every call of that name under one enclosing span.
    """

    def __init__(self):
        self.spans: list = []
        self.stack: list = []  # [name, start, child_s, span_index, owner, children]
        self.totals: dict = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()  # exact work counts
        self.enumeration_s: Counter = Counter()  # time of enumerating calls, by design
        self.job = None

    def enter(self, name: str) -> None:
        owner = None
        index = None
        if self.stack:
            parent = self.stack[-1]
            if parent[4] is not None:
                owner = parent[4]
            elif parent[0] in AGGREGATORS:
                owner = parent
        if owner is None:
            index = len(self.spans)
            self.spans.append(None)
        self.stack.append([name, time.perf_counter(), 0.0, index, owner, None])

    def exit(self) -> float:
        end = time.perf_counter()
        name, start, child_s, index, owner, children = self.stack.pop()
        duration = end - start
        own = duration - child_s
        if self.stack:
            self.stack[-1][2] += duration
        totals = self.totals.get(name)
        if totals is None:
            totals = self.totals[name] = [0, 0.0, 0.0]
        totals[0] += 1
        totals[1] += duration
        totals[2] += own
        if owner is not None:
            if owner[5] is None:
                owner[5] = {}
            agg = owner[5].get(name)
            if agg is None:
                agg = owner[5][name] = [0, 0.0, 0.0]
            agg[0] += 1
            agg[1] += duration
            agg[2] += own
            return duration
        parent = self.stack[-1][3] if self.stack else None
        self.spans[index] = (name, start, end, parent, self.job, 1, duration, own)
        for child, (calls, total, child_own) in (children or {}).items():
            self.spans.append((child, None, None, index, self.job, calls, total, child_own))
        return duration

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def total_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def attributed_s(self) -> float:
        """Summed self time of every span: the time spent inside blockcalc."""
        return sum(own for _, _, own in self.totals.values())


def _span(tracer, name, fn, post=None):
    sig = inspect.signature(fn) if post else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = tracer.exit()
        if post is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            post(tracer, bound.arguments, result, duration)
        return result

    return wrapper


def _count(tracer, name, fn, amount=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        tracer.counts[name] += 1 if amount is None else amount(args, kwargs, result)
        return result

    return wrapper


def _design_kind(design) -> str:
    return "blocked" if type(design).__name__ == "Blocked" else "cr"


def _iterate(tracer, fn):
    @functools.wraps(fn)
    def wrapper(table, design):
        kind = _design_kind(design)
        inner = fn(table, design)
        while True:
            tracer.enter("oracle.iterate")
            try:
                mask = next(inner)
            except StopIteration:
                return
            finally:
                tracer.exit()
            tracer.counts[f"oracle.assignments.{kind}"] += 1
            yield mask

    return wrapper


def _resolve_statistic(tracer, fn):
    @functools.wraps(fn)
    def wrapper(statistic, design):
        return _span(tracer, "oracle.statistic", fn(statistic, design))

    return wrapper


def _enumeration_time(tracer, arguments, result, duration):
    if getattr(result, "method", "enumeration") == "enumeration":
        tracer.enumeration_s[_design_kind(arguments["design"])] += duration


def _reps(key):
    def post(tracer, arguments, result, duration):
        tracer.counts[key] += arguments["reps"]

    return post


def _allocations(tracer, arguments, result, duration):
    tracer.counts["replay.allocations"] += sum(row["allocations"] or 0 for row in result)


def _map_ordered_workers(tracer, fn):
    @functools.wraps(fn)
    def wrapper(fn_, items, threads=1):
        items = list(items)
        # The pool is sized by ``threads`` alone; one item or one thread runs inline.
        workers = 1 if threads <= 1 or len(items) <= 1 else threads
        tracer.counts["mc.workers"] = max(tracer.counts["mc.workers"], workers)
        return fn(fn_, items, threads)

    return wrapper


def _function_plan(bc):
    """(module, attribute, factory) for every module-level function traced."""

    def span(name, post=None):
        return lambda tracer, fn: _span(tracer, name, fn, post)

    def count(name, amount=None):
        return lambda tracer, fn: _count(tracer, name, fn, amount)

    return [
        (bc.pop_model, "read_table_csv", span("pop_model.read_table_csv")),
        (bc.pop_model, "summarize", span("pop_model.summarize")),
        (bc.pop_model, "pooled_decomposition", span("pop_model.pooled_decomposition")),
        (bc.randomizer, "assign_cr", span("randomizer.assign")),
        (bc.randomizer, "assign_blocked", span("randomizer.assign")),
        (bc.variance_theory, "neyman_var_cr", span("variance_theory.neyman")),
        (bc.variance_theory, "neyman_var_blocked", span("variance_theory.neyman")),
        (bc.variance_theory, "var_diff_finite", span("variance_theory.var_diff_finite")),
        (
            bc.variance_theory,
            "var_diff_site_sampling",
            span("variance_theory.site_sampling", _reps("variance_theory.site_sampling.reps")),
        ),
        (
            bc.variance_theory,
            "var_diff_two_stage",
            span("variance_theory.two_stage", _reps("variance_theory.two_stage.reps")),
        ),
        (bc.variance_estimation, "var_est_cr", span("variance_estimation.var_est")),
        (bc.variance_estimation, "var_est_blocked", span("variance_estimation.var_est")),
        (
            bc.variance_estimation,
            "varest_variability",
            span("variance_estimation.varest_variability", _enumeration_time),
        ),
        (
            bc.variance_estimation,
            "expected_s2_under_blocking",
            span("variance_estimation.closed_forms"),
        ),
        (
            bc.variance_estimation,
            "cr_varest_bias_under_blocking",
            span("variance_estimation.closed_forms"),
        ),
        (bc.oracle, "exact_moments", span("oracle.exact_moments", _enumeration_time)),
        (bc.oracle, "iter_assignments", _iterate),
        (bc.oracle, "resolve_statistic", _resolve_statistic),
        (bc.blocking_lab, "gen_scenario_population", span("blocking_lab.generate")),
        (bc.blocking_lab, "gen_xy_population", span("blocking_lab.generate")),
        (bc.blocking_lab, "make_blocks_flex", span("blocking_lab.make_blocks")),
        (bc.blocking_lab, "make_blocks_interleave", span("blocking_lab.make_blocks")),
        (bc.blocking_lab, "make_blocks_peevish", span("blocking_lab.make_blocks")),
        (bc.blocking_lab, "make_blocks_random", span("blocking_lab.make_blocks")),
        (bc.blocking_lab, "within_variance_ratio", span("blocking_lab.within_variance_ratio")),
        (bc.blocking_lab, "r2_blocks", span("blocking_lab.r2_blocks")),
        (bc.mc, "rep_rng", span("mc.rep_rng")),
        (bc.mc, "chunk_bounds", count("mc.chunks", lambda a, k, result: len(result))),
        (bc.mc, "map_ordered", _map_ordered_workers),
        (bc.studies, "study_flexible_blocking", span("studies.flexible_blocking")),
        (bc.studies, "study_misconceptions", span("studies.misconceptions")),
        (bc.studies, "study_ratio_sweep", span("studies.ratio_sweep")),
        (bc.replay, "run_replay", span("replay.run_replay", _allocations)),
        (bc.cli, "cmd_variance", span("cli.variance")),
        (bc.cli, "cmd_compare", span("cli.compare")),
        (bc.cli, "cmd_study", span("cli.study")),
        (bc.cli, "cmd_replay", span("cli.replay")),
        (bc.cli, "cmd_enumerate", span("cli.enumerate")),
        (bc.cli, "write_report_csv", span("cli.write")),
    ]


def _count_classmethod(tracer, name, method):
    func = method.__func__

    @functools.wraps(func)
    def wrapper(cls, *args, **kwargs):
        tracer.counts[name] += 1
        return func(cls, *args, **kwargs)

    return classmethod(wrapper)


def _method_plan(bc):
    """(class, attribute, factory) for every method traced."""
    return [
        (
            bc.pop_model.PotentialOutcomeTable,
            "__init__",
            lambda tracer, fn: _span(tracer, "pop_model.table_build", fn),
        ),
        (
            bc.pop_model.PotentialOutcomeTable,
            "block_indices",
            lambda tracer, fn: _count(tracer, "pop_model.block_indices.calls", fn),
        ),
        (
            bc.variance_estimation.ObservedSample,
            "from_schedule",
            lambda tracer, method: _count_classmethod(
                tracer, "variance_estimation.observed_sample.calls", method
            ),
        ),
        (bc.cli.ManifestWriter, "finish", lambda tracer, fn: _span(tracer, "cli.write", fn)),
    ]


class Installation:
    """Wrappers installed into the blockcalc modules; ``remove`` restores them."""

    def __init__(self, tracer: Tracer, bc):
        self._restore: list = []
        modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "blockcalc"]
        for module, attr, factory in _function_plan(bc):
            original = getattr(module, attr)
            wrapped = factory(tracer, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapped)
        for cls, attr, factory in _method_plan(bc):
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, factory(tracer, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
