"""The traced benchmark (``perfbench/run.py --trace 1``) wraps names that exist.

``perfbench/tracing.py`` uses the standard library only, so it is loaded
from its file here; a renamed or deleted library function or method then
fails this test instead of the traced benchmark run.
"""

import importlib.util
from pathlib import Path

import blockcalc
import blockcalc.cli  # noqa: F401  (the plans read every submodule as an attribute)
from blockcalc.cli import main

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def test_every_traced_function_resolves():
    plan = tracing._function_plan(blockcalc)
    missing = [
        (module.__name__, attr)
        for module, attr, _ in plan
        if not callable(getattr(module, attr, None))
    ]
    assert plan and not missing


def test_every_traced_method_is_defined_on_its_class():
    plan = tracing._method_plan(blockcalc)
    missing = [(cls.__qualname__, attr) for cls, attr, _ in plan if attr not in cls.__dict__]
    assert plan and not missing


def test_wrappers_installed_after_a_warm_call_record_command_spans(tmp_path):
    # The benchmark installs its wrappers after earlier, untraced calls have
    # built the CLI parser; the commands must still run through them.
    table = tmp_path / "table.csv"
    table.write_text("unit_id,block,y_t,y_c\na,A,0,0\nb,A,2,2\nc,B,0,0\nd,B,2,2\n")
    enumerate_argv = ["enumerate", str(table), "--design", "cr:2"]
    assert main([*enumerate_argv, "--out", str(tmp_path / "warm")]) == 0
    tracer = tracing.Tracer()
    installed = tracing.Installation(tracer, blockcalc)
    try:
        assert main(["study", "ratio-sweep", "--out", str(tmp_path / "study")]) == 0
        # flexible-blocking maps its rep batches through the wrapped mc.map_ordered.
        flexible_argv = ["study", "flexible-blocking", "--reps", "3"]
        assert main([*flexible_argv, "--out", str(tmp_path / "flexible")]) == 0
        assert main([*enumerate_argv, "--out", str(tmp_path / "enumerate")]) == 0
    finally:
        installed.remove()
    assert tracer.calls("cli.study") == 2
    assert tracer.calls("cli.enumerate") == 1
    assert tracer.counts["mc.workers"] == 1
