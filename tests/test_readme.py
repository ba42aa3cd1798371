"""Every path into a blockcalc module that README.md names in backticks
resolves, so a rename or a deletion cannot leave the README pointing at
nothing."""

import importlib
import pkgutil
import re
from pathlib import Path

import blockcalc

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = {info.name for info in pkgutil.iter_modules(blockcalc.__path__)}


def readme_references() -> list[tuple[str, tuple[str, ...]]]:
    """``(module, attribute path)`` of every backticked ``module.attr...``
    or ``blockcalc.module...`` outside the code blocks; a call's arguments
    and anything after the dotted path are not part of it."""
    text = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    refs = set()
    for span in re.findall(r"`([^`]+)`", text):
        named = span.startswith("blockcalc.")
        path = re.match(r"[\w.]*", span)[0].removeprefix("blockcalc.").split(".")
        if named or (path[0] in MODULES and len(path) > 1):
            refs.add((path[0], tuple(path[1:])))
    return sorted(refs)


def test_readme_references_resolve():
    refs = readme_references()
    assert len(refs) >= 20, refs
    missing = []
    for module, attrs in refs:
        if module not in MODULES:
            missing.append(module)
            continue
        obj = importlib.import_module(f"blockcalc.{module}")
        for i, attr in enumerate(attrs):
            if not hasattr(obj, attr):
                missing.append(".".join((module, *attrs[: i + 1])))
                break
            obj = getattr(obj, attr)
    assert not missing
