"""Worker clamping of ``mc.map_ordered``.

No test here starts a process pool: the clamp is checked as arithmetic, and
the wiring through ``map_ordered`` with a stand-in executor that maps inline.
"""

import pytest

from blockcalc import mc


@pytest.mark.parametrize(
    "threads, items, cpus, expected",
    [
        (1, 10, 8, 1),
        (4, 10, 8, 4),
        (64, 10, 8, 8),
        (64, 3, 8, 3),
        (10**9, 10**9, 2, 2),
        (0, 5, 4, 1),
        (-3, 5, 4, 1),
        (4, 0, 4, 1),
        (4, 5, 1, 1),
        (7, 50, None, 1),
    ],
)
def test_effective_workers_arithmetic(monkeypatch, threads, items, cpus, expected):
    monkeypatch.setattr(mc.os, "cpu_count", lambda: cpus)
    assert mc.effective_workers(threads, items) == expected


class InlineExecutor:
    """Stands in for ProcessPoolExecutor and records the requested size."""

    sizes: list = []

    def __init__(self, max_workers):
        InlineExecutor.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.fixture
def inline_pool(monkeypatch):
    InlineExecutor.sizes = []
    monkeypatch.setattr(mc, "ProcessPoolExecutor", InlineExecutor)
    monkeypatch.setattr(mc.os, "cpu_count", lambda: 4)
    return InlineExecutor.sizes


def test_map_ordered_sizes_the_pool_by_the_clamp(inline_pool):
    assert mc.map_ordered(abs, [-1, -2, -3], threads=10**6) == [1, 2, 3]
    assert mc.map_ordered(abs, range(-10, 0), threads=10**6) == list(range(10, 0, -1))
    assert inline_pool == [3, 4]


def test_map_ordered_runs_inline_when_one_worker_remains(inline_pool):
    assert mc.map_ordered(abs, [-5], threads=10**6) == [5]
    assert mc.map_ordered(abs, [-1, -2], threads=1) == [1, 2]
    assert inline_pool == []
