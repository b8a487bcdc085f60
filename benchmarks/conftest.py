"""Benchmark-suite configuration.

Each ``test_bench_*`` module regenerates one evaluation artefact of the
paper (see README.md's measuring sections).  Benches both *time* the harness
unit with pytest-benchmark and *assert* the paper's shape criteria
(linearity, orderings, overhead bounds, slope ratios), printing the
regenerated table so ``pytest benchmarks/ --benchmark-only -s`` reproduces
the figures as text.
"""

from __future__ import annotations

from pathlib import Path

import pytest

_BENCH_DIR = Path(__file__).parent


def pytest_collection_modifyitems(items):
    # Everything under benchmarks/ carries the ``bench`` marker, so CI can
    # smoke a quick subset with ``-m bench`` (and tier-1 can skip it with
    # ``-m "not bench"``).  The hook sees the whole session's items, so
    # restrict to this directory.
    for item in items:
        if _BENCH_DIR in Path(str(item.fspath)).parents:
            item.add_marker(pytest.mark.bench)


def print_block(title: str, body: str) -> None:
    bar = "=" * max(len(title), 8)
    print(f"\n{bar}\n{title}\n{bar}\n{body}\n")


@pytest.fixture(scope="session")
def report():
    return print_block
