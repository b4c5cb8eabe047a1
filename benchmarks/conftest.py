"""Shared benchmark fixtures and report plumbing.

Every benchmark reproduces one table or figure of the paper's evaluation.
Beyond pytest-benchmark's timing, each registers a formatted result table
via ``benchmarks._harness.report``; the tables are printed in the terminal
summary (and land in ``bench_output.txt`` when tee'd), and also written
under ``benchmarks/results/``.
"""

from __future__ import annotations

import pytest

from benchmarks._harness import BENCH_SCALE, BENCH_SEED, REPORTS

from repro import Database


def pytest_terminal_summary(terminalreporter):
    for title, text in REPORTS:
        terminalreporter.write_line("")
        terminalreporter.write_line("=" * 78)
        terminalreporter.write_line(f"== {title}")
        terminalreporter.write_line("=" * 78)
        for line in text.splitlines():
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def tpch():
    return Database.tpch(scale=BENCH_SCALE, seed=BENCH_SEED)


@pytest.fixture(scope="session")
def example_db():
    return Database.example(n_sales=12000, n_products=200)
