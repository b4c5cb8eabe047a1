"""Shared fixtures: session-scoped databases (loading is the slow part)."""

import pytest

from repro import Database
from repro.numbering import lowering


@pytest.fixture(scope="session")
def tpch_db():
    """A small TPC-H database shared by integration tests."""
    return Database.tpch(scale=0.001, seed=42)


@pytest.fixture(scope="session")
def example_db():
    """The paper's Figure 3 example database."""
    return Database.example(n_sales=3000, n_products=150)


@pytest.fixture
def numbering():
    """A lowering of the test's own, for tests that build plan or IR
    pieces by hand (drawing an id outside a lowering raises)."""
    with lowering():
        yield


def rows_match(got, want, rel=1e-9):
    """Compare result rows with float tolerance, order-insensitively."""
    if len(got) != len(want):
        return False
    for g, w in zip(sorted(got, key=repr), sorted(want, key=repr)):
        if len(g) != len(w):
            return False
        for a, b in zip(g, w):
            if isinstance(a, float) or isinstance(b, float):
                if abs(a - b) > rel * max(1.0, abs(a), abs(b)):
                    return False
            elif a != b:
                return False
    return True
