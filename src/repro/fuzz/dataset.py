"""Fuzzing datasets: seeded random instances of :mod:`repro.data.dataset`.

``random_dataset`` grows the kind of data differential testing wants:
skewed join keys (one hot parent), dangling and zero-sentinel foreign keys
(this engine has no SQL NULL — a FK of 0 pointing at ids that start from 1
is the idiomatic "no parent"), duplicate strings, empty tables, and
boundary dates.
"""

from __future__ import annotations

from random import Random

from repro.catalog import DataType
from repro.data.dataset import (  # noqa: F401 - re-exported
    Dataset,
    ForeignKey,
    TableData,
    build_database,
    extract_dataset,
)

_STRING_POOL = [
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta",
    "red", "green", "blue", "amber", "none", "n/a",
]


def random_dataset(seed: int) -> Dataset:
    """A seeded 3-to-4-table dataset with fuzz-friendly pathologies."""
    rng = Random(seed)
    dataset = Dataset()

    n_dim = rng.randint(6, 14)
    dim_rows = []
    for i in range(1, n_dim + 1):
        dim_rows.append((
            i,
            rng.choice(_STRING_POOL),
            rng.randint(-20, 20),
            rng.choice([0, 1]),
        ))
    dataset.tables["dim"] = TableData(
        "dim",
        [("id", DataType.INT), ("tag", DataType.STRING),
         ("score", DataType.INT), ("flag", DataType.BOOL)],
        dim_rows,
    )

    hot_dim = rng.randint(1, n_dim)  # the skew target
    n_mid = rng.randint(16, 40)
    mid_rows = []
    for i in range(1, n_mid + 1):
        roll = rng.random()
        if roll < 0.40:
            dim_id = hot_dim  # skew: many children of one parent
        elif roll < 0.55:
            dim_id = 0  # zero sentinel: "no parent"
        elif roll < 0.62:
            dim_id = n_dim + rng.randint(1, 3)  # dangling reference
        else:
            dim_id = rng.randint(1, n_dim)
        mid_rows.append((
            i,
            dim_id,
            round(rng.uniform(-40.0, 120.0), 2),
            rng.choice(["2020-01-01", "2020-06-15", "2020-12-31",
                        "2021-02-28", "2021-07-04"]),
        ))
    dataset.tables["mid"] = TableData(
        "mid",
        [("id", DataType.INT), ("dim_id", DataType.INT),
         ("amount", DataType.DECIMAL), ("placed", DataType.DATE)],
        mid_rows,
    )

    n_fact = rng.randint(20, 56)
    hot_mid = rng.randint(1, n_mid)
    fact_rows = []
    for i in range(1, n_fact + 1):
        roll = rng.random()
        if roll < 0.35:
            mid_id = hot_mid
        elif roll < 0.50:
            mid_id = 0
        else:
            mid_id = rng.randint(1, n_mid)
        fact_rows.append((
            i,
            mid_id,
            rng.randint(0, 9),
            round(rng.uniform(0.0, 50.0), 2),
            rng.choice(_STRING_POOL),
        ))
    dataset.tables["fact"] = TableData(
        "fact",
        [("id", DataType.INT), ("mid_id", DataType.INT),
         ("qty", DataType.INT), ("price", DataType.DECIMAL),
         ("label", DataType.STRING)],
        fact_rows,
    )

    if rng.random() < 0.5:
        # an empty relation: scans, joins, and aggregates over nothing
        dataset.tables["void"] = TableData(
            "void",
            [("id", DataType.INT), ("dim_id", DataType.INT),
             ("weight", DataType.INT)],
            [],
        )
        dataset.foreign_keys.append(ForeignKey("void", "dim_id", "dim", "id"))

    dataset.foreign_keys.extend([
        ForeignKey("mid", "dim_id", "dim", "id"),
        ForeignKey("fact", "mid_id", "mid", "id"),
    ])
    return dataset
