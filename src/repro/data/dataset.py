"""Portable datasets: table specs any tier can rebuild a database from.

A :class:`Dataset` is the value-level description of a database — schemas
plus decoded rows plus foreign-key metadata.  Unlike a live
:class:`~repro.engine.Database` it survives JSON round-trips, so the
fuzzer's minimized failures check into ``tests/corpus/`` as self-contained
repros, the delta-debugging shrinker can rebuild a smaller database per
candidate, and the fleet router splits one into per-shard slices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.catalog import Column, DataType, Schema
from repro.catalog.schema import decode_value
from repro.engine import Database
from repro.errors import ReproError


@dataclass
class TableData:
    """One table: column definitions plus decoded (Python-native) rows."""

    name: str
    columns: list[tuple[str, DataType]]
    rows: list[tuple]

    def column_index(self, name: str) -> int:
        for i, (col, _) in enumerate(self.columns):
            if col == name:
                return i
        raise ReproError(f"no column {name!r} in table {self.name!r}")

    def values_of(self, name: str) -> list:
        index = self.column_index(name)
        return [row[index] for row in self.rows]


@dataclass
class ForeignKey:
    """``child.column`` references ``parent.column`` (join edge metadata)."""

    child: str
    child_column: str
    parent: str
    parent_column: str


@dataclass
class Dataset:
    """A rebuildable database description."""

    tables: dict[str, TableData] = field(default_factory=dict)
    foreign_keys: list[ForeignKey] = field(default_factory=list)

    def copy(self) -> "Dataset":
        return Dataset(
            tables={
                name: TableData(t.name, list(t.columns), list(t.rows))
                for name, t in self.tables.items()
            },
            foreign_keys=list(self.foreign_keys),
        )

    def row_total(self) -> int:
        return sum(len(t.rows) for t in self.tables.values())

    # -- JSON round trip -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "tables": {
                name: {
                    "columns": [[c, d.value] for c, d in t.columns],
                    "rows": [list(row) for row in t.rows],
                }
                for name, t in self.tables.items()
            },
            "foreign_keys": [
                [fk.child, fk.child_column, fk.parent, fk.parent_column]
                for fk in self.foreign_keys
            ],
        }

    @classmethod
    def from_json(cls, document: dict) -> "Dataset":
        tables = {}
        for name, spec in document["tables"].items():
            columns = [(c, DataType(d)) for c, d in spec["columns"]]
            rows = [tuple(row) for row in spec["rows"]]
            tables[name] = TableData(name, columns, rows)
        fks = [
            ForeignKey(*entry) for entry in document.get("foreign_keys", [])
        ]
        return cls(tables=tables, foreign_keys=fks)

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=1)


def build_database(
    dataset: Dataset, storage=None, dictionary=None
) -> Database:
    """Materialize a dataset as a ready-to-query database.

    ``storage`` is an optional :class:`repro.storage.StorageConfig`; the
    oracle uses it to build twin databases over the same rows with
    different physical layouts (plain / zone-mapped / compressed).
    ``dictionary`` is a frozen string dictionary covering the dataset,
    shared by every shard of a fleet."""
    db = Database(storage=storage, dictionary=dictionary)
    for table in dataset.tables.values():
        created = db.catalog.create_table(
            table.name,
            Schema([Column(name, dtype) for name, dtype in table.columns]),
        )
        created.extend(table.rows)
    db.finalize()
    return db


def extract_dataset(db: Database) -> Dataset:
    """Read a live database back into a portable dataset.

    This is how a disagreement found against *any* database (TPC-H, the
    paper example, a fuzz dataset) becomes shrinkable: decode every column
    to Python values and rebuild from there.
    """
    dataset = Dataset()
    for table in db.catalog.tables.values():
        columns = [(c.name, c.dtype) for c in table.schema]
        decoded = [
            [decode_value(db.catalog.dictionary, v, c.dtype) for v in column]
            for c, column in zip(table.schema, table.columns)
        ]
        rows = list(zip(*decoded))
        dataset.tables[table.name] = TableData(table.name, columns, rows)
    return dataset
