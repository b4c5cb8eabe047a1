"""The catalog: named tables plus the shared string dictionary."""

from __future__ import annotations

from repro.errors import CatalogError
from repro.catalog.schema import Schema
from repro.catalog.strings import StringDictionary
from repro.catalog.table import Table


class Catalog:
    """All tables of one database, with a two-phase load protocol:

    create tables, append rows, then :meth:`finalize` once — which freezes
    the order-preserving string dictionary and encodes every column to its
    64-bit storage form.  Queries may only run against a finalized catalog.
    """

    def __init__(self, dictionary: StringDictionary | None = None):
        """``dictionary`` shares another catalog's already-frozen string
        dictionary, so both assign every string the same id."""
        self.tables: dict[str, Table] = {}
        self.dictionary = (
            StringDictionary() if dictionary is None else dictionary
        )
        self.finalized = False

    def create_table(self, name: str, schema: Schema) -> Table:
        if self.finalized:
            raise CatalogError("catalog is finalized; cannot create tables")
        key = name.lower()
        if key in self.tables:
            raise CatalogError(f"table {name!r} already exists")
        table = Table(key, schema)
        self.tables[key] = table
        return table

    def table(self, name: str) -> Table:
        try:
            return self.tables[name.lower()]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self.tables

    def finalize(self) -> None:
        if self.finalized:
            raise CatalogError("catalog already finalized")
        if not self.dictionary.frozen:
            for table in self.tables.values():
                table.collect_strings(self.dictionary)
            self.dictionary.freeze()
        for table in self.tables.values():
            table.encode(self.dictionary)
        self.finalized = True
