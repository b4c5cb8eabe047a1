"""Logical schema description: types, columns, schemas.

Storage is uniform 64-bit words; the logical type determines encoding:

- ``INT``     plain integers
- ``DECIMAL`` fixed-point, stored as integer hundredths (cents)
- ``DATE``    proleptic-Gregorian ordinal day numbers
- ``STRING``  ids into the database's order-preserving string dictionary
- ``FLOAT``   IEEE doubles (only produced by expressions such as ``avg``)
- ``BOOL``    0 or 1
"""

from __future__ import annotations

import datetime
import enum
from dataclasses import dataclass

from repro.errors import CatalogError

DECIMAL_SCALE = 100


class DataType(enum.Enum):
    INT = "int"
    DECIMAL = "decimal"
    DATE = "date"
    STRING = "string"
    FLOAT = "float"
    BOOL = "bool"

    @property
    def is_numeric(self) -> bool:
        return self in (DataType.INT, DataType.DECIMAL, DataType.FLOAT)


def encode_date(text: str) -> int:
    """'YYYY-MM-DD' -> ordinal day number."""
    try:
        return datetime.date.fromisoformat(text).toordinal()
    except ValueError as exc:
        raise CatalogError(f"bad date literal {text!r}: {exc}") from None


def decode_date(ordinal: int) -> str:
    return datetime.date.fromordinal(ordinal).isoformat()


def encode_decimal(value: float | int) -> int:
    return round(value * DECIMAL_SCALE)


def decode_value(dictionary, value, dtype: DataType):
    """One 64-bit storage value -> its Python-native output form.

    ``dictionary`` is the database's frozen string dictionary; every
    tier that hands rows to a client decodes through here."""
    if dtype is DataType.DECIMAL:
        return value / DECIMAL_SCALE
    if dtype is DataType.DATE:
        return decode_date(value)
    if dtype is DataType.STRING:
        return dictionary.value_of(value)
    if dtype is DataType.BOOL:
        return bool(value)
    return value


def decoder(dictionary, dtype: DataType):
    """``value -> decode_value(dictionary, value, dtype)``, the dtype
    decided once: for a caller that decodes one column many times."""
    if dtype is DataType.DECIMAL:
        return lambda value: value / DECIMAL_SCALE
    if dtype is DataType.DATE:
        return decode_date
    if dtype is DataType.STRING:
        return dictionary.value_of
    if dtype is DataType.BOOL:
        return bool
    return lambda value: value


def decode_row(dictionary, raw: tuple, dtypes) -> tuple:
    return tuple(
        decode_value(dictionary, value, dtype)
        for value, dtype in zip(raw, dtypes)
    )


@dataclass(frozen=True)
class Column:
    """One named, typed column."""

    name: str
    dtype: DataType


class Schema:
    """An ordered list of columns with by-name lookup."""

    def __init__(self, columns: list[Column]):
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise CatalogError(f"duplicate column names in schema: {names}")
        self.columns = list(columns)
        self._index = {c.name: i for i, c in enumerate(columns)}

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self):
        return iter(self.columns)

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise CatalogError(f"no column named {name!r}") from None

    def column(self, name: str) -> Column:
        return self.columns[self.index_of(name)]

    def has_column(self, name: str) -> bool:
        return name in self._index

    def names(self) -> list[str]:
        return [c.name for c in self.columns]
