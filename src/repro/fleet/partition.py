"""Data partitioning for the fleet router tier.

A :class:`PartitionSpec` names exactly one table to split across the N
service shards — the fact table, by convention the largest — and
replicates every other table on every shard.  That keeps scatter/gather
sound for arbitrary joins: a query joining the partitioned table against
replicated dimensions distributes over the shard union
(``fact ⋈ dim = Σ_i fact_i ⋈ dim``), and a query touching only
replicated tables is complete on any single shard.

Two partitioners are provided.  :class:`HashPartitioner` CRC32-hashes the
partition-key value (``hash()`` is process-salted, CRC32 replays across
runs).  :class:`RangePartitioner` assigns contiguous key ranges from a
sorted list of cut points; the cut points come either from value
quantiles (:meth:`RangePartitioner.from_values`) or, when the table was
loaded through ``repro.storage`` with a matching ``sort_key``, from the
storage spine's per-shard key bounds (:meth:`PartitionSpec.for_database`
reuses them, so the fleet's range split lines up with the physical
clustering the zone maps already exploit).
"""

from __future__ import annotations

import zlib
from bisect import bisect_left
from dataclasses import dataclass, field

from repro.catalog.schema import decoder
from repro.data.dataset import Dataset, TableData
from repro.errors import ReproError


def _key_value(value):
    """Normalize a decoded partition-key value for hashing/ordering."""
    if isinstance(value, bool):
        return int(value)
    return value


class HashPartitioner:
    """Deterministic hash partitioning on the decoded key value."""

    scheme = "hash"

    def __init__(self, shards: int):
        if shards < 1:
            raise ReproError("a fleet needs at least one shard")
        self.shards = shards

    def shard_of(self, value) -> int:
        value = _key_value(value)
        return zlib.crc32(repr(value).encode()) % self.shards

    def describe(self) -> str:
        return f"hash({self.shards})"


class RangePartitioner:
    """Contiguous key ranges split at ``bounds`` (len == shards - 1).

    Shard ``i`` owns values ``bounds[i-1] < v <= bounds[i]`` (shard 0 is
    everything up to and including ``bounds[0]``, the last shard is
    everything above the final bound), so the whole key domain — including
    values outside any observed range — maps to exactly one shard.
    """

    scheme = "range"

    def __init__(self, bounds: list, shards: int):
        if shards < 1:
            raise ReproError("a fleet needs at least one shard")
        if len(bounds) != shards - 1:
            raise ReproError(
                f"range partitioner needs {shards - 1} bounds for "
                f"{shards} shards, got {len(bounds)}"
            )
        if any(bounds[i] > bounds[i + 1] for i in range(len(bounds) - 1)):
            raise ReproError("range bounds must be sorted")
        self.bounds = list(bounds)
        self.shards = shards

    def shard_of(self, value) -> int:
        return bisect_left(self.bounds, _key_value(value))

    def describe(self) -> str:
        return f"range({self.shards}: {self.bounds})"

    @classmethod
    def from_values(cls, values, shards: int) -> "RangePartitioner":
        """Quantile cut points over the observed key values.

        Duplicate cut points are legal (a middle shard may own an empty
        range); an empty value list degenerates to equal bounds, sending
        everything to one shard — still a total assignment.
        """
        ordered = sorted(_key_value(v) for v in values)
        if not ordered:
            return cls([0] * (shards - 1), shards)
        n = len(ordered)
        bounds = [
            ordered[min(n - 1, ((i + 1) * n) // shards)]
            for i in range(shards - 1)
        ]
        return cls(bounds, shards)


@dataclass
class PartitionSpec:
    """Which table splits, on which column, and how."""

    table: str
    column: str
    partitioner: HashPartitioner | RangePartitioner
    replicated: list[str] = field(default_factory=list)

    @property
    def shards(self) -> int:
        return self.partitioner.shards

    @property
    def scheme(self) -> str:
        return self.partitioner.scheme

    def describe(self) -> str:
        return (
            f"{self.table}.{self.column} {self.partitioner.describe()}; "
            f"replicated: {', '.join(self.replicated) or '(none)'}"
        )

    # -- construction --------------------------------------------------------

    @classmethod
    def for_dataset(
        cls,
        dataset: Dataset,
        shards: int,
        scheme: str = "hash",
        table: str | None = None,
        column: str | None = None,
    ) -> "PartitionSpec":
        """Default spec over a dataset: split the largest table."""
        if not dataset.tables:
            raise ReproError("cannot partition an empty dataset")
        if table is None:
            table = max(
                sorted(dataset.tables),
                key=lambda name: len(dataset.tables[name].rows),
            )
        data = dataset.tables.get(table)
        if data is None:
            raise ReproError(f"no table {table!r} in the dataset")
        if column is None:
            column = data.columns[0][0]
        values = data.values_of(column)
        partitioner = _make_partitioner(scheme, shards, values)
        replicated = [name for name in dataset.tables if name != table]
        return cls(table, column, partitioner, replicated)

    @classmethod
    def for_database(
        cls,
        db,
        shards: int,
        scheme: str = "hash",
        table: str | None = None,
        column: str | None = None,
    ) -> "PartitionSpec":
        """Default spec over a live database.

        The split table is the largest by row count unless named; the
        split column follows the catalog metadata chain
        ``partition_key -> sort_key -> first column``.  With range
        partitioning, cut points reuse the storage spine's shard key
        bounds when the table is storage-loaded and clustered on the
        partition column — otherwise they fall back to value quantiles.
        """
        tables = db.catalog.tables
        if not tables:
            raise ReproError("cannot partition an empty catalog")
        if table is None:
            table = max(sorted(tables), key=lambda name: tables[name].row_count)
        meta = tables.get(table)
        if meta is None:
            raise ReproError(f"no table {table!r} in the catalog")
        if column is None:
            column = (
                meta.partition_key or meta.sort_key
                or meta.schema.columns[0].name
            )
        column_index = meta.schema.index_of(column)
        dtype = meta.schema.columns[column_index].dtype
        decode = decoder(db.catalog.dictionary, dtype)
        if scheme == "range":
            bounds = _spine_bounds(db, table, column, shards, decode)
            if bounds is not None:
                partitioner = RangePartitioner(bounds, shards)
            else:
                values = [decode(v) for v in meta.columns[column_index]]
                partitioner = RangePartitioner.from_values(values, shards)
        else:
            values = [decode(v) for v in meta.columns[column_index]]
            partitioner = _make_partitioner(scheme, shards, values)
        replicated = [name for name in tables if name != table]
        return cls(table, column, partitioner, replicated)

    # -- splitting -----------------------------------------------------------

    def assignments(self, data: TableData) -> list[int]:
        """Shard index per row of the partitioned table."""
        index = data.column_index(self.column)
        return [self.partitioner.shard_of(row[index]) for row in data.rows]

    def split(self, dataset: Dataset) -> list[Dataset]:
        """Per-shard datasets: split rows + full replicas, FKs preserved."""
        data = dataset.tables.get(self.table)
        if data is None:
            raise ReproError(
                f"partition table {self.table!r} missing from the dataset"
            )
        owners = self.assignments(data)
        shards = []
        for shard in range(self.shards):
            out = Dataset(foreign_keys=list(dataset.foreign_keys))
            for name, table in dataset.tables.items():
                if name == self.table:
                    rows = [
                        row for row, owner in zip(table.rows, owners)
                        if owner == shard
                    ]
                else:
                    rows = list(table.rows)
                out.tables[name] = TableData(name, list(table.columns), rows)
            shards.append(out)
        return shards


def _make_partitioner(scheme: str, shards: int, values):
    if scheme == "hash":
        return HashPartitioner(shards)
    if scheme == "range":
        return RangePartitioner.from_values(values, shards)
    raise ReproError(f"unknown partition scheme {scheme!r}")


def _spine_bounds(db, table: str, column: str, shards: int, decode):
    """Range cut points from the storage spine, or None when unusable.

    The spine's per-shard ``key_max`` values are already the physical
    split points of the sorted layout; picking every ``S/N``-th one keeps
    the fleet's range shards aligned with whole storage shards.
    """
    storage = getattr(db, "storage", None)
    if storage is None:
        return None
    table_storage = storage.tables.get(table)
    if table_storage is None or table_storage.sort_key != column:
        return None
    spine = table_storage.shards
    if len(spine) < shards:
        return None
    maxima = [meta.key_max for meta in spine]
    if any(value is None for value in maxima):
        return None
    return [
        decode(maxima[((i + 1) * len(maxima)) // shards - 1])
        for i in range(shards - 1)
    ]
