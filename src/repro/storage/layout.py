"""Physical table layout: shards, segments, zone maps, and the directory.

``StorageEngine.build`` owns the physical layout of every catalog table:

* rows are (stably) ordered by the table's declared sort key, then split
  into fixed-size **segments** (a power of two, so the segment index is a
  shift) grouped into **shards**; a **spine index** records per-shard
  min/max of the sort key for compile-time range narrowing;
* every column is stored as per-segment payloads under one column-level
  encoding kind (chosen here, from the same single analysis pass that
  also yields the optimizer's ColumnStats);
* a per-column **segment directory** lives in simulated memory — four
  words per segment: ``[data, param, min, max]`` — read by generated
  scan code for decode parameters and runtime zone-map skipping;
* every extent is registered for sample attribution, so a PMU sample's
  memory address resolves to (table, column, shard, segment, encoding).

Segment payloads start cache-line aligned (``align=64``) so the L1/L2
sets a scan touches are a function of the layout, not allocation order.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from repro.catalog.table import ColumnStats
from repro.errors import ReproError
from repro.storage.encodings import (
    Encoding,
    EncodedSegment,
    SegmentAnalysis,
    analyze_segments,
    bits_for_range,
    encode_segment,
)
from repro.storage.german import GermanStringTable

#: segment directory entry: [data_addr, param, zone_min, zone_max]
DIR_STRIDE = 32
DIR_DATA = 0
DIR_PARAM = 8
DIR_MIN = 16
DIR_MAX = 24

#: the encoding choice: RLE once runs average this many rows, DICT for
#: strings with at most this many distinct values per segment
RLE_MIN_RUN = 4.0
DICT_MAX_DISTINCT = 4096


@dataclass(frozen=True)
class StorageConfig:
    """Loader knobs.  ``compress=False, prune=False`` is the flat
    baseline layout the fuzz oracle and benchmarks compare against."""

    segment_rows: int = 1024  # power of two: segment index is a shift
    shard_segments: int = 32  # spine granularity
    compress: bool = True  # choose FOR/DICT/RLE where profitable
    prune: bool = True  # emit zone-map skip branches in scans
    # (table, column) -> Encoding, overriding the heuristics (tests)
    force: tuple = ()

    def __post_init__(self):
        if self.segment_rows < 2 or self.segment_rows & (self.segment_rows - 1):
            raise ReproError("segment_rows must be a power of two >= 2")
        if self.shard_segments < 1:
            raise ReproError("shard_segments must be >= 1")

    @classmethod
    def plain(cls, **kw) -> "StorageConfig":
        return cls(compress=False, prune=False, **kw)

    @classmethod
    def pruned(cls, **kw) -> "StorageConfig":
        """Zone maps without compression: every byte layout matches the
        plain config, so instruction counts are directly comparable."""
        return cls(compress=False, prune=True, **kw)

    def forced(self, table: str, column: str) -> Encoding | None:
        for t, c, kind in self.force:
            if t == table and c == column:
                return kind
        return None


@dataclass(frozen=True)
class StorageRef:
    """What a memory address inside table storage means."""

    table: str
    column: str
    shard: int
    segment: int
    encoding: str
    part: str  # data | dict | runs | dir | strings | heap


@dataclass
class SegmentMeta:
    index: int
    row_lo: int
    row_hi: int
    min_value: int | float
    max_value: int | float
    data_addr: int
    param: int  # FOR frame / local-dict addr / run-ends addr

    @property
    def rows(self) -> int:
        return self.row_hi - self.row_lo


@dataclass
class ColumnStorage:
    name: str
    encoding: Encoding
    bits: int  # packed width (FOR/DICT); 0 = constant frames / unused
    dir_addr: int  # segment directory base
    segments: list[SegmentMeta]
    distinct: int  # exact, unioned over per-segment value sets
    plain_addr: int | None = None  # contiguous base when encoding is PLAIN
    data_bytes: int = 0  # payload bytes (excluding the directory)

    @property
    def plain_bytes(self) -> int:
        rows = self.segments[-1].row_hi if self.segments else 0
        return rows * 8


@dataclass
class ShardMeta:
    index: int
    row_lo: int
    row_hi: int
    key_min: int | float | None
    key_max: int | float | None


@dataclass
class PruneStats:
    """Observed zone-map effect, accumulated across runs (advisory:
    segments straddling morsel boundaries are considered once per
    morsel, like the generated code does)."""

    considered: int = 0
    skipped: int = 0

    @property
    def skip_share(self) -> float:
        return self.skipped / self.considered if self.considered else 0.0


class TableStorage:
    """One table's physical layout."""

    def __init__(
        self,
        name: str,
        row_count: int,
        config: StorageConfig,
        sort_key: str | None,
    ):
        self.name = name
        self.row_count = row_count
        self.config = config
        self.sort_key = sort_key
        self.columns: list[ColumnStorage] = []
        self.shards: list[ShardMeta] = []

    @property
    def segment_count(self) -> int:
        seg = self.config.segment_rows
        return (self.row_count + seg - 1) // seg

    def column(self, index: int) -> ColumnStorage:
        return self.columns[index]

    def shard_of_segment(self, segment: int) -> int:
        return segment // self.config.shard_segments

    def prune_range(self, column_name: str, lo, hi) -> tuple[int, int]:
        """Compile-time spine consultation: the smallest contiguous row
        range that can satisfy ``lo <= key <= hi`` (either bound may be
        None).  Only the sort key is clustered, so only it narrows."""
        if column_name != self.sort_key or not self.shards:
            return 0, self.row_count
        first, last = 0, len(self.shards) - 1
        if lo is not None:
            while first <= last and self.shards[first].key_max < lo:
                first += 1
        if hi is not None:
            while last >= first and self.shards[last].key_min > hi:
                last -= 1
        if first > last:
            return 0, 0
        return self.shards[first].row_lo, self.shards[last].row_hi


class StorageEngine:
    """All tables' layouts plus the string store and observed statistics."""

    def __init__(self, config: StorageConfig):
        self.config = config
        self.tables: dict[str, TableStorage] = {}
        self.german: GermanStringTable | None = None
        self.prune_stats: dict[tuple[str, int], PruneStats] = {}
        self._extent_starts: list[int] = []
        self._extents: list[tuple[int, int, StorageRef]] = []

    # -- construction -----------------------------------------------------

    @classmethod
    def build(cls, catalog, memory, config: StorageConfig) -> "StorageEngine":
        engine = cls(config)
        for table in catalog.tables.values():
            engine._build_table(table, memory)
        engine.german = GermanStringTable.build(catalog.dictionary, memory)
        engine._register(
            engine.german.base,
            max(8, engine.german.count * 16),
            StorageRef("", "", -1, -1, "german", "strings"),
        )
        engine._finish_extents()
        return engine

    def table(self, name: str) -> TableStorage | None:
        return self.tables.get(name)

    def _build_table(self, table, memory) -> None:
        config = self.config
        self._sort_rows(table)
        storage = TableStorage(
            table.name, table.row_count, config, getattr(table, "sort_key", None)
        )
        self.tables[table.name] = storage

        for index, column_def in enumerate(table.schema):
            values = table.columns[index]
            analyses = analyze_segments(values, config.segment_rows)
            kind, bits = self._choose(table.name, column_def, analyses)
            column = self._materialize(
                memory, table.name, column_def.name, values, analyses,
                kind, bits, storage,
            )
            storage.columns.append(column)
            # the loader pass *is* the statistics pass: zone maps give
            # min/max, the per-segment value sets union to exact distinct
            if analyses:
                stats = ColumnStats(
                    min_value=min(a.min_value for a in analyses),
                    max_value=max(a.max_value for a in analyses),
                    distinct=column.distinct,
                )
            else:
                stats = ColumnStats(None, None, 0)
            table._stats[index] = stats

        self._build_spine(table, storage)

    def _sort_rows(self, table) -> None:
        """Stable-sort the table by its declared sort key.

        The loaders declare keys matching generation order (TPC-H tables
        arrive clustered by primary key), so this is normally the
        identity permutation; when it is not, *all* representations —
        ``Table.columns`` included, which the reference interpreter
        reads — see the same row order, keeping every oracle honest.
        """
        key = getattr(table, "sort_key", None)
        if key is None or table.row_count == 0:
            return
        column = table.column_named(key)
        if all(a <= b for a, b in zip(column, column[1:])):
            return  # already clustered: keep the generation order intact
        order = sorted(range(len(column)), key=column.__getitem__)
        for i, values in enumerate(table.columns):
            table.columns[i] = [values[j] for j in order]

    def _choose(
        self, table_name: str, column_def, analyses: list[SegmentAnalysis]
    ) -> tuple[Encoding, int]:
        """Pick the column's encoding kind from the segment analyses."""
        from repro.catalog.schema import DataType

        config = self.config
        forced = config.forced(table_name, column_def.name)
        rows = sum(a.rows for a in analyses)
        if not rows:
            return Encoding.PLAIN, 0
        if forced is None and (
            not config.compress or column_def.dtype is DataType.FLOAT
        ):
            return Encoding.PLAIN, 0

        runs = sum(a.runs for a in analyses)
        spans = [a.max_value - a.min_value for a in analyses]
        for_bits = 0 if max(spans) == 0 else bits_for_range(max(spans))
        max_distinct = max(len(a.distinct_values) for a in analyses)
        dict_bits = bits_for_range(max_distinct - 1) if max_distinct > 1 else 1

        if forced is not None:
            kind = forced
        elif rows / runs >= RLE_MIN_RUN:
            kind = Encoding.RLE
        elif (
            column_def.dtype is DataType.STRING
            and max_distinct <= DICT_MAX_DISTINCT
            and dict_bits is not None
            and dict_bits <= 16
            and (for_bits is None or dict_bits < for_bits)
        ):
            kind = Encoding.DICT
        elif for_bits is not None and for_bits <= 32:
            kind = Encoding.FOR
        else:
            kind = Encoding.PLAIN

        if kind is Encoding.FOR:
            if for_bits is None:
                return Encoding.PLAIN, 0
            return kind, for_bits
        if kind is Encoding.DICT:
            if dict_bits is None:
                return Encoding.PLAIN, 0
            return kind, dict_bits
        return kind, 0

    def _materialize(
        self, memory, table_name, column_name, values, analyses,
        kind: Encoding, bits: int, storage: TableStorage,
    ) -> ColumnStorage:
        """Encode every segment and copy payloads + directory into
        simulated memory."""
        label = f"{table_name}.{column_name}"
        encoded: list[EncodedSegment] = [
            encode_segment(kind, values[a.row_lo : a.row_hi], a, bits)
            for a in analyses
        ]

        def aligned_words(n: int) -> int:
            return (n + 7) & ~7  # cache line = 8 words

        distinct: set = set()
        for a in analyses:
            distinct |= a.distinct_values

        plain_addr = None
        if kind is Encoding.PLAIN:
            # one contiguous array: flat column addressing still works,
            # and 8KiB segments stay cache-line aligned automatically
            data_addr = memory.alloc(max(8, len(values) * 8), label, align=64)
            memory.words[data_addr // 8 : data_addr // 8 + len(values)] = list(
                values
            )
            plain_addr = data_addr
            data_offsets = [a.row_lo * 8 for a in analyses]
            param_values = [0] * len(analyses)
            data_bytes = len(values) * 8
        else:
            data_words = [aligned_words(len(e.data)) for e in encoded]
            data_addr = memory.alloc(
                max(8, sum(data_words) * 8), f"{label}.seg", align=64
            )
            data_offsets = []
            cursor = 0
            for e, words in zip(encoded, data_words):
                data_offsets.append(cursor * 8)
                base = data_addr // 8 + cursor
                memory.words[base : base + len(e.data)] = list(e.data)
                cursor += words
            data_bytes = cursor * 8

            if kind is Encoding.FOR:
                param_values = [e.base for e in encoded]
            else:
                aux_words = [aligned_words(len(e.aux)) for e in encoded]
                part = "dict" if kind is Encoding.DICT else "runs"
                aux_addr = memory.alloc(
                    max(8, sum(aux_words) * 8), f"{label}.{part}", align=64
                )
                param_values = []
                cursor = 0
                for e, words in zip(encoded, aux_words):
                    param_values.append(aux_addr + cursor * 8)
                    base = aux_addr // 8 + cursor
                    memory.words[base : base + len(e.aux)] = list(e.aux)
                    cursor += words
                data_bytes += cursor * 8
                self._register_segments(
                    aux_addr,
                    [w * 8 for w in aux_words],
                    table_name, column_name, kind, part, storage,
                )

        dir_addr = memory.alloc(
            max(8, len(analyses) * DIR_STRIDE), f"{label}.dir", align=64
        )
        segments: list[SegmentMeta] = []
        for i, (a, e) in enumerate(zip(analyses, encoded)):
            seg_data = data_addr + data_offsets[i]
            memory.write(dir_addr + i * DIR_STRIDE + DIR_DATA, seg_data)
            memory.write(dir_addr + i * DIR_STRIDE + DIR_PARAM, param_values[i])
            memory.write(dir_addr + i * DIR_STRIDE + DIR_MIN, a.min_value)
            memory.write(dir_addr + i * DIR_STRIDE + DIR_MAX, a.max_value)
            segments.append(
                SegmentMeta(
                    index=i, row_lo=a.row_lo, row_hi=a.row_hi,
                    min_value=a.min_value, max_value=a.max_value,
                    data_addr=seg_data, param=param_values[i],
                )
            )

        if kind is Encoding.PLAIN:
            sizes = [a.rows * 8 for a in analyses]
        else:
            sizes = [aligned_words(len(e.data)) * 8 for e in encoded]
        self._register_segments(
            data_addr, sizes, table_name, column_name, kind, "data", storage
        )
        self._register(
            dir_addr,
            max(8, len(analyses) * DIR_STRIDE),
            StorageRef(table_name, column_name, -1, -1, kind.name.lower(), "dir"),
        )
        return ColumnStorage(
            name=column_name, encoding=kind, bits=bits, dir_addr=dir_addr,
            segments=segments, distinct=len(distinct),
            plain_addr=plain_addr, data_bytes=data_bytes,
        )

    def _build_spine(self, table, storage: TableStorage) -> None:
        config = storage.config
        key_col = None
        if storage.sort_key is not None:
            key_col = table.column_named(storage.sort_key)
        rows_per_shard = config.segment_rows * config.shard_segments
        for i, lo in enumerate(range(0, storage.row_count, rows_per_shard)):
            hi = min(lo + rows_per_shard, storage.row_count)
            storage.shards.append(
                ShardMeta(
                    index=i, row_lo=lo, row_hi=hi,
                    # rows are clustered by the key: min/max sit at the ends
                    key_min=key_col[lo] if key_col else None,
                    key_max=key_col[hi - 1] if key_col else None,
                )
            )

    # -- attribution ------------------------------------------------------

    def _register(self, base: int, size: int, ref: StorageRef) -> None:
        self._extents.append((base, base + size, ref))

    def _register_segments(
        self, base, sizes, table_name, column_name, kind, part, storage
    ) -> None:
        cursor = base
        for i, size in enumerate(sizes):
            self._register(
                cursor, size,
                StorageRef(
                    table_name, column_name, storage.shard_of_segment(i), i,
                    kind.name.lower(), part,
                ),
            )
            cursor += size

    def _finish_extents(self) -> None:
        self._extents.sort(key=lambda e: e[0])
        self._extent_starts = [lo for lo, _, _ in self._extents]

    def resolve(self, addr: int) -> StorageRef | None:
        """Attribute a sampled memory address to its storage structure."""
        i = bisect.bisect_right(self._extent_starts, addr) - 1
        if i < 0:
            return None
        lo, hi, ref = self._extents[i]
        return ref if lo <= addr < hi else None

    # -- observed statistics ----------------------------------------------

    def note_pruning(
        self, table_name: str, column_index: int, considered: int, skipped: int
    ) -> None:
        stats = self.prune_stats.setdefault(
            (table_name, column_index), PruneStats()
        )
        stats.considered += considered
        stats.skipped += skipped

    def encoding_advice(self) -> list[str]:
        """Loader feedback from observed pruning: which zone maps pay."""
        advice = []
        for (table_name, index), stats in sorted(self.prune_stats.items()):
            storage = self.tables[table_name]
            column = storage.columns[index]
            if stats.considered == 0:
                continue
            if stats.skip_share == 0.0:
                advice.append(
                    f"{table_name}.{column.name}: zone maps never pruned "
                    f"({stats.considered} segments considered) — candidate "
                    "for re-clustering or dropping the check"
                )
            else:
                advice.append(
                    f"{table_name}.{column.name}: zone maps pruned "
                    f"{stats.skipped}/{stats.considered} segments "
                    f"({stats.skip_share:.0%}) — keep {column.encoding.name} "
                    "and the skip branch"
                )
        return advice

    # -- reporting --------------------------------------------------------

    def summary(self) -> str:
        """Per-table shard/segment/encoding/zone-map summary (the
        ``python -m repro storage`` CLI)."""
        lines = []
        for name, storage in self.tables.items():
            lines.append(
                f"{name}: {storage.row_count} rows, "
                f"{len(storage.shards)} shard(s), "
                f"{storage.segment_count} segment(s) of "
                f"{storage.config.segment_rows} rows"
                + (f", sorted by {storage.sort_key}" if storage.sort_key else "")
            )
            for column in storage.columns:
                plain = column.plain_bytes
                packed = column.data_bytes
                ratio = plain / packed if packed else 1.0
                zones = ""
                if column.segments:
                    lo = min(s.min_value for s in column.segments)
                    hi = max(s.max_value for s in column.segments)
                    zones = f", zones [{lo} .. {hi}]"
                detail = f"bits={column.bits}, " if column.bits else ""
                lines.append(
                    f"  {column.name}: {column.encoding.name.lower()} "
                    f"({detail}{packed} B vs {plain} B plain, "
                    f"{ratio:.1f}x), distinct={column.distinct}{zones}"
                )
            for (t, index), stats in sorted(self.prune_stats.items()):
                if t == name and stats.considered:
                    column = storage.columns[index]
                    lines.append(
                        f"  [observed] {column.name}: skipped "
                        f"{stats.skipped}/{stats.considered} segments "
                        f"({stats.skip_share:.0%})"
                    )
        if self.german is not None:
            lines.append(
                f"strings: {self.german.count} german entries "
                f"({self.german.count * 16} B) + overflow heap"
            )
        return "\n".join(lines)
