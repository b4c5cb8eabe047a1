"""The columnar storage engine: encodings, zone maps, boundary layouts.

Covers the loader heuristics, the encode/decode round trips, the German
16-byte string layout, zone-map pruning soundness (plain vs pruned vs
compressed layouts agree on every query), and the boundary cases the
fuzzer's grammar rarely hits head-on: empty tables, single-row trailing
segments, all-equal RLE columns, predicates straddling a segment
boundary, and dictionary strings at the inline-prefix boundary.
"""

import pytest

from repro import Database
from repro.catalog import Column, DataType, Schema
from repro.data.queries import ALL_QUERIES
from repro.errors import ReproError
from repro.storage import (
    Encoding,
    GermanStringTable,
    StorageConfig,
    analyze_segments,
    bits_for_range,
    decode_segment,
    encode_segment,
    pack_words,
    run_lengths,
    unpack_word,
)
from repro.vm.memory import CACHE_LINE, Memory

from .conftest import rows_match


# ---------------------------------------------------------------------------
# encoding primitives


def test_bits_for_range_picks_smallest_legal_width():
    assert bits_for_range(0) == 1
    assert bits_for_range(1) == 1
    assert bits_for_range(2) == 2
    assert bits_for_range(3) == 2
    assert bits_for_range(4) == 4
    assert bits_for_range(255) == 8
    assert bits_for_range(256) == 16
    assert bits_for_range((1 << 32) - 1) == 32
    assert bits_for_range(1 << 32) is None


@pytest.mark.parametrize("bits", [1, 2, 4, 8, 16, 32])
def test_pack_unpack_roundtrip(bits):
    per_word = 64 // bits
    values = [(i * 2654435761) % (1 << bits) for i in range(3 * per_word + 1)]
    words = pack_words(values, bits)
    got = [unpack_word(words[i // per_word], i % per_word, bits)
           for i in range(len(values))]
    assert got == values


def test_run_lengths_exclusive_ends():
    assert run_lengths([5, 5, 7, 7, 7, 2]) == [(5, 2), (7, 5), (2, 6)]
    assert run_lengths([1]) == [(1, 1)]
    assert run_lengths([]) == []


@pytest.mark.parametrize("kind", list(Encoding))
def test_encode_decode_roundtrip(kind):
    values = [100, 100, 100, 103, 103, 250, 250, 250, 250, 17]
    [analysis] = analyze_segments(values, 16)
    bits = 8 if kind in (Encoding.FOR, Encoding.DICT) else 0
    encoded = encode_segment(kind, values, analysis, bits)
    assert decode_segment(kind, encoded, analysis.rows, bits) == values


def test_for_constant_segment_has_no_payload():
    values = [42] * 8
    [analysis] = analyze_segments(values, 8)
    encoded = encode_segment(Encoding.FOR, values, analysis, 0)
    assert encoded.data == []
    assert encoded.base == 42
    assert decode_segment(Encoding.FOR, encoded, 8, 0) == values


# ---------------------------------------------------------------------------
# configuration validation


def test_config_rejects_non_power_of_two_segments():
    with pytest.raises(ReproError):
        StorageConfig(segment_rows=100)
    with pytest.raises(ReproError):
        StorageConfig(segment_rows=1)


def test_plain_and_pruned_twins_share_layout_knobs():
    plain = StorageConfig.plain(segment_rows=16)
    pruned = StorageConfig.pruned(segment_rows=16)
    assert not plain.compress and not plain.prune
    assert not pruned.compress and pruned.prune
    assert plain.segment_rows == pruned.segment_rows


# ---------------------------------------------------------------------------
# boundary layouts


def _db(rows, dtype=DataType.INT, config=None, sort_key=None):
    """A one-table database: column "v" plus a row-id column "k"."""
    db = Database(storage=config or StorageConfig(segment_rows=4))
    t = db.create_table("t", Schema([
        Column("k", DataType.INT),
        Column("v", dtype),
    ]))
    t.extend([(i, v) for i, v in enumerate(rows)])
    if sort_key:
        t.sort_key = sort_key
    db.finalize()
    return db


def test_empty_table_builds_and_scans():
    db = _db([])
    storage = db.storage.table("t")
    assert storage.segment_count == 0
    for column in storage.columns:
        assert column.segments == []
    result = db.execute("select sum(v) from t")
    assert result.rows == [(None,)] or result.rows == [(0,)]


def test_single_row_trailing_segment():
    # 9 rows at segment_rows=4: segments of 4, 4, and 1
    db = _db(list(range(9)), sort_key="k")
    storage = db.storage.table("t")
    assert storage.segment_count == 3
    column = storage.column(1)
    assert [s.rows for s in column.segments] == [4, 4, 1]
    result = db.execute("select sum(v) from t where v >= 8")
    assert result.rows == [(8,)]


def test_all_equal_column_chooses_rle():
    db = _db([7] * 12)
    column = db.storage.table("t").column(1)
    assert column.encoding is Encoding.RLE
    assert all(s.min_value == s.max_value == 7 for s in column.segments)
    result = db.execute("select count(k) from t where v = 7")
    assert result.rows == [(12,)]


def test_predicate_straddling_segment_boundary():
    # values 0..15 sorted; the window [3, 5] spans segments [0..3], [4..7]
    values = list(range(16))
    db = _db(values, sort_key="v")
    plain = _db(values, config=StorageConfig.plain(segment_rows=4),
                sort_key="v")
    sql = "select sum(v) from t where v >= 3 and v <= 5"
    assert db.execute(sql).rows == plain.execute(sql).rows == [(12,)]


def test_zone_maps_skip_out_of_range_segments():
    db = _db(list(range(32)), sort_key="k",
             config=StorageConfig.pruned(segment_rows=4))
    result = db.execute("select sum(v) from t where v < 4")
    assert result.rows == [(6,)]
    stats = db.storage.prune_stats
    assert stats, "scan emitted no zone-map counters"
    total_skipped = sum(s.skipped for s in stats.values())
    assert total_skipped > 0, "no segment was pruned"


def test_forced_encoding_override():
    config = StorageConfig(
        segment_rows=4, force=(("t", "v", Encoding.FOR),)
    )
    db = _db([10, 11, 12, 13, 10, 11, 12, 13], config=config)
    assert db.storage.table("t").column(1).encoding is Encoding.FOR
    assert db.execute("select sum(v) from t").rows == [(92,)]


def test_float_columns_stay_plain():
    # FLOAT payloads are raw doubles: no integer frames, no zone compares
    db = _db([1.5, 2.5, 3.5, 4.5, 5.5], dtype=DataType.FLOAT)
    assert db.storage.table("t").column(1).encoding is Encoding.PLAIN
    # DECIMAL is integer cents after catalog encoding, so it compresses
    db2 = _db([1.5, 2.5, 3.5, 4.5, 5.5], dtype=DataType.DECIMAL)
    assert db2.storage.table("t").column(1).encoding is not Encoding.PLAIN


def test_segment_payloads_are_cache_line_aligned():
    db = Database.tpch(scale=0.001, seed=42,
                       storage=StorageConfig(segment_rows=16))
    for table_storage in db.storage.tables.values():
        for column in table_storage.columns:
            assert column.dir_addr % CACHE_LINE == 0
            if column.encoding is Encoding.PLAIN:
                if column.plain_addr is not None:
                    assert column.plain_addr % CACHE_LINE == 0
            elif column.segments:
                assert column.segments[0].data_addr % CACHE_LINE == 0


# ---------------------------------------------------------------------------
# German strings: 16-byte entries, 12-byte inline boundary


def test_german_string_inline_boundary():
    # lengths 11, 12 (inline max), and 13 (spilled) sharing a prefix
    memory = Memory()
    words = ["aaaaaaaaaab", "aaaaaaaaaabb", "aaaaaaaaaabbc", "zzz", ""]
    table = GermanStringTable.build(_FakeDictionary(words), memory)
    for i, w in enumerate(words):
        assert table.value_of(memory, i) == w
    order = sorted(range(len(words)), key=lambda i: words[i])
    for a, b in zip(order, order[1:]):
        assert table.compare(memory, a, b) < 0
        assert table.compare(memory, b, a) > 0
        assert table.compare(memory, a, a) == 0


class _FakeDictionary:
    def __init__(self, values):
        self._values = list(values)

    def __len__(self):
        return len(self._values)

    def value_of(self, i):
        return self._values[i]


def test_dict_ids_at_inline_prefix_boundary_query():
    """Dictionary-encoded string predicates still work when values
    collide on the 12-byte inline prefix (ids must disambiguate)."""
    db = Database(storage=StorageConfig(segment_rows=4))
    t = db.create_table("t", Schema([
        Column("k", DataType.INT),
        Column("s", DataType.STRING),
    ]))
    near = ["aaaaaaaaaabb", "aaaaaaaaaabbc", "aaaaaaaaaabbd", "short"]
    t.extend([(i, near[i % len(near)]) for i in range(12)])
    db.finalize()
    result = db.execute("select count(k) from t where s = 'aaaaaaaaaabbc'")
    assert result.rows == [(3,)]


# ---------------------------------------------------------------------------
# satellite 1: optimizer statistics from the loader pass


def test_column_stats_match_full_column_pass():
    """ColumnStats derived from per-segment zone maps / dictionaries must
    equal a full-column pass, so optimizer estimates are unchanged."""
    db = Database.tpch(scale=0.001, seed=42)
    for name, table in db.catalog.tables.items():
        for index in range(len(table.schema)):
            stats = table.stats_for(index)
            column = table.columns[index]
            if not column:
                continue
            label = f"{name}.{table.schema.columns[index].name}"
            assert stats.min_value == min(column), label
            assert stats.max_value == max(column), label
            assert stats.distinct == len(set(column)), label


def test_cardinality_estimates_unchanged_by_storage():
    """The planner must see identical estimates whichever layout backs
    the table (plain, pruned, or compressed)."""
    dbs = [
        Database.tpch(scale=0.001, seed=42, storage=cfg)
        for cfg in (StorageConfig(), StorageConfig.plain(),
                    StorageConfig.pruned())
    ]
    plans = [db.explain(ALL_QUERIES["q3"].sql) for db in dbs]
    assert plans[0] == plans[1] == plans[2]


# ---------------------------------------------------------------------------
# layout equivalence across every benchmark query


def test_all_queries_agree_across_layouts():
    """All 22 TPC-H queries: plain, pruned, and compressed layouts must
    produce identical bags, and the pruned layout (identical bytes,
    zone-map branches added) must not run more instructions than plain
    beyond the per-segment bookkeeping budget."""
    encoded = Database.tpch(scale=0.001, seed=7,
                            storage=StorageConfig(segment_rows=64))
    plain = Database.tpch(scale=0.001, seed=7,
                          storage=StorageConfig.plain(segment_rows=64))
    pruned = Database.tpch(scale=0.001, seed=7,
                           storage=StorageConfig.pruned(segment_rows=64))
    max_segments = max(
        t.segment_count for t in encoded.storage.tables.values()
    )
    budget = 128 * (max_segments + 1)
    for name, query in ALL_QUERIES.items():
        r_enc = encoded.execute(query.sql)
        r_plain = plain.execute(query.sql)
        r_pruned = pruned.execute(query.sql)
        assert rows_match(r_enc.rows, r_plain.rows), name
        assert rows_match(r_pruned.rows, r_plain.rows), name
        assert r_pruned.instructions <= r_plain.instructions + budget, (
            f"{name}: pruned layout ran {r_pruned.instructions} "
            f"instructions vs plain {r_plain.instructions} (+{budget})"
        )
