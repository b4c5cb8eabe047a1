"""Storage-layout scan economics: bytes touched and throughput.

The storage claim is that compressed segments shrink the scan working
set: a selective scan (Q6) over frame-of-reference/dictionary segments
touches a fraction of the bytes a plain int64 layout reads, without
changing results.  ``bytes touched`` is the scan's working set — the
payload bytes of every visited segment plus the segment directory —
which is what compression actually buys (cache footprint); the VM-exact
``loads`` counter is reported alongside, but per-row unpacking reloads
packed words, so it understates the footprint win.  The measured
trajectory lands in ``BENCH_storage.json`` run over run, and the gate
enforces the committed ≥2x working-set reduction on Q6.
"""

from benchmarks._harness import (
    append_trajectory,
    best_of,
    report,
    trajectory_path,
)

from repro import Database
from repro.data.queries import ALL_QUERIES
from repro.storage import DIR_STRIDE, StorageConfig

TRAJECTORY_PATH = trajectory_path("storage")

# committed floor: a selective scan over the encoded layout must touch
# at most half the bytes of the plain layout (locally ~4.3x at both
# scale points; the floor leaves headroom for loader-heuristic drift)
BYTES_REDUCTION_FLOOR = 2.0

SCALES = (0.001, 0.01)
SEGMENT_ROWS = 256
REPEATS = 3

# the columns each query's table scans materialize (the scan working
# set); Q6 is the selective-scan gate, Q1 the full-scan baseline
SCAN_COLUMNS = {
    "q6": {
        "lineitem": (
            "l_shipdate", "l_discount", "l_quantity", "l_extendedprice",
        ),
    },
    "q1": {
        "lineitem": (
            "l_returnflag", "l_linestatus", "l_quantity",
            "l_extendedprice", "l_discount", "l_tax", "l_shipdate",
        ),
    },
}


def _bytes_touched(db, columns_by_table: dict) -> int:
    """Scan working set: visited payload bytes plus the directory."""
    total = 0
    for table_name, column_names in columns_by_table.items():
        storage = db.storage.table(table_name)
        for column in storage.columns:
            if column.name not in column_names:
                continue
            if column.plain_addr is not None:
                total += column.plain_bytes
            else:
                total += column.data_bytes
            total += len(column.segments) * DIR_STRIDE
    return total


def _rows_close(a, b) -> bool:
    if len(a) != len(b):
        return False
    for row_a, row_b in zip(sorted(map(tuple, a)), sorted(map(tuple, b))):
        for va, vb in zip(row_a, row_b):
            if isinstance(va, float) or isinstance(vb, float):
                if abs(va - vb) > 1e-6 * max(1.0, abs(va), abs(vb)):
                    return False
            elif va != vb:
                return False
    return True


def run_storage_bench() -> dict:
    record = {"segment_rows": SEGMENT_ROWS, "scales": []}
    for scale in SCALES:
        encoded = Database.tpch(
            scale=scale, seed=42,
            storage=StorageConfig(segment_rows=SEGMENT_ROWS),
        )
        plain = Database.tpch(
            scale=scale, seed=42,
            storage=StorageConfig.plain(segment_rows=SEGMENT_ROWS),
        )
        rows_scanned = encoded.storage.table("lineitem").row_count
        entry = {"scale": scale, "lineitem_rows": rows_scanned,
                 "queries": {}}
        for name, columns in SCAN_COLUMNS.items():
            sql = ALL_QUERIES[name].sql
            (enc_s, enc_result), (plain_s, plain_result) = (
                best_of(lambda: db.execute(sql), REPEATS)
                for db in (encoded, plain)
            )
            assert _rows_close(enc_result.rows, plain_result.rows), (
                f"{name}: encoded and plain layouts disagree at {scale}"
            )
            enc_bytes = _bytes_touched(encoded, columns)
            plain_bytes = _bytes_touched(plain, columns)
            entry["queries"][name] = {
                "encoded": {
                    "elapsed_s": round(enc_s, 4),
                    "rows_per_s": round(rows_scanned / enc_s),
                    "loads": enc_result.loads,
                    "instructions": enc_result.instructions,
                    "bytes_touched": enc_bytes,
                },
                "plain": {
                    "elapsed_s": round(plain_s, 4),
                    "rows_per_s": round(rows_scanned / plain_s),
                    "loads": plain_result.loads,
                    "instructions": plain_result.instructions,
                    "bytes_touched": plain_bytes,
                },
                "bytes_reduction": round(plain_bytes / enc_bytes, 2),
            }
        record["scales"].append(entry)
    return record


def format_table(record: dict) -> str:
    lines = [
        f"{'scale':<8}{'query':<7}{'layout':<9}{'bytes':>12}"
        f"{'loads':>12}{'rows/s':>12}",
    ]
    for entry in record["scales"]:
        for name, data in entry["queries"].items():
            for layout in ("plain", "encoded"):
                side = data[layout]
                lines.append(
                    f"{entry['scale']:<8}{name:<7}{layout:<9}"
                    f"{side['bytes_touched']:>12,}{side['loads']:>12,}"
                    f"{side['rows_per_s']:>12,}"
                )
            lines.append(
                f"{'':<15} -> {data['bytes_reduction']:.2f}x fewer "
                f"bytes touched"
            )
    lines.append(
        f"\ngate: Q6 bytes-touched reduction >= "
        f"{BYTES_REDUCTION_FLOOR:.1f}x on every scale point"
    )
    return "\n".join(lines)


def test_storage_scan_bytes_touched(benchmark):
    record = benchmark.pedantic(run_storage_bench, rounds=1, iterations=1)
    report(
        "Columnar storage: scan bytes touched, plain vs encoded",
        format_table(record),
    )
    append_trajectory(record, TRAJECTORY_PATH)
    for entry in record["scales"]:
        reduction = entry["queries"]["q6"]["bytes_reduction"]
        assert reduction >= BYTES_REDUCTION_FLOOR, (
            f"scale {entry['scale']}: Q6 touches only {reduction:.2f}x "
            f"fewer bytes on the encoded layout, below the "
            f"{BYTES_REDUCTION_FLOOR:.1f}x floor"
        )
