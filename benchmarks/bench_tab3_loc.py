"""Table 3: implementation effort of the profiling integration.

The paper's point: the *engine-side* integration is tiny (56 lines inside
~22 k of code-generation machinery); the bulk of Tailored Profiling lives
outside the engine, in sample processing and visualization.  We count the
same categories in this repository.
"""

import pathlib

from benchmarks._harness import report

SRC = pathlib.Path(__file__).parent.parent / "src" / "repro"


def loc(path: pathlib.Path) -> int:
    """Non-blank, non-comment-only lines of code."""
    count = 0
    for line in path.read_text().splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            count += 1
    return count


def loc_of(*relative: str) -> int:
    total = 0
    for rel in relative:
        path = SRC / rel
        if path.is_dir():
            total += sum(loc(p) for p in sorted(path.rglob("*.py")))
        else:
            total += loc(path)
    return total


def test_tab3_lines_of_code(benchmark):
    rows = benchmark.pedantic(
        lambda: [
            ("engine (catalog/sql/plan/pipeline/codegen/backend/vm)", loc_of(
                "catalog", "sql", "plan", "pipeline", "codegen", "backend",
                "vm", "engine.py", "errors.py", "data",
            )),
            ("profiling integration hooks (trackers + tagging)", loc_of(
                "profiling/trackers.py", "profiling/tagging.py",
            )),
            ("sample processing", loc_of("profiling/postprocess.py")),
            ("reports / visualization", loc_of(
                "profiling/reports.py", "profiling/profile.py",
            )),
            ("IR layer (the 'LLVM' of the stack)", loc_of("ir")),
        ],
        rounds=1, iterations=1,
    )

    lines = [
        "Table 3 — implementation size (this repository)",
        "",
        f"{'component':<52} {'LoC':>7}",
    ]
    for name, count in rows:
        lines.append(f"{name:<52} {count:>7,}")
    lines.append("")
    lines.append("paper: Umbra codegen +56 lines; Tailored Profiling 1,686 lines")
    lines.append("(sample processing 1,176 + visualization 510) on ~22,000 engine lines")
    report("Table 3 lines of code", "\n".join(lines))

    by_name = dict(rows)
    hooks = by_name["profiling integration hooks (trackers + tagging)"]
    engine = by_name["engine (catalog/sql/plan/pipeline/codegen/backend/vm)"]
    # the paper's headline: the in-engine footprint is a rounding error
    assert hooks < engine * 0.05
