"""Figure 6: the running example's annotated plan (6a) and annotated IR (6b).

Reproduces the Listing 1 lesson: the hash join owns the single hottest
instruction (the directory-lookup load), but the aggregation's samples,
spread across many instructions, add up to more — visible only once
instructions are attributed to operators.
"""

from repro.data.queries import EXAMPLE_QUERY

from benchmarks._harness import report


def test_fig06_annotated_profile(example_db, benchmark):
    profile = benchmark.pedantic(
        lambda: example_db.profile(EXAMPLE_QUERY.sql), rounds=1, iterations=1
    )

    plan_text = profile.annotated_plan()
    ir_text = profile.annotated_ir(pipeline_index=1)

    # quantify the lesson: hottest single join instruction vs. aggregation sum
    counts: dict[int, int] = {}
    for attribution in profile.attributions:
        if attribution.ir_id is not None and attribution.category == "operator":
            counts[attribution.ir_id] = counts.get(attribution.ir_id, 0) + 1
    total = sum(counts.values()) or 1
    per_op: dict[str, float] = {}
    hottest_join_line = 0.0
    for ir_id, count in counts.items():
        tasks = profile.tagging.tasks_of_instruction(ir_id)
        for task in tasks:
            kind = task.operator.kind
            per_op[kind] = per_op.get(kind, 0.0) + count / len(tasks)
            if kind == "hashjoin":
                hottest_join_line = max(hottest_join_line, count / total)

    groupby_share = per_op.get("groupby", 0.0) / total
    lines = [
        "Fig 6a — operator-annotated plan (example query):",
        plan_text,
        "",
        f"hottest single join instruction: {hottest_join_line * 100:.1f}% "
        "(the Listing 1 'directory lookup' load)",
        f"aggregation total (spread over many lines): {groupby_share * 100:.1f}%",
        "paper's lesson: the spread-out aggregation outweighs the hot join line",
        "",
        "Fig 6b — annotated IR excerpt (probe pipeline):",
    ]
    lines += ir_text.splitlines()[:42]
    report("Fig 6 annotated profile", "\n".join(lines))

    assert groupby_share > hottest_join_line
