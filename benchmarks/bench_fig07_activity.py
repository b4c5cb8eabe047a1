"""Figure 7: operator activity over the query runtime.

The example query's profile, bucketed by sample timestamp: the probe-side
scan/join/aggregation are interleaved throughout (pipelined execution),
while the build phase is confined to the start — information invisible in
any aggregate profile.
"""

from repro.data.queries import EXAMPLE_QUERY

from benchmarks._harness import report


def test_fig07_operator_activity(example_db, benchmark):
    profile = benchmark.pedantic(
        lambda: example_db.profile(EXAMPLE_QUERY.sql), rounds=1, iterations=1
    )
    timeline = profile.activity_timeline(bins=30)
    rendered = profile.render_timeline(bins=30)
    report(
        "Fig 7 operator activity over time",
        rendered
        + "\n\n(glyphs encode each operator's share of samples per time bucket)",
    )

    assert timeline.bins
    by_kind_first = {}
    by_kind_last = {}
    first_half = timeline.bins[: len(timeline.bins) // 2]
    last_half = timeline.bins[len(timeline.bins) // 2 :]
    for bins, acc in ((first_half, by_kind_first), (last_half, by_kind_last)):
        for bucket in bins:
            for op, weight in bucket.by_operator.items():
                acc[op.kind] = acc.get(op.kind, 0.0) + weight
    # the join's build phase happens early: the build-side scan of products
    # must not appear in the second half
    assert by_kind_first.get("groupby", 0) > 0
    assert by_kind_last.get("groupby", 0) > 0
