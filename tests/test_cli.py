"""Tests for the command-line interface."""

import io
import json

import pytest

from repro.__main__ import build_parser, main


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_run_named_query():
    code, text = run_cli(["--query", "q6", "--scale", "0.0005"])
    assert code == 0
    assert "revenue" in text
    assert "cycles]" in text


def test_run_raw_sql():
    code, text = run_cli([
        "--sql", "select count(*) n from nation", "--scale", "0.0005",
    ])
    assert code == 0
    assert "n" in text.splitlines()[0]
    assert "25" in text


def test_explain_mode():
    code, text = run_cli([
        "--sql", "select count(*) n from lineitem where l_quantity < 5",
        "--scale", "0.0005", "--explain",
    ])
    assert code == 0
    assert "scan lineitem" in text
    assert "cycles]" not in text  # nothing executed


def test_profile_with_reports(tmp_path):
    json_path = tmp_path / "profile.json"
    folded_path = tmp_path / "stacks.folded"
    code, text = run_cli([
        "--query", "fig9", "--scale", "0.0005", "--profile",
        "--timeline", "--pipelines",
        "--json", str(json_path), "--folded", str(folded_path),
    ])
    assert code == 0
    assert "samples:" in text
    assert "activity over time:" in text
    assert "pipeline 0" in text
    document = json.loads(json_path.read_text())
    assert document["summary"]["total_samples"] > 0
    assert folded_path.read_text().strip()


def test_profile_callstack_mode():
    code, text = run_cli([
        "--query", "q6", "--scale", "0.0005", "--profile",
        "--mode", "callstack", "--period", "2000",
    ])
    assert code == 0
    assert "% operators" in text


def test_parallel_execution_via_cli():
    code, text = run_cli([
        "--query", "q6", "--scale", "0.0005", "--workers", "3",
    ])
    assert code == 0


@pytest.mark.parametrize("argv", [
    ["--query", "q6", "--workers", "0"],
    ["--query", "q6", "--profile", "--period", "0"],
    ["serve", "--synthetic", "--workers", "0"],
    ["serve", "--synthetic", "--morsel-size", "0"],
    ["serve", "--synthetic", "--period", "0"],
    ["serve", "--synthetic", "--clients", "0"],
    ["fleet", "--tenants", "0"],
    ["fleet", "--workers", "0"],
    ["storage", "--segment-rows", "3"],
    ["fuzz", "--budget", "0"],
    ["fuzz", "--rotate-every", "0"],
    ["fuzz", "--max-hints", "-1"],
    ["views", "--fuzz", "--queries", "0"],
    ["pgo", __file__],
    ["--query", "q1", "--max-rows", "-2"],
    ["serve", "--synthetic", "--queue", "0"],
    ["serve", "--synthetic", "--queue", "-1"],
    ["fleet", "--tenant-quota", "0", "--queries", "3"],
    ["fleet", "--tenant-quota", "-2", "--queries", "3"],
    ["fleet", "--queries", "0"],
    ["views", "--batches", "-3"],
])
def test_an_invalid_knob_is_one_line_and_exit_2(argv):
    code, text = run_cli(argv)
    assert code == 2
    assert text.startswith("error: ") and text.count("\n") == 1, text


@pytest.mark.parametrize("command", [
    ["--query", "q6"],
    ["serve", "--tpch", "--workload"],
    ["storage"],
], ids=["main", "serve", "storage"])
def test_a_scale_that_is_not_positive_is_one_line_and_exit_2(command, tmp_path):
    if command[0] == "serve":
        workload = tmp_path / "workload.jsonl"
        workload.write_text('{"sql": "select count(*) from nation"}\n')
        command = command + [str(workload)]
    for scale in ("-1", "0"):
        code, text = run_cli(command + ["--scale", scale])
        assert code == 2
        assert text == "error: --scale must be positive\n", text


def run_vm_bench_cli(argv):
    from benchmarks.bench_vm_speed import main as bench_main

    out = io.StringIO()
    code = bench_main(argv, out=out)
    return code, out.getvalue()


@pytest.mark.parametrize("queries", [",", "q6,", " ,q6"])
def test_an_empty_query_name_is_named_as_such(queries):
    # not "unknown queries: , " with nothing between the commas
    code, text = run_vm_bench_cli(["--queries", queries])
    assert code == 2
    assert text == "error: --queries names an empty query\n"


def test_an_unknown_query_name_is_refused_before_any_run():
    code, text = run_vm_bench_cli(["--queries", "q6,q99"])
    assert (code, text) == (2, "error: unknown queries: q99\n")


def test_parser_rejects_missing_source():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_rejects_unknown_query():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--query", "q99"])


def test_sql_error_gets_caret_diagnostics():
    code, text = run_cli([
        "--sql", "select l_quantity frm lineitem", "--scale", "0.0005",
    ])
    assert code == 1
    assert "^" in text
    assert "line 1" in text


def test_cli_save_session(tmp_path):
    session_dir = tmp_path / "session"
    code, text = run_cli([
        "--query", "q6", "--scale", "0.0005", "--profile",
        "--save-session", str(session_dir),
    ])
    assert code == 0
    from repro.profiling.session import load_session

    session = load_session(session_dir)
    assert session.summary()["total_samples"] > 0


def test_cli_pgo_report(tmp_path):
    from repro import Database, ExecOptions

    store_dir = tmp_path / "pgo"
    db = Database.tpch(scale=0.0005, seed=42)
    db.enable_pgo(str(store_dir))
    db.profile("select count(*) n from nation", options=ExecOptions(pgo=True))
    code, text = run_cli(["pgo", str(store_dir)])
    assert code == 0
    assert "1 profiled run(s)" in text
    assert "cardinalities" in text
    assert "scan|nation" in text


def test_a_fleet_counts_its_quota_refusals_and_names_them_by_place():
    code, text = run_cli([
        "fleet", "--tenant-quota", "1", "--queries", "6", "--tenants", "2",
    ])
    assert code == 0
    summary, *refusals = text.splitlines()[:5]
    assert "served 2 queries" in summary and ", 4 refused;" in summary
    assert [line.split(":")[0] for line in refusals] == [
        "  query 3 [tenant-0]", "  query 4 [tenant-1]",
        "  query 5 [tenant-0]", "  query 6 [tenant-1]",
    ]
    assert all("[TENANT_QUOTA]" in line for line in refusals)


def test_cli_pgo_empty_store(tmp_path):
    code, text = run_cli(["pgo", str(tmp_path / "nothing")])
    assert code == 1
    assert "no feedback stored" in text


def test_cli_dot_export(tmp_path):
    dot_path = tmp_path / "plan.dot"
    code, _ = run_cli([
        "--query", "q6", "--scale", "0.0005", "--profile",
        "--dot", str(dot_path),
    ])
    assert code == 0
    dot = dot_path.read_text()
    assert dot.startswith("digraph plan {")
    assert "scan lineitem" in dot


def test_cli_pgo_fingerprint_filter(tmp_path):
    from repro import Database, ExecOptions

    store_dir = tmp_path / "pgo"
    db = Database.tpch(scale=0.0005, seed=42)
    db.enable_pgo(str(store_dir))
    db.profile("select count(*) n from nation", options=ExecOptions(pgo=True))
    code, text = run_cli([
        "pgo", str(store_dir), "--fingerprint", "not-a-real-fingerprint",
    ])
    assert code == 1
    assert "no feedback stored" in text


def test_cli_fuzz_clean_run():
    code, text = run_cli([
        "fuzz", "--seed", "1", "--budget", "5", "--max-hints", "2",
        "--no-pgo", "--quiet",
    ])
    assert code == 0
    last = text.strip().splitlines()[-1]
    assert "fuzz seed=1" in last
    assert "ran 5 queries" in last
    assert "0 disagreement(s)" in last
    assert "tier" not in last


def test_the_tiering_flags_are_gone():
    # every root gets its one treatment at its first compile: there is
    # no promotion to ask for, on a query or on a service
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--query", "q6", "--tiering"])
    with pytest.raises(SystemExit):
        run_cli(["serve", "--synthetic", "--tiering"])
    code, text = run_cli(["serve", "--synthetic", "--queries", "6"])
    assert code == 0
    assert "served 6 queries" in text and "promotion" not in text


def test_cli_fuzz_detects_injected_miscompile(tmp_path):
    corpus = tmp_path / "corpus"
    code, text = run_cli([
        "fuzz", "--seed", "3", "--budget", "2", "--inject-miscompile",
        "--no-pgo", "--max-hints", "0", "--corpus", str(corpus), "--quiet",
    ])
    assert code == 1
    assert "disagreement" in text
    assert "repro:" in text
    assert list(corpus.glob("*.json"))


def test_cli_fuzz_rejects_bad_budget():
    code, text = run_cli(["fuzz", "--budget", "0"])
    assert code == 2
    assert "--budget" in text


def test_cli_fuzz_progress_output():
    code, text = run_cli([
        "fuzz", "--seed", "2", "--budget", "1", "--no-pgo",
        "--max-hints", "0", "--time-limit", "60",
    ])
    assert code == 0
    assert "executor runs" in text


def test_cli_views_demo():
    code, text = run_cli(["views", "--batches", "2"])
    assert code == 0
    assert "view by_bucket" in text
    assert "view top_tickets" in text
    assert "view hot_margins" in text
    assert "subscription 'dashboard'" in text
    assert "view maintenance" in text
    assert "maintenance samples" in text


def test_cli_views_fuzz_smoke():
    code, text = run_cli([
        "views", "--fuzz", "--queries", "5", "--batches", "2", "--quiet",
    ])
    assert code == 0
    last = text.strip().splitlines()[-1]
    assert "views-fuzz seed=0" in last
    assert "0 disagreement(s)" in last


def test_cli_views_fuzz_rejects_bad_budget():
    code, text = run_cli(["views", "--fuzz", "--queries", "0"])
    assert code == 2
    assert "--queries" in text


@pytest.mark.parametrize("flag", [
    "--timeline", "--pipelines", "--ir",
    "--json", "--folded", "--save-session", "--dot",
])
def test_a_profile_only_flag_needs_profile(flag, tmp_path):
    # refused before the database is built, not silently ignored
    value = [] if flag in ("--timeline", "--pipelines", "--ir") else [
        str(tmp_path / "out")
    ]
    code, text = run_cli(["--query", "q6", flag, *value])
    assert code == 2
    assert text == f"error: {flag} needs --profile\n", text
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flag", ["--json", "--save-session"])
def test_an_output_path_in_a_missing_directory_is_refused_before_the_run(
    flag, tmp_path,
):
    path = tmp_path / "missing" / "out"
    code, text = run_cli(["--query", "q6", "--profile", flag, str(path)])
    assert code == 2
    assert text.startswith("error: ") and text.count("\n") == 1, text
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("history", ['[{"run": 0},', '{"run": 0}'])
def test_an_unreadable_trajectory_is_refused_and_left_alone(history, tmp_path):
    from benchmarks._harness import append_trajectory

    path = tmp_path / "BENCH_vm.json"
    path.write_text(history)
    with pytest.raises(ValueError):
        append_trajectory({"x": 1}, path)
    # the bench answers before it spends minutes benchmarking
    code, text = run_vm_bench_cli(["--queries", "q6", "--json", str(path)])
    assert code == 2
    assert text.startswith("error: ") and text.count("\n") == 1, text
    assert path.read_bytes() == history.encode()
