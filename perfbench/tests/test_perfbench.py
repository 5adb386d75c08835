"""Tests of the benchmark's own logic (not of the program it measures)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench import daemonbench, layers, simbench, workloads
from perfbench.run import END_TO_END
from perfbench.tracing import (
    Patcher,
    Tracer,
    percentile_supported,
    samples_beyond,
    self_time,
    summarise_spans,
)
from repro.xpath.evaluator import matching_documents
from repro.xpath.parser import parse_query

ROOT = Path(__file__).resolve().parents[2]


def shrink(spec, **overrides):
    """A smaller copy of a workload, same code paths."""
    if isinstance(spec, workloads.SimWorkload):
        return replace(spec, config=spec.config.with_(**overrides))
    return replace(spec, **overrides)


def small_table2(seed):
    return shrink(
        workloads.sim_table2(seed),
        document_count=60,
        n_q=25,
        arrival_cycles=2,
        cycle_data_capacity=20_000,
    )


def small_flash(seed):
    return shrink(
        workloads.sim_flash_adaptive(seed),
        document_count=120,
        n_q=12,
        arrival_cycles=6,
        cycle_data_capacity=6_000,
    )


def small_daemon(seed):
    return shrink(
        workloads.daemon_closed(seed),
        document_count=60,
        plan_sessions=5,
        warmup_sessions=1,
        min_sessions=7,
    )


# ----------------------------------------------------------------------
# Self time and the tracer
# ----------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    assert self_time(0.0, 10.0, []) == 10.0
    # overlapping children count once; a child spilling past the end is clipped
    assert self_time(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)]) == 5.0
    assert self_time(0.0, 10.0, [(9.0, 12.0)]) == 9.0


def test_summary_self_time_excludes_direct_children_only():
    spans = [
        ["outer", 0.0, 10.0, None, None],
        ["mid", 1.0, 6.0, 0, None],
        ["leaf", 2.0, 3.0, 1, None],
        ["mid", 7.0, 8.0, 0, None],
    ]
    summary = summarise_spans(spans)
    assert summary["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 4.0}
    assert summary["mid"] == {"calls": 2, "total_s": 6.0, "self_s": 5.0}
    assert summary["leaf"]["self_s"] == 1.0
    assert summarise_spans(spans, window=(0.5, 6.5)).keys() == {"mid", "leaf"}


def test_tracer_nests_spans_and_skips_same_name_reentry():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    class Box:
        def inner(self, n):
            return self.inner(n - 1) if n else 0

        def outer(self):
            return self.inner(2)

    patcher = Patcher()
    patcher.replace(Box, "inner", lambda fn: tracer.wrap("inner", fn))
    patcher.replace(Box, "outer", lambda fn: tracer.wrap("outer", fn))
    try:
        Box().outer()
    finally:
        patcher.undo()
    assert [(s[0], s[3]) for s in tracer.spans] == [("outer", None), ("inner", 0)]
    assert not hasattr(Box.inner, "__wrapped__")


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------


def test_a_percentile_needs_ten_samples_beyond_it():
    assert samples_beyond(90, 100) == 10
    assert percentile_supported(90, 100)
    assert not percentile_supported(90, 99)
    assert percentile_supported(50, 20)
    assert not percentile_supported(99, 900)


def test_daemon_workload_always_reaches_the_p90_sample_count():
    assert percentile_supported(90, workloads.daemon_closed(1).min_sessions)


# ----------------------------------------------------------------------
# Seeds and determinism
# ----------------------------------------------------------------------


def test_same_seed_same_load_plan_and_oracle():
    first = daemonbench.prepare(small_daemon(3))
    again = daemonbench.prepare(small_daemon(3))
    other = daemonbench.prepare(small_daemon(4))
    assert first[0] == again[0]
    assert first[1] == again[1]
    # another seed starts elsewhere in the same cycle of queries
    assert first[0] != other[0] and first[0] == other[0][4:] + other[0][:4]


def test_same_seed_same_sim_byte_metrics():
    spec = small_table2(3)
    one = simbench.run_iteration(spec, spec.query_seeds[0])
    two = simbench.run_iteration(spec, spec.query_seeds[0])
    assert (one.access_bytes_mean, one.tuning_bytes_mean) == (
        two.access_bytes_mean,
        two.tuning_bytes_mean,
    )
    assert one.signature_digest == two.signature_digest
    other_spec = small_table2(4)
    other = simbench.run_iteration(other_spec, other_spec.query_seeds[0])
    assert other.signature_digest != one.signature_digest


def test_oracle_matches_matching_documents():
    spec = small_table2(5)
    documents = spec.documents()
    queries = [
        parse_query(text)
        for text in ("//body", "/nitf/head/title", "//p//em", "/nitf/*/hl1", '//p[@id="x"]')
    ]
    table = workloads.expected_results(queries, documents)
    for query in queries:
        assert table[query] == matching_documents(query, documents)


# ----------------------------------------------------------------------
# A second seed passes every check
# ----------------------------------------------------------------------


def _no_spans(spans, sessions, suffix):
    pass


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("build", [small_table2, small_flash], ids=["table2", "flash"])
def test_sim_workloads_pass_their_checks_on_a_second_seed(build, trace):
    result = simbench.run(build(2), trace=trace, write_spans=_no_spans)
    assert result["correct"], result["errors"]
    assert result["failed"] == 0
    if trace:
        assert result["metrics"]["broadcast.build_cycle.calls"] > 0
        assert result["metrics"]["sim.run.self_ms"] > 0


@pytest.mark.parametrize("trace", [False, True])
def test_daemon_workload_passes_its_checks_on_a_second_seed(tmp_path, trace):
    result = daemonbench.run(small_daemon(2), 0, trace, ROOT, tmp_path, _no_spans)
    assert result["correct"], result["errors"]
    assert result["attempted"] == 7 and result["failed"] == 0
    if trace:
        metrics = result["metrics"]
        assert metrics["net.signature_verified_ratio"] == 1.0
        assert metrics["broadcast.build_cycle.calls"] == metrics["net.encode_cycle.calls"]
    else:
        assert set(result["metrics"]) == set(END_TO_END)


def test_a_wrong_result_fails_the_check(monkeypatch):
    spec = small_table2(2)
    real = workloads.expected_results

    def off_by_one(queries, documents):
        table = real(queries, documents)
        first = sorted(table, key=str)[0]
        table[first] = table[first] | {10_000}
        return table

    monkeypatch.setattr(simbench, "expected_results", off_by_one)
    assert simbench.run_iteration(spec, spec.query_seeds[0]).errors


# ----------------------------------------------------------------------
# The benchmark definition and the command
# ----------------------------------------------------------------------


def test_benchmark_json_matches_the_command():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    catalogue = layers.per_layer_catalogue()
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == catalogue
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("archive", ".work"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-table2", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
