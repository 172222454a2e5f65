"""Self-tests of the benchmark: its checks catch a wrong answer, its exact
counts repeat, its traced accounting closes (and fails to close when a layer
goes unwrapped) and its output matches BENCHMARK.json.  Run from the
repository root with ``python3 -m pytest perfbench -q``.

The workloads are shrunk so the tests take seconds; the code paths are the
ones the benchmark runs.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import reference
import run
import spans

HERE = Path(__file__).resolve().parent
SMALL = {
    "nd3-mixed": dataclasses.replace(run.WORKLOADS["nd3-mixed"], dims=(5, 6, 7),
                                     ops_per_round=60),
    "grid2d-mixed": dataclasses.replace(run.WORKLOADS["grid2d-mixed"], dims=(9, 8),
                                        ops_per_round=60),
    "matmul-minplus": dataclasses.replace(run.WORKLOADS["matmul-minplus"], n=5),
}


@pytest.fixture(autouse=True)
def few_builds(monkeypatch):
    # a shrunk backend builds in microseconds; a few builds per round still
    # take the repeated-build path
    monkeypatch.setattr(run, "SETUP_MIN_S", 0.002)
    # a small forest builds in milliseconds and samples the same way
    monkeypatch.setattr(run, "Reference", lambda: reference.Reference(depth=6))


def failed_share(rounds):
    passes = [p for pair in rounds for p in pair if p is not None]
    return sum(p.failed for p in passes) / sum(p.attempted for p in passes)


def exact(rounds):
    values, _, problems = run.per_layer(rounds)
    assert problems == []
    counts = run.exact_counts([u for u, _ in rounds])
    counts.update((k, v) for k, v in values.items() if k.endswith(".calls_per_op"))
    return counts, values


@pytest.mark.parametrize("name", SMALL)
def test_clean_run_has_no_failures(name):
    assert failed_share(run.run_rounds(SMALL[name], 3, 0, trace=True)) == 0


@pytest.mark.parametrize("name", SMALL)
def test_dropped_update_is_caught(name):
    rounds = run.run_rounds(SMALL[name], 3, 0, trace=False, drop_update=0)
    assert failed_share(rounds) > 0


@pytest.mark.parametrize("name", SMALL)
def test_exact_counts_repeat_and_trace_accounting_closes(name):
    first, values = exact(run.run_rounds(SMALL[name], 4, 0, trace=True))
    second, _ = exact(run.run_rounds(SMALL[name], 4, 0, trace=True))
    assert first == second
    assert 0 < values["trace.harness_share"] < 1


def test_unwrapped_layer_breaks_trace_accounting(monkeypatch):
    # without spans around Grid2D's own methods, their self time lies inside
    # the harness's brackets but in no span
    kept = tuple(t for t in spans.TARGETS if not t[0].startswith("grid2d."))
    monkeypatch.setattr(spans, "TARGETS", kept)
    values, _, problems = run.per_layer(run.run_rounds(SMALL["grid2d-mixed"], 3, 0, trace=True))
    assert values["trace.unaccounted_share"] > run.UNACCOUNTED_LIMIT
    assert any("does not close" in p for p in problems)


@pytest.mark.parametrize("name", SMALL)
def test_timings_scale_by_the_round_reference(monkeypatch, name):
    # sample at every call, so every round has samples of its own
    monkeypatch.setattr(reference, "EVERY_NS", 0)
    passes = [u for u, _ in run.run_rounds(SMALL[name], 3, 0, trace=False)]
    assert all(p.reference_samples > 0 and p.scale > 0 for p in passes)
    raw = run.timings(passes, scaled=False)
    for p in passes:
        p.scale = 2.0
    doubled = run.timings(passes, scaled=True)
    assert doubled["ops_per_s"] == pytest.approx(raw["ops_per_s"] / 2)
    for key in ("setup_s", "update_p50_us", "query_p50_us", "batch_s", "verify_s"):
        assert doubled[key] == pytest.approx(2 * raw[key])


@pytest.mark.parametrize("name, rebuilds", [
    ("nd3-mixed", False), ("grid2d-mixed", True), ("matmul-minplus", False)])
def test_only_grid2d_mixed_rebuilds(name, rebuilds):
    counts, _ = exact(run.run_rounds(SMALL[name], 5, 0, trace=True))
    for span in ("seg1d.to_array", "seg1d.reinit"):
        assert (counts[f"{span}.calls_per_op"] > 0) == rebuilds


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_output_matches_benchmark_json(monkeypatch, capsys, trace, section):
    # a tiny grid still yields the ten samples beyond p99 that every run needs
    tiny = dataclasses.replace(run.WORKLOADS["grid2d-mixed"], dims=(3, 3), ops_per_round=800)
    monkeypatch.setitem(run.WORKLOADS, "grid2d-mixed", tiny)
    code = run.main(["--workload", "grid2d-mixed", "--seed", "1", "--seconds", "0",
                     "--trace", str(trace)])
    *_, info, last = capsys.readouterr().out.strip().splitlines()
    result = json.loads(last)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec[section]} == {
        k: m["unit"] for k, m in result["metrics"].items()}
    assert json.loads(info)["failed_op_share"] == 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid2d-mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
