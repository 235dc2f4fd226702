"""Self-test of the benchmark.

    python3 -m pytest bench/tests

Run from anywhere inside a source checkout; it measures the checkout that
holds it. Two traced measurements per workload at the default seed (about a
minute in all) must repeat every count and metrics.csv exactly, and the
self times of each traced run's spans must add up to its run_s within the
reported tracing overhead.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from spans import self_times  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.fixture(scope="module", params=list(WORKLOADS))
def traced_twice(request):
    runs = []
    for _ in range(2):
        sampler = run.Sampler(ROOT, WORKLOADS[request.param], DEFAULT_SEED)
        metrics, _ = run.measure_layers(sampler, seconds=0)
        assert sampler.problems == [] and sampler.failed == 0
        runs.append((sampler.reports, metrics))
    return runs


def test_traced_runs_repeat_counts_and_metrics_csv(traced_twice):
    (first_reports, first), (second_reports, second) = traced_twice
    counts = [name for name in run.PER_LAYER if not name.endswith("_s")]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    csvs = {r["metrics_csv"] for r in first_reports + second_reports}
    assert len(csvs) == 1


def test_self_times_add_up_to_traced_run_s(traced_twice):
    for reports, metrics in traced_twice:
        for report in reports:
            if "trace" not in report:
                continue
            trace = report["trace"]
            _, self_s, _ = self_times(trace["spans"], since=trace["run_start"])
            assert abs(sum(self_s.values()) - report["run_s"]) <= abs(metrics["trace.overhead_s"])
