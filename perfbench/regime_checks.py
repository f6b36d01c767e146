"""The benchmark's own tests: each workload stays in its regime.

Run from the repository root::

    python3 -m pytest perfbench/regime_checks.py -q

(The file name keeps these out of the tier-1 ``pytest`` collection; they
take about half a minute.)  Every workload runs once, traced, on a seed that was
not used while the benchmark was tuned, and must stay in the regime that
``layers.json`` gives as the reason it exists, so a re-seed cannot quietly
switch a layer off.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
from repro.scenarios import generate_scenario_trace, run_workload_scenario  # noqa: E402
from workloads import DriftRetrain  # noqa: E402

HELD_OUT_SEED = 8675309


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def run(workload):
        if workload not in cache:
            cache[workload] = harness.measure(workload, HELD_OUT_SEED, seconds=0.0, trace=True)
        return cache[workload]

    return run


@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
def test_checks_pass_and_nothing_fails(runs, workload):
    m = runs(workload)
    assert m.correct, {name: ok for name, ok in m.checks.items() if not ok}
    assert m.failed == 0


def test_serve_tight_misses_and_is_caching_bound(runs):
    m = runs("serve-tight")
    assert 0.6 <= m.reference["hit_rate"] <= 0.9
    shares = harness.layer_shares(m)
    assert shares.get("caching.replay", 0.0) + shares.get("nvm.read", 0.0) > 0.5


def test_serve_fits_bypasses_the_miss_path(runs):
    m = runs("serve-fits")
    layers = harness.per_layer_metrics(m)
    assert m.reference["hit_rate"] >= 0.98
    assert m.reference["blocks_per_req"] > 0.0
    assert layers["nvm.read_calls"][0] < 0.01 * m.sizes["lookups"]
    assert layers["caching.evictions_per_req"][0] < 0.05


def test_cluster_crash_restarts_retries_and_is_cluster_bound(runs):
    m = runs("cluster-crash")
    counters = m.reference["counters"]
    assert counters["cold_restarts"] >= 1
    assert counters["retries"] >= 1
    assert counters["availability"] == 1.0
    shares = harness.layer_shares(m)
    cluster = sum(share for label, share in shares.items() if label.startswith("cluster."))
    others = [share for label, share in shares.items() if not label.startswith("cluster.")]
    assert cluster > max(others)


def test_drift_retrain_retrains_inside_the_timed_phase(runs):
    m = runs("drift-retrain")
    layers = harness.per_layer_metrics(m)
    assert m.reference["scenarios.retrains"] >= 3
    assert layers["partitioning.shp_s"][0] > 0.0
    assert layers["core.swap_s"][0] > 0.0


def test_every_declared_metric_is_reported(runs):
    spec = harness.benchmark_spec()
    m = runs("serve-tight")
    assert set(harness.end_to_end_metrics(m)) == {s["name"] for s in spec["end_to_end"]}
    assert set(harness.per_layer_metrics(m)) == {s["name"] for s in spec["per_layer"]}


def test_layer_map_covers_every_workload_and_metric():
    spec = harness.benchmark_spec()
    layers = json.loads((HERE / "layers.json").read_text())
    assert set(layers["workloads"]) == {w["name"] for w in spec["workloads"]}
    assert set(layers["workloads"]) == set(harness.WORKLOADS)
    assert set(layers["per_layer"]) == {s["name"] for s in spec["per_layer"]}


def test_hand_driven_drift_loop_matches_run_workload_scenario():
    """The timed drift loop replays exactly what run_workload_scenario does."""
    workload = DriftRetrain()
    prep = workload.setup(HELD_OUT_SEED)
    result = workload.run_pass(prep, harness.Phase(None, harness.SpeedProbe(), []))
    trace = generate_scenario_trace(workload.scenario_config(HELD_OUT_SEED))
    report = run_workload_scenario(
        trace,
        config=workload.store_config(),
        train_fraction=workload.train_fraction,
        repartition=prep.inputs["repartition"],
        window_queries=workload.window_queries,
        warmup_queries=workload.warmup_queries,
        table_name=workload.table,
    )
    assert list(result.outputs["window_hit_rates"]) == report.window_hit_rates
    assert result.outputs["scenarios.retrains"] == report.repartition["retrains"]
    assert result.outputs["hit_rate"] == report.overall_hit_rate
