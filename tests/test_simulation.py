"""Tests for the replay runners, experiment sweeps and report formatting."""

import numpy as np
import pytest

from repro.caching.miniature import MiniatureCacheTuner
from repro.caching.policies import (
    AccessThresholdPolicy,
    CacheAllBlockPolicy,
    NoPrefetchPolicy,
)
from repro.caching.replay import replay_table_cache
from repro.nvm.block import BlockLayout
from repro.simulation.experiment import ExperimentRecord, ExperimentSweep
from repro.simulation.report import format_percent, format_series, format_table
from repro.simulation.runner import (
    simulate_store,
    simulate_table,
    unlimited_cache_bandwidth_increase,
)
from repro.workloads.characterization import access_counts
from repro.workloads.trace import ModelTrace
from tests.conftest import build_store, counters


class TestSimulateTable:
    def test_baseline_included_by_default(self, eval_trace, shp_layout):
        result = simulate_table(eval_trace, shp_layout, CacheAllBlockPolicy(), cache_size=None)
        assert result.baseline_stats is not None
        assert result.stats.lookups == eval_trace.num_lookups

    def test_no_baseline(self, eval_trace, shp_layout):
        result = simulate_table(
            eval_trace, shp_layout, NoPrefetchPolicy(), cache_size=100, include_baseline=False
        )
        assert result.baseline_stats is None
        assert result.bandwidth_increase == pytest.approx(0.0)

    def test_shp_unlimited_cache_beats_identity(self, small_spec, eval_trace, shp_layout):
        """Reproduces the core of Figure 9: SHP placement increases effective
        bandwidth over the original layout under an unlimited cache."""
        identity = BlockLayout.identity(small_spec.num_vectors, 32)
        gain_shp = unlimited_cache_bandwidth_increase(eval_trace, shp_layout)
        gain_identity = unlimited_cache_bandwidth_increase(eval_trace, identity)
        assert gain_shp > gain_identity > 0

    def test_threshold_policy_beats_cache_all_at_small_cache(
        self, train_trace, eval_trace, shp_layout
    ):
        """Reproduces the core of Figures 10 and 12: with a limited cache,
        admitting every prefetched vector is much worse than filtering by the
        training-trace access count."""
        counts = access_counts(train_trace)
        working_set = eval_trace.unique_vectors().size
        cache_size = max(32, working_set // 4)
        cache_all = simulate_table(
            eval_trace, shp_layout, CacheAllBlockPolicy(), cache_size=cache_size
        )
        filtered = simulate_table(
            eval_trace,
            shp_layout,
            AccessThresholdPolicy(counts, threshold=float(np.percentile(counts[counts > 0], 90))),
            cache_size=cache_size,
        )
        assert cache_all.bandwidth_increase < 0
        assert filtered.bandwidth_increase > cache_all.bandwidth_increase


class TestSimulateStore:
    """Each result holds only its own call's traffic, never the live stats."""

    def test_warm_replay_reports_only_its_own_traffic(self):
        store, trace = build_store(2)
        cold = simulate_store(store, trace)
        cold_counters = {name: counters(r.stats) for name, r in cold.per_table.items()}
        warm = simulate_store(store, trace, reset_first=False)
        for name, table_trace in trace.items():
            lookups = table_trace.num_lookups
            state = store.tables[name]
            # The warm run's candidate counts the same traffic as its baseline.
            assert warm.per_table[name].stats.lookups == lookups, name
            assert warm.per_table[name].baseline_stats.lookups == lookups, name
            # The earlier result is not rewritten by the later replay.
            assert counters(cold.per_table[name].stats) == cold_counters[name], name
            # Together the two calls account for everything the table served.
            total = cold.per_table[name].stats.merge(warm.per_table[name].stats)
            assert total.counters() == state.stats.counters(), name

    def test_later_serving_leaves_the_result_unchanged(self):
        store, trace = build_store(2)
        result = simulate_store(store, trace)
        name = next(iter(trace))
        before = counters(result.per_table[name].stats)
        assert result.per_table[name].stats is not store.tables[name].stats
        store.lookup(name, trace[name].queries[0])
        assert counters(result.per_table[name].stats) == before

    @pytest.mark.parametrize("split", [1, 3, 50, 1000])
    def test_split_replay_continues_the_whole_replay(self, split):
        whole_store, trace = build_store(3)
        whole = simulate_store(whole_store, trace)
        split_store, _ = build_store(3)
        head = ModelTrace({name: t[:split] for name, t in trace.items()})
        tail = ModelTrace({name: t[split:] for name, t in trace.items()})
        first = simulate_store(split_store, head)
        second = simulate_store(split_store, tail, reset_first=False)
        for name in trace:
            joined = first.per_table[name].stats.merge(second.per_table[name].stats)
            assert joined.counters() == whole.per_table[name].stats.counters(), name
            split_state, whole_state = split_store.tables[name], whole_store.tables[name]
            assert counters(split_state.stats) == counters(whole_state.stats), name
            assert split_state.engine.cache.keys() == whole_state.engine.cache.keys()
            assert split_state.device.blocks_read == whole_state.device.blocks_read

    def test_warm_replay_after_request_serving(self):
        served_store, trace = build_store(4)
        whole_store, _ = build_store(4)
        simulate_store(whole_store, trace)
        requests = list(trace.iter_requests())
        for request in requests[:40]:
            served_store.lookup_request(request)
        tail = ModelTrace({name: t[40:] for name, t in trace.items()})
        warm = simulate_store(served_store, tail, reset_first=False)
        for name in trace:
            assert warm.per_table[name].stats.lookups == tail[name].num_lookups, name
            served, whole = served_store.tables[name], whole_store.tables[name]
            assert counters(served.stats) == counters(whole.stats), name
            assert served.engine.cache.keys() == whole.engine.cache.keys(), name

    @pytest.mark.parametrize("seed", [0, 1])
    def test_baseline_matches_reference_loop(self, seed):
        # The baseline is the no-prefetch policy at the table's own cache
        # size, replayed cold over the same queries.
        store, trace = build_store(seed)
        result = simulate_store(store, trace)
        for name, table_trace in trace.items():
            state = store.tables[name]
            reference = replay_table_cache(
                table_trace.queries,
                state.layout,
                NoPrefetchPolicy(),
                cache_size=state.cache_config.cache_size_vectors,
                vector_bytes=store.config.vector_bytes,
            )
            baseline = result.per_table[name].baseline_stats
            assert baseline.counters() == reference.counters(), name

    @pytest.mark.parametrize("option", ["interleaved", "num_workers", "chunk_requests"])
    def test_no_replay_schedule_options(self, option):
        store, trace = build_store(0)
        with pytest.raises(TypeError, match=option):
            simulate_store(store, trace, **{option: 1})


class TestOneEnginePath:
    """The batched engine is the only replay path; no knob selects another."""

    def test_simulate_table_has_no_engine_switch(self, eval_trace, shp_layout):
        with pytest.raises(TypeError, match="use_batched_engine"):
            simulate_table(
                eval_trace, shp_layout, NoPrefetchPolicy(), use_batched_engine=False
            )

    def test_miniature_tuner_has_no_engine_switch(self):
        with pytest.raises(TypeError, match="use_batched_engine"):
            MiniatureCacheTuner(use_batched_engine=False)


class TestExperimentSweep:
    def test_run_and_columns(self):
        sweep = ExperimentSweep("demo", "toy sweep")
        sweep.run("x", [1, 2, 3], lambda x: {"y": float(x * 2)})
        assert sweep.parameter_column("x") == [1, 2, 3]
        assert sweep.column("y") == [2.0, 4.0, 6.0]

    def test_best(self):
        sweep = ExperimentSweep("demo")
        sweep.add({"x": 1}, {"y": 0.5})
        sweep.add({"x": 2}, {"y": 0.9})
        assert sweep.best("y").parameters["x"] == 2
        assert sweep.best("y", maximize=False).parameters["x"] == 1

    def test_to_table_contains_values(self):
        sweep = ExperimentSweep("demo", "description")
        sweep.add({"x": 1}, {"y": 0.1234})
        text = sweep.to_table()
        assert "demo" in text and "x" in text and "0.123" in text

    def test_empty_sweep(self):
        assert "no records" in ExperimentSweep("empty").to_table()
        assert ExperimentSweep("empty").best("y") is None

    def test_record_is_frozen_copy(self):
        params = {"x": 1}
        sweep = ExperimentSweep("demo")
        record = sweep.add(params, {"y": 1.0})
        params["x"] = 99
        assert record.parameters["x"] == 1
        assert isinstance(record, ExperimentRecord)


class TestReportFormatting:
    def test_format_percent(self):
        assert format_percent(0.423) == "42.3%"
        assert format_percent(1.5, decimals=0) == "150%"

    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1], ["longer", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1  # aligned widths

    def test_format_table_mismatched_row(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_format_series(self):
        text = format_series({1: 0.5, 2: 0.25})
        assert "1=50.0%" in text and "2=25.0%" in text
