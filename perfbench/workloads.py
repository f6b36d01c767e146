"""The benchmark's four workloads, driven through ``repro``'s public API.

Each workload splits into a *setup* (trace generation from the seed,
``BandanaStore.build``, untimed warm-up) and a repeatable *pass*: the timed
call(s) on a deep copy of the prepared store, so every pass starts from the
same state and must produce bit-identical simulated outputs.  Host time is
measured only inside ``with phase:``; simulated outputs and conservation
checks are read afterwards.

Why each workload exists (its stressed and bypassed layers) is recorded in
``layers.json`` beside this file.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Tuple

import numpy as np

import repro.cluster
import repro.scenarios
import repro.serving
from repro.caching.replay import ReplayStats
from repro.core.bandana import BandanaStore
from repro.core.config import (
    BandanaConfig,
    ClusterConfig,
    DeviceBankConfig,
    ServingConfig,
)
from repro.scenarios import RepartitionConfig, RepartitionManager, ScenarioConfig
from repro.scenarios.report import ScenarioReport
from repro.serving.report import ServingReport
from repro.workloads import (
    SyntheticTraceGenerator,
    paper_shaped_lookups,
    scaled_table_specs,
)
from repro.workloads.trace import ModelTrace, Trace

#: The four-table store of ``benchmarks/bench_serving_latency.py``.
TABLES = ("table1", "table2", "table6", "table7")
TABLE_SCALE = 1.0 / 1000.0
VECTORS_PER_BLOCK = 32
#: Training lookups per evaluation lookup of the paper-shaped trace length.
TRAIN_EVAL_RATIO = 3
SHP_ITERATIONS = 8
BATCHING = dict(max_batch_requests=16, max_linger_us=300.0)


def derive_seed(seed: int, stream: int) -> int:
    """An independent integer seed for one input stream of a run."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


@dataclass
class Prepared:
    """A workload's set-up state; ``store`` is never served directly."""

    store: BandanaStore
    inputs: Dict[str, Any]
    sizes: Dict[str, int]


@dataclass
class PassResult:
    """One timed pass: its request count, failures, behaviour and checks."""

    requests: int
    failed: int
    #: Simulated outputs: compared across passes and traced vs untraced.
    outputs: Dict[str, Any]
    checks: Dict[str, bool] = field(default_factory=dict)


def store_fingerprint(store: BandanaStore) -> Tuple[Any, ...]:
    """What a build decided: placement, thresholds and cache split per table."""
    out = []
    for name, state in store.tables.items():
        ids = np.arange(state.layout.num_vectors, dtype=np.int64)
        out.append(
            (
                name,
                state.layout.block_of(ids).tobytes(),
                state.cache_config.cache_size_vectors,
                state.cache_config.threshold,
            )
        )
    return tuple(out)


def _stats_delta(before: ReplayStats, after: ReplayStats) -> Dict[str, int]:
    keys = ("lookups", "hits", "misses", "evictions", "prefetch_admitted", "prefetch_hits")
    return {key: getattr(after, key) - getattr(before, key) for key in keys}


def _cache_outputs(delta: Dict[str, int], requests: int) -> Dict[str, Any]:
    admitted = delta["prefetch_admitted"]
    return {
        "caching.evictions_per_req": delta["evictions"] / requests,
        "caching.prefetch_useful": delta["prefetch_hits"] / admitted if admitted else 0.0,
    }


def _latency_outputs(report: ServingReport) -> Dict[str, Any]:
    return {
        "sim_p50_us": report.latency.p50_us,
        "sim_p99_us": report.latency.p99_us,
        "latency_samples": report.latency.samples,
        "device.depth_mean": report.mean_queue_depth,
        "serving.batch_mean": report.mean_batch_size,
    }


# ----------------------------------------------------------- four-table store
def _four_table_traces(seed: int, eval_multiplier: float) -> Tuple[ModelTrace, ModelTrace]:
    """Training and evaluation traces of the four tables, from the seed."""
    specs = scaled_table_specs(TABLE_SCALE, names=list(TABLES))
    train: Dict[str, Trace] = {}
    evaluation: Dict[str, Trace] = {}
    for index, (name, spec) in enumerate(specs.items()):
        lookups = paper_shaped_lookups(spec, VECTORS_PER_BLOCK)
        generator = SyntheticTraceGenerator(
            spec, seed=derive_seed(seed, index), expected_lookups=lookups
        )
        train[name] = generator.generate_lookups(TRAIN_EVAL_RATIO * lookups)
        evaluation[name] = generator.generate_lookups(int(eval_multiplier * lookups))
    return ModelTrace(train), ModelTrace(evaluation)


def _working_set(*traces: ModelTrace) -> int:
    total = 0
    for name in traces[0].tables:
        ids = np.unique(np.concatenate([trace[name].unique_vectors() for trace in traces]))
        total += int(ids.size)
    return total


def _build_four_table(seed: int, train: ModelTrace, cache_vectors: int) -> BandanaStore:
    return BandanaStore.build(
        train,
        BandanaConfig(
            total_cache_vectors=cache_vectors,
            partitioner="shp",
            shp_iterations=SHP_ITERATIONS,
            tune_thresholds=True,
            # At 1/1000 scale the paper's 0.1% sample holds a handful of
            # vectors and the tuned threshold is noise that flips the
            # workload's regime from seed to seed; sample every query.
            mini_cache_sampling_rate=1.0,
            seed=derive_seed(seed, 90),
        ),
    )


def _warm(store: BandanaStore, trace: ModelTrace) -> None:
    for name, table_trace in trace.items():
        store.lookup_batch(name, table_trace.queries, gather=False)


def _num_requests(trace: ModelTrace) -> int:
    return max(len(table_trace) for table_trace in trace.tables.values())


def _cache_vectors(store: BandanaStore) -> int:
    return sum(state.cache_config.cache_size_vectors for state in store.tables.values())


def _serving_pass(prep: Prepared, phase: Any) -> Tuple[ServingReport, PassResult]:
    """One ``simulate_serving`` call over a copy of the warm store."""
    store = copy.deepcopy(prep.store)
    before = store.aggregate_stats()
    with phase:
        report = repro.serving.simulate_serving(
            store, prep.inputs["serve"], prep.inputs["config"], reset_first=False
        )
    delta = _stats_delta(before, store.aggregate_stats())
    n = report.num_requests
    outputs = {
        "hit_rate": report.hit_rate,
        "blocks_per_req": report.blocks_read / n,
        **_latency_outputs(report),
        **_cache_outputs(delta, n),
    }
    checks = {
        "lookups = hits + misses": delta["lookups"] == delta["hits"] + delta["misses"],
        "report lookups match store": report.lookups == delta["lookups"],
        "timed requests = generated": n == prep.sizes["requests"],
    }
    return report, PassResult(n, report.requests_shed, outputs, checks)


class ServeTight:
    """Open-loop Poisson serving, legacy device clock, DRAM ~1/10 of the set."""

    name = "serve-tight"
    eval_multiplier = 8.0
    warmup_fraction = 0.3
    #: With the tuned thresholds this leaves ~25% of lookups missing.
    cache_fraction = 0.1
    #: Far below the knee (~2.5k rps here): p99 stays a property of the
    #: cache, not of a queue on the edge of saturation, and moves less from
    #: seed to seed (IQR ~12% of the median at 500 rps, ~18% at 1000).
    arrival_rate_rps = 500.0

    def setup(self, seed: int) -> Prepared:
        train, evaluation = _four_table_traces(seed, self.eval_multiplier)
        cache = max(1, int(self.cache_fraction * _working_set(evaluation)))
        store = _build_four_table(seed, train, cache)
        warm, serve = evaluation.split(self.warmup_fraction)
        _warm(store, warm)
        config = ServingConfig(
            arrival_rate_rps=self.arrival_rate_rps, seed=derive_seed(seed, 50), **BATCHING
        )
        return Prepared(
            store,
            {"serve": serve, "config": config},
            {
                "requests": _num_requests(serve),
                "lookups": serve.total_lookups,
                "working_set": _working_set(evaluation),
                "cache_vectors": _cache_vectors(store),
            },
        )

    def run_pass(self, prep: Prepared, phase: Any) -> PassResult:
        return _serving_pass(prep, phase)[1]


class ServeFits:
    """Closed loop of 32 clients on one shared device; DRAM holds the set."""

    name = "serve-fits"
    eval_multiplier = 4.0
    #: Replays of the evaluation trace per pass, over the warm store.
    replays = 8
    clients = 32
    #: Short enough that batches fill: with the default 16 ms most requests
    #: would wait out the full linger and p50 would be the constant 305 us.
    think_s = 0.004

    def setup(self, seed: int) -> Prepared:
        train, evaluation = _four_table_traces(seed, self.eval_multiplier)
        cache = _working_set(train, evaluation)
        store = _build_four_table(seed, train, cache)
        _warm(store, train)
        serve = ModelTrace(
            {
                name: Trace(list(trace.queries) * self.replays, num_vectors=trace.num_vectors)
                for name, trace in evaluation.items()
            }
        )
        config = ServingConfig(
            arrival_process="closed-loop",
            closed_loop_clients=self.clients,
            closed_loop_think_s=self.think_s,
            device=DeviceBankConfig(accounting="shared", devices_per_host=1),
            seed=derive_seed(seed, 50),
            **BATCHING,
        )
        return Prepared(
            store,
            {"serve": serve, "config": config},
            {
                "requests": _num_requests(serve),
                "lookups": serve.total_lookups,
                "working_set": _working_set(evaluation),
                "cache_vectors": _cache_vectors(store),
            },
        )

    def run_pass(self, prep: Prepared, phase: Any) -> PassResult:
        report, result = _serving_pass(prep, phase)
        devices = (report.device_bank or {}).get("per_device", [])
        busy_us = sum(device["busy_us"] for device in devices)
        result.checks["bank busy <= makespan x devices"] = bool(devices) and (
            busy_us <= report.makespan_s * 1e6 * len(devices)
        )
        return result


class ClusterCrash:
    """4 nodes, R=2, one node crashes over the middle half and restarts cold."""

    name = "cluster-crash"
    eval_multiplier = 5.0
    #: Enough misses that routing and node reads matter (hit ~0.95).
    cache_fraction = 0.2
    warmup_requests = 250
    measured_requests = 1000
    arrival_rate_rps = 800.0
    slo_us = 2000.0

    def setup(self, seed: int) -> Prepared:
        train, evaluation = _four_table_traces(seed, self.eval_multiplier)
        available = _num_requests(evaluation)
        if available < self.warmup_requests + self.measured_requests:
            raise ValueError(f"evaluation trace supplies only {available} requests")
        cache = max(1, int(self.cache_fraction * _working_set(evaluation)))
        store = _build_four_table(seed, train, cache)
        makespan_s = self.measured_requests / self.arrival_rate_rps
        inputs = {
            "eval": evaluation,
            "cluster": ClusterConfig(
                num_nodes=4,
                replication=2,
                breaker_cooloff_s=0.02 * makespan_s,
                default_slo_us=self.slo_us,
                seed=derive_seed(seed, 60),
            ),
            "serving": ServingConfig(
                arrival_rate_rps=self.arrival_rate_rps,
                slo_latency_us=self.slo_us,
                seed=derive_seed(seed, 50),
            ),
            "window": dict(start_s=0.25 * makespan_s, duration_s=0.5 * makespan_s),
        }
        served = self.warmup_requests + self.measured_requests
        return Prepared(
            store,
            inputs,
            {
                "requests": served,
                "lookups": sum(trace.head(served).num_lookups for _, trace in evaluation.items()),
                "working_set": _working_set(evaluation),
                "cache_vectors": _cache_vectors(store),
            },
        )

    def run_pass(self, prep: Prepared, phase: Any) -> PassResult:
        store = copy.deepcopy(prep.store)
        inputs = prep.inputs
        with phase:
            report = repro.cluster.run_scenario(
                store,
                inputs["eval"],
                scenario="crash_recover",
                cluster_config=inputs["cluster"],
                serving_config=inputs["serving"],
                num_requests=self.measured_requests,
                scenario_overrides=inputs["window"],
                warmup_requests=self.warmup_requests,
            )
        c = report.counters
        hits = report.hit_rate * report.lookups
        outputs = {
            "hit_rate": report.hit_rate,
            "blocks_per_req": report.blocks_read / report.num_requests,
            "sim_p50_us": report.latency.p50_us,
            "sim_p99_us": report.latency.p99_us,
            "latency_samples": report.latency.samples,
            "cluster.attempts_per_group": c.shard_attempts / c.shard_groups,
            "cluster.hedge_win": c.hedges_won / c.hedges_launched if c.hedges_launched else 0.0,
            "counters": c.as_dict(),
        }
        checks = {
            "lookups = hits + misses": abs(hits - round(hits)) < 1e-6
            and round(hits) + report.blocks_read == report.lookups,
            "requests_total = ok + degraded": c.requests_total
            == c.requests_ok + c.requests_degraded,
            "hedges_launched = won + lost": c.hedges_launched == c.hedges_won + c.hedges_lost,
            "timed requests = generated": report.num_requests == self.measured_requests
            and c.requests_total == self.measured_requests,
        }
        requests = self.warmup_requests + report.num_requests
        return PassResult(requests, c.requests_degraded, outputs, checks)


# -------------------------------------------------------------- drift-retrain
class DriftRetrain:
    """Single-table drift; SHP retrained and swapped live every 1/6 of eval."""

    name = "drift-retrain"
    table = "scenario"
    num_queries = 3000
    num_vectors = 4096
    rotation_per_epoch = 0.02
    train_fraction = 1.0 / 3.0
    retrains_per_eval = 6
    serving_rate_rps = 2000.0

    def __init__(self) -> None:
        #: Final-state digest -> serving-leg outcome (see ``run_pass``).
        self._serving_legs: Dict[str, Tuple[int, int, Dict[str, Any]]] = {}

    def scenario_config(self, seed: int) -> ScenarioConfig:
        return ScenarioConfig(
            kind="drift",
            num_queries=self.num_queries,
            num_vectors=self.num_vectors,
            drift_epoch_queries=self.num_queries // 24,
            drift_start_fraction=self.train_fraction,
            drift_rotation_per_epoch=self.rotation_per_epoch,
            seed=derive_seed(seed, 0),
        )

    def store_config(self) -> BandanaConfig:
        return BandanaConfig(
            total_cache_vectors=self.num_vectors // 8,
            tune_thresholds=False,
            default_threshold=2,
        )

    def repartition_config(self, num_eval: int) -> RepartitionConfig:
        cadence = num_eval // self.retrains_per_eval
        return RepartitionConfig(
            cadence_queries=cadence,
            window_queries=2 * cadence,
            min_window_queries=cadence,
            shp_iterations=SHP_ITERATIONS,
        )

    @property
    def window_queries(self) -> int:
        return self.num_queries // 24

    @property
    def warmup_queries(self) -> int:
        return self.num_queries // 12

    def setup(self, seed: int) -> Prepared:
        trace = repro.scenarios.generate_scenario_trace(self.scenario_config(seed))
        train, evaluation = trace.split(self.train_fraction)
        store = BandanaStore.build(ModelTrace({self.table: train}), self.store_config())
        for query in train.queries[-self.warmup_queries :]:
            store.lookup(self.table, query, gather=False)
        inputs = {
            "eval": evaluation,
            "repartition": self.repartition_config(len(evaluation)),
            "serving": ServingConfig(
                arrival_rate_rps=self.serving_rate_rps, seed=derive_seed(seed, 50)
            ),
        }
        return Prepared(
            store,
            inputs,
            {
                "requests": len(evaluation),
                "lookups": evaluation.num_lookups,
                "working_set": int(evaluation.unique_vectors().size),
                "cache_vectors": _cache_vectors(store),
            },
        )

    def run_pass(self, prep: Prepared, phase: Any) -> PassResult:
        store = copy.deepcopy(prep.store)
        table = self.table
        queries: List[np.ndarray] = prep.inputs["eval"].queries
        manager = RepartitionManager(store, table, prep.inputs["repartition"])
        state = store.tables[table]
        before = replace(state.stats)
        windows: List[float] = []
        window_hits, window_lookups = state.stats.hits, state.stats.lookups
        last = len(queries)
        # The windowed replay of repro.scenarios.run_workload_scenario, on a
        # store built in setup rather than inside the timed call.
        with phase:
            for index, query in enumerate(queries, start=1):
                store.lookup(table, query, gather=False)
                manager.observe(query)
                if index % self.window_queries == 0 or index == last:
                    hits, lookups = state.stats.hits, state.stats.lookups
                    span = lookups - window_lookups
                    windows.append((hits - window_hits) / span if span else 0.0)
                    window_hits, window_lookups = hits, lookups
        delta = _stats_delta(before, state.stats)
        summary = manager.summary()
        # The simulated latency: an untimed serving leg on the placement the
        # replay left live, as run_workload_scenario(serving=...) does.  It
        # is a pure function of that final state, so it runs once per
        # distinct state; every pass still compares the state itself.
        final_state = hashlib.sha256(
            repr(store_fingerprint(store)).encode() + state.access_counts.tobytes()
        ).hexdigest()
        legs = self._serving_legs
        if final_state not in legs:
            report = repro.serving.simulate_serving(
                store,
                ModelTrace({table: prep.inputs["eval"]}),
                prep.inputs["serving"],
                reset_first=True,
            )
            legs[final_state] = (report.num_requests, report.requests_shed, _latency_outputs(report))
        leg_requests, leg_shed, leg_outputs = legs[final_state]
        outputs = {
            "hit_rate": delta["hits"] / delta["lookups"],
            "blocks_per_req": delta["misses"] / last,
            **leg_outputs,
            **_cache_outputs(delta, last),
            "scenarios.retrains": summary["retrains"],
            "scenarios.swaps": tuple(summary["swaps"]),
            "scenarios.late_hit_rate": ScenarioReport.quarter_means(windows)[1],
            "window_hit_rates": tuple(windows),
            "final_state": final_state,
        }
        checks = {
            "lookups = hits + misses": delta["lookups"] == delta["hits"] + delta["misses"],
            "timed requests = generated": summary["queries_seen"] == prep.sizes["requests"],
            "serving requests = generated": leg_requests == prep.sizes["requests"],
        }
        return PassResult(last, leg_shed, outputs, checks)


WORKLOADS = {cls.name: cls for cls in (ServeTight, ServeFits, ClusterCrash, DriftRetrain)}
