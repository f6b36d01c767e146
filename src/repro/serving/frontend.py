"""The event-driven serving front-end: arrivals → batcher → store → latency.

:func:`simulate_serving` is the serving-side sibling of
:func:`repro.simulation.simulate_store`: instead of replaying a trace as fast
as Python allows and reporting counters, it replays the *same* request stream
on a simulated clock under an arrival process and reports what a user would
see — end-to-end latency percentiles, sustained throughput and SLO
violations — with the device's load-feedback latency (paper Figure 5)
closing the loop.

One simulation step per dispatched batch:

1. the dynamic batcher (:mod:`repro.serving.batcher`) fixes the batch's
   membership and dispatch time — from the arrival process alone under the
   open-loop processes, or interleaved with completions under closed-loop
   arrivals (a client's next request exists only after its previous response),
2. admission control (when ``admission_queue_slack`` is set) sheds requests
   whose tables' device backlog already exceeds ``slack ×`` the table's SLO —
   a fast rejection that does no cache or device work, mirroring the cluster
   tier's queue-level shedding,
3. the batch's surviving requests are fanned out through the store and the
   store's miss counters yield the batch's NVM block reads,
4. those reads are charged on the shared device layer (:mod:`repro.device`):
   the default ``"legacy"`` accounting keeps the original single-clock
   accountant (bit-identical to the golden pins), while ``"per-table"`` /
   ``"shared"`` accounting put each table's misses on its own device of a
   :class:`~repro.device.NVMDeviceBank` — ``devices_per_host`` physical
   devices behind all tables, the paper's actual single-host deployment,
5. every request in the batch completes together; its latency is
   ``completion − arrival + request_overhead_us``.

The cache counters the store accumulates are bit-identical to a plain
:func:`~repro.simulation.simulate_store` replay of the same requests — the
front-end only re-times (and under shedding, skips) the exact same work.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.bandana import BandanaStore
from repro.core.config import ServingConfig, TracingConfig
from repro.device.bank import NVMDeviceBank
from repro.device.clock import DeviceServiceRecord
from repro.nvm.latency import NVMLatencyModel
from repro.serving.accountant import DeviceLatencyAccountant
from repro.serving.arrivals import ClosedLoopPopulation, arrival_times
from repro.serving.batcher import Batch, form_batches
from repro.serving.report import LatencySummary, ServingReport, depth_histogram
from repro.tracing.tracer import (
    NULL_TRACER,
    STAGE_BATCH_QUEUE,
    STAGE_OVERHEAD,
    STAGE_REQUEST_SHED,
    Tracer,
    resolve_tracer,
)
from repro.utils.rng import ensure_rng
from repro.workloads.trace import ModelTrace

if TYPE_CHECKING:  # repro.cluster imports this package; import only for types
    from repro.cluster.store import ClusterStore


def simulate_serving(
    store: BandanaStore,
    eval_trace: ModelTrace,
    config: Optional[ServingConfig] = None,
    num_requests: Optional[int] = None,
    reset_first: bool = True,
    latency_model: Optional[NVMLatencyModel] = None,
    cluster: Optional["ClusterStore"] = None,
    tracing: Optional["TracingConfig | Tracer"] = None,
) -> ServingReport:
    """Serve a model trace through a store under a simulated arrival process.

    Parameters
    ----------
    store:
        A built :class:`~repro.core.bandana.BandanaStore`.
    eval_trace:
        Per-table queries, zipped into multi-table requests by
        :meth:`~repro.workloads.trace.ModelTrace.iter_requests` (request
        ``i`` reads every table's ``i``-th query).
    config:
        Serving knobs; defaults to ``store.config.serving``.  Beyond the
        arrival/batching knobs this selects the device accounting mode
        (``config.device``: legacy single clock, per-table devices, or a
        shared ``devices_per_host`` bank) and single-host admission control
        (``config.admission_queue_slack``).
    num_requests:
        Optional cap on the number of requests served (the default serves
        the whole zipped stream).
    reset_first:
        Clear the store's serving state first so runs start cold and are
        reproducible, like the paper's experiments.
    latency_model:
        Latency model of the serving tier's NVM device; defaults to the
        paper-calibrated :class:`~repro.nvm.latency.NVMLatencyModel` at the
        store's block size.
    cluster:
        Optional :class:`~repro.cluster.store.ClusterStore` to route through
        instead of the single-host store.  Requests still arrive and batch
        exactly as before, but each one is served by the cluster's
        fan-out/fan-in path at its batch's dispatch time — so the reported
        p999 reflects fan-in stragglers, retries and hedges, and the
        cluster's ``request_overhead_us`` replaces the front-end's (no
        double counting).  ``store`` then only supplies defaults/seed.
        Requires an open-loop arrival process (the cluster's own nodes are
        the closed side of that model).
    tracing:
        Per-request span tracing (:mod:`repro.tracing`): a
        :class:`~repro.core.config.TracingConfig` builds a fresh tracer
        (when enabled), an existing :class:`~repro.tracing.Tracer` is used
        as-is (tests pass one in to inspect raw spans), ``None`` defaults
        to ``store.config.tracing`` — disabled by default.  When enabled,
        every request's latency decomposes into ``batcher.queue`` →
        ``device.queue`` → ``device.service`` → ``overhead`` spans (or the
        cluster's fan-out span tree; shed requests record a
        ``request.shed`` marker instead of device spans) and the report
        carries the tracer's JSON summary in ``report.trace``.  Tracing
        never changes behavior.

    Every returned report has passed
    :meth:`~repro.serving.report.ServingReport.check_invariants`.
    """
    config = config or store.config.serving
    if config.arrival_process == "closed-loop" and cluster is not None:
        raise ValueError(
            "closed-loop arrivals are single-host only; the cluster path "
            "requires an open-loop arrival process"
        )
    tracer = resolve_tracer(
        tracing if tracing is not None else store.config.tracing,
        slo_latency_us=config.slo_latency_us,
    )
    if reset_first:
        if cluster is not None:
            cluster.reset_serving_state()
        else:
            store.reset_serving_state()
    requests = list(eval_trace.iter_requests())
    if num_requests is not None:
        requests = requests[: int(num_requests)]
    n = len(requests)

    seed = store.config.seed if config.seed is None else config.seed
    if config.arrival_process == "closed-loop":
        model = latency_model or NVMLatencyModel(block_bytes=store.config.block_bytes)
        return _simulate_closed_loop(store, requests, config, model, tracer, seed)

    arrival_us = arrival_times(config, n, seed=seed) * 1e6
    batches = form_batches(arrival_us, config.max_batch_requests, config.max_linger_us)
    if cluster is not None:
        return _simulate_cluster_serving(
            cluster, requests, arrival_us, batches, config, tracer
        )

    model = latency_model or NVMLatencyModel(block_bytes=store.config.block_bytes)
    if config.device.accounting != "legacy":
        return _simulate_bank_serving(
            store, requests, arrival_us, batches, config, model, tracer
        )

    accountant = DeviceLatencyAccountant(
        model,
        block_bytes=store.config.block_bytes,
        max_queue_depth=config.max_device_queue_depth,
        throughput_window_s=config.throughput_window_s,
    )

    states = list(store.tables.values())
    stats_before = store.aggregate_stats()
    misses_before = sum(state.stats.misses for state in states)

    shed_slack = config.admission_queue_slack
    requests_shed = 0
    latencies = np.empty(n, dtype=np.float64)
    batch_sizes = np.empty(len(batches), dtype=np.int64)
    last_completion_us = 0.0
    for b, batch in enumerate(batches):
        # Admission control (off by default): the device backlog at dispatch
        # is the same for every request of the batch on the single legacy
        # clock; only per-table SLO overrides differentiate requests.
        served: Optional[List[int]] = None
        if shed_slack is not None:
            wait_us = accountant.queue_wait_us(batch.dispatch_us)
            served = []
            for i in range(batch.start, batch.stop):
                if any(
                    wait_us > shed_slack * config.slo_us(name)
                    for name in requests[i]
                ):
                    requests_shed += 1
                    latencies[i] = (
                        batch.dispatch_us
                        - arrival_us[i]
                        + config.request_overhead_us
                    )
                    _emit_shed_spans(
                        tracer,
                        i,
                        float(arrival_us[i]),
                        b,
                        batch.size,
                        batch.dispatch_us,
                        config.request_overhead_us,
                        wait_us,
                    )
                else:
                    served.append(i)
        # gather=False: the simulator measures load and latency, not data —
        # embedding gathers would cost per-lookup work whose result is unused.
        if served is None:
            if batch.size == 1:
                store.lookup_request(requests[batch.start], gather=False)
            else:
                per_table: Dict[str, List[np.ndarray]] = {}
                for request in requests[batch.start : batch.stop]:
                    for name, ids in request.items():
                        per_table.setdefault(name, []).append(ids)
                for name, queries in per_table.items():
                    store.lookup_batch(name, queries, gather=False)
        elif served:
            if len(served) == 1:
                store.lookup_request(requests[served[0]], gather=False)
            else:
                per_table = {}
                for i in served:
                    for name, ids in requests[i].items():
                        per_table.setdefault(name, []).append(ids)
                for name, queries in per_table.items():
                    store.lookup_batch(name, queries, gather=False)
        misses_after = sum(state.stats.misses for state in states)
        record = accountant.serve_batch(batch.dispatch_us, misses_after - misses_before)
        misses_before = misses_after
        if served is None:
            latencies[batch.start : batch.stop] = (
                record.completion_us
                - arrival_us[batch.start : batch.stop]
                + config.request_overhead_us
            )
        else:
            for i in served:
                latencies[i] = (
                    record.completion_us
                    - arrival_us[i]
                    + config.request_overhead_us
                )
        batch_sizes[b] = batch.size
        last_completion_us = max(last_completion_us, record.completion_us)
        if tracer.enabled:
            # Retrospective spans: the batch's timeline is fully known, and
            # the four stages tile the request's latency exactly —
            # batcher.queue + device.queue + device.service + overhead ==
            # completion - arrival + request_overhead_us.
            for i in range(batch.start, batch.stop) if served is None else served:
                _emit_request_spans(
                    tracer,
                    i,
                    float(arrival_us[i]),
                    b,
                    batch.size,
                    batch.dispatch_us,
                    [record],
                    record.completion_us,
                    config.request_overhead_us,
                )

    stats_after = store.aggregate_stats()
    lookups = stats_after.lookups - stats_before.lookups
    hits = stats_after.hits - stats_before.hits
    blocks_read = stats_after.misses - stats_before.misses

    return _assemble_report(
        store=store,
        model=model,
        config=config,
        n=n,
        num_batches=len(batches),
        offered_rate_rps=config.arrival_rate_rps,
        latencies=latencies,
        batch_sizes=batch_sizes,
        first_arrival_us=float(arrival_us[0]) if n else 0.0,
        last_completion_us=last_completion_us,
        records=accountant.records,
        lookups=int(lookups),
        hits=int(hits),
        blocks_read=int(blocks_read),
        requests_shed=requests_shed,
        device_bank=None,
        tracer=tracer,
    )


# --------------------------------------------------------------- bank serving
def _simulate_bank_serving(
    store: BandanaStore,
    requests: List[Dict[str, np.ndarray]],
    arrival_us: np.ndarray,
    batches: List[Batch],
    config: ServingConfig,
    model: NVMLatencyModel,
    tracer: Tracer,
) -> ServingReport:
    """Open-loop serving on a shared device bank (see ``simulate_serving``).

    ``"per-table"`` accounting gives every table a private device (the old
    per-table story made explicit); ``"shared"`` pins all tables onto
    ``devices_per_host`` devices round-robin, so co-located tables genuinely
    queue behind each other — the cross-table contention the legacy single
    charge-everything clock can only approximate and per-table accounting
    cannot produce at all.
    """
    bank = _build_bank(store, config, model)
    stats_before = store.aggregate_stats()
    n = len(requests)
    requests_shed = 0
    latencies = np.empty(n, dtype=np.float64)
    batch_sizes = np.empty(len(batches), dtype=np.int64)
    last_completion_us = 0.0
    for b, batch in enumerate(batches):
        members = list(range(batch.start, batch.stop))
        served, shed = _split_shed(bank, requests, members, batch.dispatch_us, config)
        requests_shed += len(shed)
        for i in shed:
            latencies[i] = (
                batch.dispatch_us - arrival_us[i] + config.request_overhead_us
            )
            _emit_shed_spans(
                tracer,
                i,
                float(arrival_us[i]),
                b,
                batch.size,
                batch.dispatch_us,
                config.request_overhead_us,
                bank.queue_wait_us(batch.dispatch_us),
            )
        completion_us, records = _lookup_and_charge(
            store, requests, served, batch.dispatch_us, bank, split_tables=True
        )
        for i in served:
            latencies[i] = completion_us - arrival_us[i] + config.request_overhead_us
        batch_sizes[b] = batch.size
        last_completion_us = max(last_completion_us, completion_us)
        if tracer.enabled:
            for i in served:
                _emit_request_spans(
                    tracer,
                    i,
                    float(arrival_us[i]),
                    b,
                    batch.size,
                    batch.dispatch_us,
                    records,
                    completion_us,
                    config.request_overhead_us,
                )

    stats_after = store.aggregate_stats()
    return _assemble_report(
        store=store,
        model=model,
        config=config,
        n=n,
        num_batches=len(batches),
        offered_rate_rps=config.arrival_rate_rps,
        latencies=latencies,
        batch_sizes=batch_sizes,
        first_arrival_us=float(arrival_us[0]) if n else 0.0,
        last_completion_us=last_completion_us,
        records=bank.records(),
        lookups=int(stats_after.lookups - stats_before.lookups),
        hits=int(stats_after.hits - stats_before.hits),
        blocks_read=int(stats_after.misses - stats_before.misses),
        requests_shed=requests_shed,
        device_bank=bank.snapshot(),
        tracer=tracer,
    )


# --------------------------------------------------------------- closed loop
def _simulate_closed_loop(
    store: BandanaStore,
    requests: List[Dict[str, np.ndarray]],
    config: ServingConfig,
    model: NVMLatencyModel,
    tracer: Tracer,
    seed: Optional[int],
) -> ServingReport:
    """Closed-loop serving: a fixed client population with think times.

    Arrivals depend on completions, so batch formation is interleaved with
    serving: a pending-arrivals heap seeds each batch, the batch fills under
    the same size/linger cutoffs as the open-loop batcher, and every served
    (or shed) request schedules its client's next arrival one think time
    after the response.  At most ``closed_loop_clients`` requests are in
    flight at any simulated instant, by construction.

    Device accounting follows ``config.device`` exactly like the open-loop
    path; ``"legacy"`` charges each batch's total misses to a single
    1-device bank (the same arithmetic as the legacy accountant).
    """
    n = len(requests)
    population = ClosedLoopPopulation(
        config.closed_loop_clients, config.closed_loop_think_s, ensure_rng(seed)
    )
    bank = _build_bank(store, config, model)
    split_tables = config.device.accounting != "legacy"
    stats_before = store.aggregate_stats()

    pending: List[float] = []
    issued = 0
    for _ in range(min(population.num_clients, n)):
        heapq.heappush(pending, population.initial_arrival_us())
        issued += 1

    arrival_list = np.empty(n, dtype=np.float64)
    latencies = np.empty(n, dtype=np.float64)
    batch_sizes: List[int] = []
    requests_shed = 0
    last_completion_us = 0.0
    next_index = 0
    while next_index < n:
        seed_arrival_us = heapq.heappop(pending)
        deadline_us = seed_arrival_us + config.max_linger_us
        member_arrivals = [seed_arrival_us]
        while (
            len(member_arrivals) < config.max_batch_requests
            and pending
            and pending[0] <= deadline_us
        ):
            member_arrivals.append(heapq.heappop(pending))
        if len(member_arrivals) == config.max_batch_requests:
            dispatch_us = member_arrivals[-1]
        else:
            dispatch_us = deadline_us
        start = next_index
        members = list(range(start, start + len(member_arrivals)))
        next_index = start + len(member_arrivals)
        for i, arrival in zip(members, member_arrivals):
            arrival_list[i] = arrival
        b = len(batch_sizes)
        batch_sizes.append(len(members))

        served, shed = _split_shed(bank, requests, members, dispatch_us, config)
        requests_shed += len(shed)
        completion_us, records = _lookup_and_charge(
            store, requests, served, dispatch_us, bank, split_tables=split_tables
        )
        last_completion_us = max(last_completion_us, completion_us)
        responses: List[Tuple[int, float]] = []
        for i in shed:
            response_us = dispatch_us + config.request_overhead_us
            latencies[i] = response_us - arrival_list[i]
            responses.append((i, response_us))
            _emit_shed_spans(
                tracer,
                i,
                float(arrival_list[i]),
                b,
                len(members),
                dispatch_us,
                config.request_overhead_us,
                bank.queue_wait_us(dispatch_us),
            )
        for i in served:
            response_us = completion_us + config.request_overhead_us
            latencies[i] = response_us - arrival_list[i]
            responses.append((i, response_us))
            if tracer.enabled:
                _emit_request_spans(
                    tracer,
                    i,
                    float(arrival_list[i]),
                    b,
                    len(members),
                    dispatch_us,
                    records,
                    completion_us,
                    config.request_overhead_us,
                )
        # Closed loop: each member's client thinks, then issues the next
        # request — the feedback that caps concurrency at the population.
        for _, response_us in responses:
            if issued < n:
                heapq.heappush(pending, population.next_arrival_us(response_us))
                issued += 1

    stats_after = store.aggregate_stats()
    return _assemble_report(
        store=store,
        model=model,
        config=config,
        n=n,
        num_batches=len(batch_sizes),
        offered_rate_rps=population.nominal_rate_rps,
        latencies=latencies,
        batch_sizes=np.asarray(batch_sizes, dtype=np.int64),
        first_arrival_us=float(arrival_list[0]) if n else 0.0,
        last_completion_us=last_completion_us,
        records=bank.records(),
        lookups=int(stats_after.lookups - stats_before.lookups),
        hits=int(stats_after.hits - stats_before.hits),
        blocks_read=int(stats_after.misses - stats_before.misses),
        requests_shed=requests_shed,
        device_bank=bank.snapshot(),
        tracer=tracer,
    )


# ------------------------------------------------------------------- helpers
def _build_bank(
    store: BandanaStore, config: ServingConfig, model: NVMLatencyModel
) -> NVMDeviceBank:
    """The host's device bank under ``config.device`` (see DeviceBankConfig)."""
    table_names = list(store.tables)
    if config.device.accounting == "per-table":
        num_devices = max(1, len(table_names))
    elif config.device.accounting == "shared":
        num_devices = config.device.devices_per_host
    else:  # "legacy": one clock, whole-batch charging (closed-loop path).
        num_devices = 1
    return NVMDeviceBank(
        num_devices=num_devices,
        latency_model=model,
        block_bytes=store.config.block_bytes,
        max_queue_depth=config.max_device_queue_depth,
        throughput_window_s=config.throughput_window_s,
        tables=table_names,
    )


def _split_shed(
    bank: NVMDeviceBank,
    requests: List[Dict[str, np.ndarray]],
    members: List[int],
    dispatch_us: float,
    config: ServingConfig,
) -> Tuple[List[int], List[int]]:
    """Partition a batch's members into (served, shed) at dispatch time.

    A request is shed when *any* of its tables' device backlog exceeds
    ``admission_queue_slack ×`` that table's SLO — the single-host port of
    the cluster's queue-level admission check (there per shard read, here
    per request: a single host has no other replica to serve the rest).
    """
    slack = config.admission_queue_slack
    if slack is None:
        return members, []
    served: List[int] = []
    shed: List[int] = []
    for i in members:
        if any(
            bank.queue_wait_us(dispatch_us, name) > slack * config.slo_us(name)
            for name in requests[i]
        ):
            shed.append(i)
        else:
            served.append(i)
    return served, shed


def _lookup_and_charge(
    store: BandanaStore,
    requests: List[Dict[str, np.ndarray]],
    served: List[int],
    dispatch_us: float,
    bank: NVMDeviceBank,
    split_tables: bool,
) -> Tuple[float, List[DeviceServiceRecord]]:
    """Fan a batch out through the store and charge its misses on the bank.

    ``split_tables=True`` charges each table's miss delta to that table's
    device (the batch completes at the max over its per-device records —
    per-table reads overlap across devices, serialise within one);
    ``False`` charges the batch's total misses to device 0, reproducing the
    legacy whole-batch accounting on bank plumbing.
    """
    per_table: Dict[str, List[np.ndarray]] = {}
    for i in served:
        for name, ids in requests[i].items():
            per_table.setdefault(name, []).append(ids)
    records: List[DeviceServiceRecord] = []
    completion_us = dispatch_us
    if split_tables:
        for name, queries in per_table.items():
            misses_before = store.tables[name].stats.misses
            store.lookup_batch(name, queries, gather=False)
            delta = store.tables[name].stats.misses - misses_before
            records.append(bank.serve_blocks(name, dispatch_us, delta))
    elif per_table:
        misses_before = sum(state.stats.misses for state in store.tables.values())
        for name, queries in per_table.items():
            store.lookup_batch(name, queries, gather=False)
        delta = (
            sum(state.stats.misses for state in store.tables.values())
            - misses_before
        )
        records.append(bank.devices[0].serve_blocks(dispatch_us, delta))
    for record in records:
        completion_us = max(completion_us, record.completion_us)
    return completion_us, records


def _emit_request_spans(
    tracer: Tracer,
    request_id: int,
    arrival_us: float,
    batch_index: int,
    batch_size: int,
    dispatch_us: float,
    records: List[DeviceServiceRecord],
    completion_us: float,
    overhead_us: float,
) -> None:
    """One served request's span tree (single-host paths).

    ``batcher.queue`` → per-device ``device.queue``/``device.service``
    (emitted by the shared device layer; parallel siblings when the batch
    charged several devices) → ``overhead``.  With a single charged device
    the four stages tile the latency exactly.
    """
    if not tracer.enabled:
        return
    tracer.begin_request(request_id, arrival_us)
    tracer.span(
        request_id,
        STAGE_BATCH_QUEUE,
        arrival_us,
        dispatch_us,
        batch=batch_index,
        batch_size=batch_size,
    )
    parallel = len(records) > 1
    for record in records:
        NVMDeviceBank.emit_device_spans(
            tracer, request_id, record, parallel=parallel
        )
    tracer.span(
        request_id,
        STAGE_OVERHEAD,
        completion_us,
        completion_us + overhead_us,
    )
    tracer.end_request(request_id, completion_us + overhead_us)


def _emit_shed_spans(
    tracer: Tracer,
    request_id: int,
    arrival_us: float,
    batch_index: int,
    batch_size: int,
    dispatch_us: float,
    overhead_us: float,
    queue_wait_us: float,
) -> None:
    """A shed request's span tree: batcher wait, shed marker, overhead."""
    if not tracer.enabled:
        return
    tracer.begin_request(request_id, arrival_us)
    tracer.span(
        request_id,
        STAGE_BATCH_QUEUE,
        arrival_us,
        dispatch_us,
        batch=batch_index,
        batch_size=batch_size,
    )
    tracer.span(
        request_id,
        STAGE_REQUEST_SHED,
        dispatch_us,
        dispatch_us,
        queue_wait_us=queue_wait_us,
    )
    tracer.span(
        request_id, STAGE_OVERHEAD, dispatch_us, dispatch_us + overhead_us
    )
    tracer.end_request(request_id, dispatch_us + overhead_us, degraded=True)


def _assemble_report(
    store: BandanaStore,
    model: NVMLatencyModel,
    config: ServingConfig,
    n: int,
    num_batches: int,
    offered_rate_rps: float,
    latencies: np.ndarray,
    batch_sizes: np.ndarray,
    first_arrival_us: float,
    last_completion_us: float,
    records: List[DeviceServiceRecord],
    lookups: int,
    hits: int,
    blocks_read: int,
    requests_shed: int,
    device_bank: Optional[Dict[str, object]],
    tracer: Tracer,
) -> ServingReport:
    """Condense one single-host run into a :class:`ServingReport`."""
    app_bytes = lookups * store.config.vector_bytes
    nvm_bytes = blocks_read * store.config.block_bytes
    makespan_us = last_completion_us - first_arrival_us if n else 0.0
    makespan_s = makespan_us / 1e6
    depths = np.array([r.queue_depth for r in records], dtype=np.float64)
    mbps = np.array([r.device_mbps for r in records], dtype=np.float64)

    steady_state = None
    if nvm_bytes > 0 and makespan_us > 0:
        steady_state = model.application_latency(
            app_bytes / makespan_us,  # bytes/µs == MB/s
            min(1.0, app_bytes / nvm_bytes),
            queue_depth=store.config.queue_depth,
        )

    report = ServingReport(
        num_requests=n,
        num_batches=num_batches,
        offered_rate_rps=offered_rate_rps,
        throughput_rps=n / makespan_s if makespan_s > 0 else 0.0,
        makespan_s=makespan_s,
        latency=LatencySummary.from_samples(latencies),
        slo_latency_us=config.slo_latency_us,
        slo_violations=int(np.count_nonzero(latencies > config.slo_latency_us)),
        mean_batch_size=float(batch_sizes.mean()) if num_batches else 0.0,
        batch_size_hist={
            int(size): int(count)
            for size, count in zip(*np.unique(batch_sizes, return_counts=True))
        },
        mean_queue_depth=float(depths.mean()) if depths.size else 0.0,
        max_queue_depth=float(depths.max()) if depths.size else 0.0,
        queue_depth_hist=depth_histogram(depths),
        blocks_read=blocks_read,
        device_mbps_mean=float(mbps.mean()) if mbps.size else 0.0,
        device_mbps_peak=float(mbps.max()) if mbps.size else 0.0,
        lookups=lookups,
        hit_rate=hits / lookups if lookups else 0.0,
        requests_shed=requests_shed,
        device_bank=device_bank,
        steady_state=steady_state,
        trace=tracer.summary() if tracer.enabled else None,
    )
    report.check_invariants()
    return report


def _simulate_cluster_serving(
    cluster: "ClusterStore",
    requests: List[Dict[str, np.ndarray]],
    arrival_us: np.ndarray,
    batches: List[Batch],
    config: ServingConfig,
    tracer: Tracer = NULL_TRACER,
) -> ServingReport:
    """The cluster-routed serving path (see ``simulate_serving``'s ``cluster``).

    The batcher still gates dispatch (requests wait out the linger window),
    but timing inside the store is the cluster's: per-shard queueing on each
    node's device bank, retries, hedges and fan-in.  Device-accountant
    metrics (queue-depth histogram, steady-state cross-check) do not apply —
    each cluster node owns its devices — and are reported empty.  Tracing is
    the cluster's too: the tracer rides along on the store
    (:meth:`~repro.cluster.store.ClusterStore.set_tracer`), which roots each
    request at its *true* arrival and records the batcher wait plus the full
    fan-out span tree.
    """
    n = len(requests)
    stats_before = cluster.aggregate_stats()
    latencies = np.empty(n, dtype=np.float64)
    batch_sizes = np.empty(len(batches), dtype=np.int64)
    last_completion_us = 0.0
    cluster.set_tracer(tracer)
    try:
        for b, batch in enumerate(batches):
            for i in range(batch.start, batch.stop):
                outcome = cluster.serve_request(
                    requests[i],
                    now_us=float(batch.dispatch_us),
                    arrival_us=float(arrival_us[i]),
                )
                latencies[i] = outcome.completion_us - arrival_us[i]
                last_completion_us = max(last_completion_us, outcome.completion_us)
            batch_sizes[b] = batch.size
    finally:
        cluster.set_tracer(None)
    stats_after = cluster.aggregate_stats()
    lookups = stats_after.lookups - stats_before.lookups
    hits = stats_after.hits - stats_before.hits
    blocks_read = stats_after.misses - stats_before.misses
    makespan_us = last_completion_us - (float(arrival_us[0]) if n else 0.0)
    makespan_s = makespan_us / 1e6
    report = ServingReport(
        num_requests=n,
        num_batches=len(batches),
        offered_rate_rps=config.arrival_rate_rps,
        throughput_rps=n / makespan_s if makespan_s > 0 else 0.0,
        makespan_s=makespan_s,
        latency=LatencySummary.from_samples(latencies),
        slo_latency_us=config.slo_latency_us,
        slo_violations=int(np.count_nonzero(latencies > config.slo_latency_us)),
        mean_batch_size=float(batch_sizes.mean()) if len(batches) else 0.0,
        batch_size_hist={
            int(size): int(count)
            for size, count in zip(*np.unique(batch_sizes, return_counts=True))
        },
        blocks_read=int(blocks_read),
        lookups=int(lookups),
        hit_rate=hits / lookups if lookups else 0.0,
        trace=tracer.summary() if tracer.enabled else None,
    )
    report.check_invariants()
    return report
