"""Span recording around the calls into each ``repro`` layer.

The traced run wraps the public functions and methods of every layer in
the namespace its caller uses (a class attribute for methods, the calling
module's global for functions imported by name), records one span per call
— layer, start, end, parent span — and restores the originals afterwards.
Nothing in ``src/`` changes: the wrappers exist only while a traced phase
is open, so untraced phases run the unmodified program.

A layer's self time is its spans' duration minus the part covered by their
direct child spans (calls are single-threaded, so children nest exactly).
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from typing import Callable, Collection, Dict, List, Optional, Tuple

import numpy as np

import repro.cluster
import repro.cluster.scenario
import repro.core.bandana
import repro.scenarios
import repro.serving
import repro.serving.frontend
from repro.caching.engine import BatchReplayEngine
from repro.caching.miniature import MiniatureCacheTuner
from repro.cluster.node import ClusterNode
from repro.cluster.store import ClusterStore
from repro.core.bandana import BandanaStore
from repro.device.bank import NVMDeviceBank
from repro.nvm.device import NVMDevice
from repro.partitioning.shp import SHPPartitioner
from repro.scenarios.lifecycle import RepartitionManager
from repro.serving.accountant import DeviceLatencyAccountant
from repro.workloads.generator import SyntheticTraceGenerator

#: (owner, attribute, span label).  Labels name the layer (the ``src/repro``
#: package) and the operation; per-layer metrics aggregate them.
PATCH_POINTS: Tuple[Tuple[object, str, str], ...] = (
    (SyntheticTraceGenerator, "generate_lookups", "workloads.gen"),
    (repro.scenarios, "generate_scenario_trace", "workloads.gen"),
    (SHPPartitioner, "partition", "partitioning.shp"),
    (repro.core.bandana, "hit_rate_curve", "caching.curve"),
    (MiniatureCacheTuner, "select_threshold", "caching.tune"),
    (BandanaStore, "build", "core.build"),
    (BatchReplayEngine, "replay_query", "caching.replay"),
    (NVMDevice, "read_block", "nvm.read"),
    (NVMDevice, "read_blocks", "nvm.read"),
    (BandanaStore, "lookup", "core.lookup"),
    (BandanaStore, "lookup_batch", "core.lookup"),
    (BandanaStore, "lookup_request", "core.lookup"),
    (BandanaStore, "swap_layout", "core.swap"),
    (DeviceLatencyAccountant, "serve_batch", "device.serve"),
    (NVMDeviceBank, "serve_blocks", "device.serve"),
    (NVMDeviceBank, "serve_duration", "device.serve"),
    (repro.serving, "simulate_serving", "serving.loop"),
    (repro.serving.frontend, "arrival_times", "serving.arrivals"),
    (repro.serving.frontend, "form_batches", "serving.arrivals"),
    (repro.cluster.scenario, "arrival_times", "serving.arrivals"),
    (ClusterStore, "serve_request", "cluster.request"),
    (ClusterNode, "serve", "cluster.node"),
    (repro.cluster, "run_scenario", "cluster.run"),
    (RepartitionManager, "observe", "scenarios.observe"),
)

LABELS: Tuple[str, ...] = tuple(dict.fromkeys(label for _, _, label in PATCH_POINTS))


class SpanRecorder:
    """In-memory span log plus the patching that feeds it.

    Use :meth:`recording` as a context manager around each traced phase;
    :meth:`phase_self_times` then aggregates the spans of one phase.
    """

    def __init__(self) -> None:
        self.label_ids = array("h")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object, bool]] = []

    def __len__(self) -> int:
        return len(self.starts)

    # ---------------------------------------------------------------- patching
    def _wrap(self, label: str, fn: Callable) -> Callable:
        label_id = LABELS.index(label)
        clock = time.perf_counter
        label_ids, starts, ends, parents, stack = (
            self.label_ids, self.starts, self.ends, self.parents, self._stack,
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(starts)
            label_ids.append(label_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return wrapper

    def install(self, labels: Optional[Collection[str]] = None) -> None:
        """Patch every point whose label is in ``labels`` (default: all)."""
        if self._saved:
            raise RuntimeError("span patches are already installed")
        for owner, name, label in PATCH_POINTS:
            if labels is not None and label not in labels:
                continue
            raw = inspect.getattr_static(owner, name)
            if isinstance(raw, classmethod):
                patched: object = classmethod(self._wrap(label, raw.__func__))
            else:
                patched = self._wrap(label, raw)
            self._saved.append((owner, name, raw, name in vars(owner)))
            setattr(owner, name, patched)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, raw, own = self._saved.pop()
            if own:
                setattr(owner, name, raw)
            else:
                delattr(owner, name)

    def recording(self, labels: Optional[Collection[str]] = None) -> "_Recording":
        return _Recording(self, labels)

    # ------------------------------------------------------------- aggregation
    def phase_self_times(self, start: int, stop: int) -> Dict[str, Tuple[float, int]]:
        """``label -> (self seconds, calls)`` over spans ``start:stop``."""
        # Copies, not views: a live buffer export would block later appends.
        labels = np.array(self.label_ids[start:stop], dtype=np.int64)
        begins = np.array(self.starts[start:stop], dtype=np.float64)
        ends = np.array(self.ends[start:stop], dtype=np.float64)
        parents = np.array(self.parents[start:stop], dtype=np.int64) - start
        durations = ends - begins
        nested = parents >= 0
        child_time = np.bincount(
            parents[nested], weights=durations[nested], minlength=stop - start
        )
        self_time = durations - child_time
        seconds = np.bincount(labels, weights=self_time, minlength=len(LABELS))
        calls = np.bincount(labels, minlength=len(LABELS))
        return {
            label: (float(seconds[i]), int(calls[i])) for i, label in enumerate(LABELS)
        }

    def save(self, path: str) -> None:
        """Write every recorded span to ``path`` (``.npz``)."""
        np.savez_compressed(
            path,
            labels=np.asarray(LABELS),
            label_id=np.array(self.label_ids, dtype=np.int16),
            start_s=np.array(self.starts, dtype=np.float64),
            end_s=np.array(self.ends, dtype=np.float64),
            parent=np.array(self.parents, dtype=np.int64),
        )


class _Recording:
    """Context manager: patches installed and spans recorded while open."""

    def __init__(self, recorder: SpanRecorder, labels: Optional[Collection[str]]) -> None:
        self.recorder = recorder
        self.labels = labels
        self.start = 0
        self.stop = 0

    def __enter__(self) -> "_Recording":
        self.start = len(self.recorder)
        self.recorder.install(self.labels)
        return self

    def __exit__(self, *exc: object) -> None:
        self.recorder.uninstall()
        self.stop = len(self.recorder)
        if self.recorder._stack:
            raise RuntimeError("a traced call was still open when recording ended")

    def self_times(self) -> Dict[str, Tuple[float, int]]:
        return self.recorder.phase_self_times(self.start, self.stop)
