"""Measure one workload: set-up, timed passes, checks, metrics.

Untraced run (``trace=False``): the workload is set up several times (the
median is ``setup_s``), then timed passes repeat on copies of the last
set-up until ``seconds`` of wall time have gone by.  ``host_rps`` is the
median over passes; simulated metrics come from the first pass, and every
other pass must reproduce them bit for bit.  Host times are rescaled to a
reference host speed by a probe timed around each phase (see
:class:`SpeedProbe`); the unscaled figures are printed too.

Traced run (``trace=True``): one set-up runs with span recording (the
set-up layers' self times), then untraced and traced passes alternate.
Timed-phase self times are medians over traced passes, and
``trace.overhead`` is the ratio of the traced to the untraced median pass
time.  Traced outputs must equal untraced ones.

Metric names and units come from ``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from spans import SpanRecorder
from workloads import WORKLOADS, PassResult, store_fingerprint

ROOT = Path(__file__).resolve().parent.parent
SPANS_DIR = ROOT / ".perfbench"
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Span label -> (self-time metric, calls metric or None) over timed passes.
TIMED_LAYERS = {
    "partitioning.shp": ("partitioning.shp_s", None),
    "caching.replay": ("caching.replay_s", "caching.replay_calls"),
    "nvm.read": ("nvm.read_s", "nvm.read_calls"),
    "core.lookup": ("core.lookup_s", "core.lookup_calls"),
    "core.swap": ("core.swap_s", None),
    "device.serve": ("device.serve_s", "device.serve_calls"),
    "serving.loop": ("serving.loop_s", None),
    "serving.arrivals": ("serving.arrivals_s", None),
    "cluster.request": ("cluster.request_s", "cluster.request_calls"),
    "cluster.node": ("cluster.node_s", None),
    "cluster.run": ("cluster.run_s", None),
    "scenarios.observe": ("scenarios.observe_s", None),
}
#: Span label -> self-time metric over the traced set-up.
SETUP_LAYERS = {
    "workloads.gen": "workloads.gen_s",
    "partitioning.shp": "partitioning.shp_setup_s",
    "caching.curve": "caching.curve_s",
    "caching.tune": "caching.tune_s",
    "core.build": "core.build_s",
}
#: Per-layer metrics read from the program's counters (pass outputs).
COUNTER_METRICS = (
    "caching.evictions_per_req",
    "caching.prefetch_useful",
    "device.depth_mean",
    "serving.batch_mean",
    "cluster.attempts_per_group",
    "cluster.hedge_win",
    "scenarios.retrains",
    "scenarios.late_hit_rate",
)

# ---------------------------------------------------------------- speed probe
# The host's speed drifts by tens of percent over minutes (shared cores and
# caches), and the drift moves interpreter-bound code alike.  A fixed probe
# of the same kinds of work (dict updates, small-array numpy calls, and
# cache-missing dict lookups and gathers over a few MB) runs before and
# after every measured phase; the median probe of a run gauges the host's
# speed during that run, and host times are reported rescaled to a
# reference speed at which the probe takes REFERENCE_PROBE_S (about a quiet
# 2-CPU container's figure).  A slow stretch of the host then does not read
# as a regression.  The probe is the benchmark's own code, never the
# program's; the unscaled figures are printed beside the reported ones.
REFERENCE_PROBE_S = 0.05


class SpeedProbe:
    """Times a fixed workload; its inputs are built once, at construction."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20260417)
        self.ids = rng.integers(0, 4096, 40_000)
        self.id_list = self.ids.tolist()
        self.table = {int(key): int(key) for key in rng.permutation(100_000)}
        self.keys = rng.integers(0, 100_000, 100_000).tolist()
        self.values = rng.integers(0, 1 << 30, 1_000_000)
        self.gather = rng.integers(0, 1_000_000, 250_000)

    def __call__(self) -> float:
        """Wall seconds of one probe."""
        start = time.perf_counter()
        for _ in range(2):
            counts: Dict[int, int] = {}
            for key in self.id_list:
                counts[key] = counts.get(key, 0) + 1
            for i in range(0, self.ids.size, 40):
                np.unique(self.ids[i : i + 40])
        total = 0
        for key in self.keys:
            total += self.table[key]
        np.take(self.values, self.gather).sum()
        return time.perf_counter() - start


def benchmark_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


class Phase:
    """The timed region of one pass, between two speed probes.

    Records spans while open when given a recorder.
    """

    def __init__(
        self, recorder: Optional[SpanRecorder], probe: SpeedProbe, probes: List[float]
    ) -> None:
        self.recorder = recorder
        self.probe = probe
        self.probes = probes
        self.recording: Any = None
        self.wall_s = 0.0
        self._start = 0.0

    def __enter__(self) -> "Phase":
        gc.collect()
        self.probes.append(self.probe())
        if self.recorder is not None:
            self.recording = self.recorder.recording().__enter__()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.wall_s = time.perf_counter() - self._start
        if self.recording is not None:
            self.recording.__exit__(*exc)
        self.probes.append(self.probe())


@dataclass
class TimedPass:
    wall_s: float
    result: PassResult
    #: Span label -> (self seconds, calls); traced passes only.
    layers: Dict[str, Tuple[float, int]] = field(default_factory=dict)


@dataclass
class Measurement:
    sizes: Dict[str, int]
    setup_walls: List[float]
    probes: List[float]
    untraced: List[TimedPass] = field(default_factory=list)
    traced: List[TimedPass] = field(default_factory=list)
    setup_layers: Dict[str, Tuple[float, int]] = field(default_factory=dict)
    checks: Dict[str, bool] = field(default_factory=dict)
    peak_rss_mb: float = 0.0

    @property
    def to_reference(self) -> float:
        """Factor that rescales this run's host seconds to the reference speed."""
        return REFERENCE_PROBE_S / statistics.median(self.probes)

    @property
    def passes(self) -> List[TimedPass]:
        return self.untraced + self.traced

    @property
    def reference(self) -> Dict[str, Any]:
        """Simulated outputs of the first pass (every other pass must match)."""
        return self.untraced[0].result.outputs

    @property
    def correct(self) -> bool:
        return all(self.checks.values())

    @property
    def attempted(self) -> int:
        return sum(p.result.requests for p in self.passes)

    @property
    def failed(self) -> int:
        if not self.correct:
            return self.attempted
        return sum(p.result.failed for p in self.passes)


def measure(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    recorder: Optional[SpanRecorder] = None,
) -> Measurement:
    """Run one workload as described in the module docstring."""
    workload = WORKLOADS[workload_name]()
    if trace and recorder is None:
        recorder = SpanRecorder()
    probe = SpeedProbe()
    probes: List[float] = []
    setup_walls: List[float] = []
    fingerprints = []
    setup_layers: Dict[str, Tuple[float, int]] = {}
    for _ in range(1 if trace else SETUP_REPEATS):
        prep = None  # release the previous set-up before timing the next
        gc.collect()
        probes.append(probe())
        # Only the set-up layers are wrapped here, so a tuner's or build's
        # nested replays stay in its own self time.
        recording_cm = recorder.recording(SETUP_LAYERS) if trace else nullcontext()
        start = time.perf_counter()
        with recording_cm as recording:
            prep = workload.setup(seed)
        setup_walls.append(time.perf_counter() - start)
        probes.append(probe())
        if recording is not None:
            setup_layers = recording.self_times()
        fingerprints.append(store_fingerprint(prep.store))

    m = Measurement(dict(prep.sizes), setup_walls, probes, setup_layers=setup_layers)
    started = time.perf_counter()
    index = 0
    while True:
        traced_pass = trace and index % 2 == 1
        phase = Phase(recorder if traced_pass else None, probe, probes)
        result = workload.run_pass(prep, phase)
        if traced_pass:
            m.traced.append(TimedPass(phase.wall_s, result, phase.recording.self_times()))
        else:
            m.untraced.append(TimedPass(phase.wall_s, result))
        index += 1
        enough = m.untraced and (m.traced or not trace)
        if enough and time.perf_counter() - started >= seconds:
            break

    checks = {
        "repeated set-ups build the same store": all(
            fp == fingerprints[0] for fp in fingerprints
        )
    }
    for timed_pass in m.passes:
        for name, ok in timed_pass.result.checks.items():
            checks[name] = checks.get(name, True) and bool(ok)
    reference = m.reference
    checks["every untraced pass reproduces the first"] = all(
        p.result.outputs == reference for p in m.untraced
    )
    if trace:
        checks["traced outputs = untraced outputs"] = all(
            p.result.outputs == reference for p in m.traced
        )
    m.checks = checks
    m.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return m


def end_to_end_metrics(m: Measurement) -> Dict[str, Tuple[float, int]]:
    """``name -> (value, samples)`` for the untraced run."""
    rates = [p.result.requests / p.wall_s for p in m.untraced]
    ref = m.reference
    return {
        "setup_s": (statistics.median(m.setup_walls) * m.to_reference, len(m.setup_walls)),
        "host_rps": (statistics.median(rates) / m.to_reference, len(rates)),
        "peak_rss_mb": (m.peak_rss_mb, 1),
        "hit_rate": (ref["hit_rate"], m.sizes["lookups"]),
        "blocks_per_req": (ref["blocks_per_req"], m.sizes["requests"]),
        "sim_p50_us": (ref["sim_p50_us"], ref["latency_samples"]),
        "sim_p99_us": (ref["sim_p99_us"], ref["latency_samples"]),
    }


def raw_host_figures(m: Measurement) -> Dict[str, float]:
    """Unscaled host figures, printed beside the reported ones."""
    return {
        "host_rps_wall": statistics.median(p.result.requests / p.wall_s for p in m.untraced),
        "setup_wall_s": statistics.median(m.setup_walls),
        "probe_median_s": statistics.median(m.probes),
        "probes": len(m.probes),
    }


def per_layer_metrics(m: Measurement) -> Dict[str, Tuple[float, int]]:
    """``name -> (value, samples)`` for the traced run."""
    traced = m.traced
    scale = m.to_reference
    out: Dict[str, Tuple[float, int]] = {}
    for label, metric in SETUP_LAYERS.items():
        out[metric] = (m.setup_layers[label][0] * scale, 1)
    for label, (seconds_metric, calls_metric) in TIMED_LAYERS.items():
        self_s = statistics.median(p.layers[label][0] for p in traced)
        out[seconds_metric] = (self_s * scale, len(traced))
        if calls_metric is not None:
            out[calls_metric] = (float(traced[0].layers[label][1]), len(traced))
    ref = m.reference
    for metric in COUNTER_METRICS:
        out[metric] = (float(ref.get(metric, 0.0)), 1)
    untraced_s = statistics.median(p.wall_s for p in m.untraced)
    traced_s = statistics.median(p.wall_s for p in traced)
    out["trace.overhead"] = (traced_s / untraced_s, min(len(traced), len(m.untraced)))
    return out


def layer_shares(m: Measurement) -> Dict[str, float]:
    """Median share of a traced pass's wall time per layer (self time)."""
    shares: Dict[str, float] = {}
    for label in TIMED_LAYERS:
        share = statistics.median(p.layers[label][0] / p.wall_s for p in m.traced)
        if share > 0:
            shares[label] = share
    shares["(benchmark loop, untraced code)"] = max(0.0, 1.0 - sum(shares.values()))
    return shares


def manifest(run_info: Dict[str, Any], loadavg_start: Tuple[float, ...]) -> Dict[str, Any]:
    """Where a result came from: code, interpreter, host, load and inputs."""
    return {
        "git": git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "loadavg_start": [round(v, 2) for v in loadavg_start],
        "loadavg_end": [round(v, 2) for v in os.getloadavg()],
        **run_info,
    }


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True, timeout=30,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, check=True, timeout=30,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown (git failed)"
    return sha + ("-dirty" if dirty else "")


def _metric_lines(
    values: Dict[str, Tuple[float, int]], specs: List[Dict[str, Any]]
) -> List[str]:
    lines = [f"  {'metric':<30} {'value':>16} {'unit':<8} samples"]
    for spec in specs:
        value, samples = values[spec["name"]]
        lines.append(f"  {spec['name']:<30} {value:>16.6g} {spec['unit']:<8} {samples}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    spec = benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    loadavg_start = os.getloadavg()
    recorder = SpanRecorder() if args.trace else None
    m = measure(args.workload, args.seed, args.seconds, bool(args.trace), recorder)
    info = manifest(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "inputs": m.sizes},
        loadavg_start,
    )
    print("manifest " + json.dumps(info, sort_keys=True))
    if args.trace:
        values = per_layer_metrics(m)
        metric_specs = spec["per_layer"]
        print(f"per-layer metrics ({len(m.traced)} traced, {len(m.untraced)} untraced passes):")
        print("\n".join(_metric_lines(values, metric_specs)))
        print("timed host time by layer (self time / traced pass wall):")
        for label, share in sorted(layer_shares(m).items(), key=lambda kv: -kv[1]):
            print(f"  {label:<32} {100 * share:6.1f}%")
        SPANS_DIR.mkdir(exist_ok=True)
        recorder.save(str(SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.npz"))
    else:
        values = end_to_end_metrics(m)
        metric_specs = spec["end_to_end"]
        print(f"end-to-end metrics ({len(m.untraced)} timed passes, host times at "
              f"reference speed):")
        print("\n".join(_metric_lines(values, metric_specs)))
    print("unscaled host figures " + json.dumps(raw_host_figures(m), sort_keys=True))
    for name, ok in m.checks.items():
        print(f"check {'ok  ' if ok else 'FAIL'} {name}")
    print(json.dumps({
        "correct": m.correct,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {
            s["name"]: {"value": values[s["name"]][0], "unit": s["unit"]}
            for s in metric_specs
        },
    }))
    return 0 if m.correct else 1
