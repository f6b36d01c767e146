"""The simulated NVM block device.

The real system issues 4 KB block reads to an NVM drive through Libaio; all of
Bandana's decisions are driven by *how many* block reads the drive serves and
what latency it delivers at a given load.  :class:`NVMDevice` therefore models
the device as a counted collection of fixed-size blocks with an attached
latency model and endurance tracker.  It can optionally hold real block
payloads (used by the end-to-end examples that return actual embedding
values); the replay benchmarks run it in pure counting mode for speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np
import numpy.typing as npt

from repro.nvm.endurance import EnduranceTracker
from repro.nvm.latency import NVMLatencyModel
from repro.utils.validation import check_positive


def add_repeated(total: float, value: float, count: int) -> float:
    """``total`` after ``count`` sequential ``total += value`` steps.

    Summing one at a time (not ``total + value * count``) keeps running
    latency totals bit-identical to per-read accounting.
    """
    for _ in range(count):
        total += value
    return total


@dataclass(frozen=True)
class NVMReadResult:
    """Outcome of a single block read."""

    block_id: int
    latency_us: float
    data: Optional[np.ndarray] = None


class NVMDevice:
    """A block-addressable NVM device with latency and endurance accounting.

    Parameters
    ----------
    num_blocks:
        Number of addressable blocks.
    block_bytes:
        Block size in bytes (4096 in the paper).
    latency_model:
        Latency/bandwidth model; defaults to the paper-calibrated model.
    dwpd_limit:
        Endurance budget in drive-writes-per-day.
    track_per_block_reads:
        When true, keeps a per-block read histogram (useful for debugging
        placement quality; adds memory proportional to ``num_blocks``).
    """

    def __init__(
        self,
        num_blocks: int,
        block_bytes: int = 4096,
        latency_model: Optional[NVMLatencyModel] = None,
        dwpd_limit: float = 30.0,
        track_per_block_reads: bool = False,
    ) -> None:
        check_positive(num_blocks, "num_blocks")
        check_positive(block_bytes, "block_bytes")
        self.num_blocks = int(num_blocks)
        self.block_bytes = int(block_bytes)
        self.latency_model = latency_model or NVMLatencyModel(block_bytes=block_bytes)
        self.endurance = EnduranceTracker(
            capacity_bytes=self.num_blocks * self.block_bytes, dwpd_limit=dwpd_limit
        )
        self._payloads: Dict[int, np.ndarray] = {}
        self._blocks_read = 0
        self._blocks_written = 0
        self._total_read_latency_us = 0.0
        self._per_block_reads: Optional[np.ndarray] = (
            np.zeros(self.num_blocks, dtype=np.int64) if track_per_block_reads else None
        )

    # ------------------------------------------------------------------ writes
    def write_block(self, block_id: int, data: Optional[np.ndarray] = None) -> None:
        """Write one block (e.g. during table loading or retraining).

        ``data`` is stored only if provided; counting-mode users simply get the
        endurance/byte accounting.
        """
        self._check_block(block_id)
        if data is not None:
            data = np.asarray(data)
            if data.nbytes > self.block_bytes:
                raise ValueError(
                    f"payload of {data.nbytes} bytes exceeds block size {self.block_bytes}"
                )
            self._payloads[block_id] = data
        self._blocks_written += 1
        self.endurance.record_write(self.block_bytes)

    def write_all_blocks(self) -> None:
        """Account for a full-device rewrite (one embedding retraining push)."""
        for block_id in range(self.num_blocks):
            self.write_block(block_id)

    # ------------------------------------------------------------------- reads
    def read_block(self, block_id: int, queue_depth: float = 8.0) -> NVMReadResult:
        """Read one block, returning its payload (if any) and modelled latency."""
        self._check_block(block_id)
        latency = self.latency_model.mean_latency_us(queue_depth)
        self._blocks_read += 1
        self._total_read_latency_us += latency
        if self._per_block_reads is not None:
            self._per_block_reads[block_id] += 1
        return NVMReadResult(
            block_id=block_id,
            latency_us=latency,
            data=self._payloads.get(block_id),
        )

    def read_blocks(self, block_ids: npt.ArrayLike, queue_depth: float = 8.0) -> float:
        """Read several blocks; returns the total modelled latency in µs.

        The counters end up exactly as after one :meth:`read_block` call per
        id, in order: the per-read latency is added to the running total one
        read at a time, so the float result is bit-identical.  Every id and
        the depth are validated before any counter moves.  Reads at the same
        queue depth overlap on the device, so the modelled wall-clock latency
        of a batch is the per-read latency times the number of serial rounds
        (``ceil(len(block_ids) / depth)``, with the latency model's depth
        clamp applied).
        """
        block_ids = np.asarray(block_ids, dtype=np.int64)
        depth = self.latency_model.clamp_depth(queue_depth)
        latency = self.latency_model.mean_latency_us(depth)
        count = int(block_ids.size)
        if count == 0:
            return 0.0
        # Builtin min/max over a list: cheaper than two NumPy reductions at
        # the few-reads-per-call sizes the replay engine issues.
        ids = block_ids.tolist()
        self._check_block(min(ids))
        self._check_block(max(ids))
        self._blocks_read += count
        self._total_read_latency_us = add_repeated(
            self._total_read_latency_us, latency, count
        )
        if self._per_block_reads is not None:
            np.add.at(self._per_block_reads, block_ids, 1)
        return math.ceil(count / depth) * latency

    # ---------------------------------------------------------------- counters
    @property
    def blocks_read(self) -> int:
        """Total number of block reads served."""
        return self._blocks_read

    @property
    def bytes_read(self) -> int:
        """Total bytes physically read from the device."""
        return self._blocks_read * self.block_bytes

    @property
    def blocks_written(self) -> int:
        """Total number of block writes."""
        return self._blocks_written

    @property
    def mean_read_latency_us(self) -> float:
        """Average modelled latency over all reads so far."""
        if self._blocks_read == 0:
            return 0.0
        return self._total_read_latency_us / self._blocks_read

    @property
    def per_block_reads(self) -> Optional[np.ndarray]:
        """Per-block read counts, or ``None`` if tracking is disabled."""
        return self._per_block_reads

    def reset_counters(self) -> None:
        """Zero the read/write counters (payloads and endurance are kept)."""
        self._blocks_read = 0
        self._blocks_written = 0
        self._total_read_latency_us = 0.0
        if self._per_block_reads is not None:
            self._per_block_reads[:] = 0

    # ----------------------------------------------------------------- private
    def _check_block(self, block_id: int) -> None:
        if not 0 <= block_id < self.num_blocks:
            raise IndexError(
                f"block_id {block_id} out of range [0, {self.num_blocks})"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NVMDevice(num_blocks={self.num_blocks}, block_bytes={self.block_bytes}, "
            f"blocks_read={self._blocks_read})"
        )
