"""Vectorized batch replay engine: the array-native fast path of the cache stack.

Reference-vs-fast-path contract
-------------------------------
:func:`repro.caching.replay.replay_table_cache` is the *reference model*: a
pure-Python per-vector loop over a dict+heap :class:`~repro.caching.lru.LRUCache`
that mirrors the paper's prose one statement at a time.  It stays the source
of truth for what every counter means.  This module is the *fast path*: the
same simulation recast as batched NumPy kernels.  The contract between the two
is strict — for any trace, layout, policy and cache size, the fast path must
produce **bit-identical** :class:`~repro.caching.replay.ReplayStats` counters
(``lookups``, ``hits``, ``misses``, ``prefetch_admitted``, ``prefetch_hits``,
``prefetch_evicted_unused``, ``evictions``, ``total_latency_us``).  Speed must
never silently change the modeled numbers; ``tests/test_engine_equivalence.py``
enforces the contract on randomized traces across all policies and cache sizes.

How the vectorization works
---------------------------
* :class:`ArrayLRUCache` replaces the dict+heap cache with flat NumPy arrays
  indexed by vector id — a ``float64`` recency-priority array and a boolean
  residency array — plus the same lazy-deletion eviction heap as the
  reference, so eviction order (including priority ties, which the heap breaks
  by id) is reproduced exactly.  Bulk top-of-queue stamps append to the heap
  in one call: because freshly stamped priorities exceed everything already
  stored, appending them in increasing order preserves the heap invariant.
* :class:`BatchReplayEngine` walks each query as alternating segments: a
  maximal *run of hits* (classified in one residency-array gather) is counted,
  recorded with the policy and promoted in bulk; the following *demand miss*
  inserts its vector and offers the non-resident co-residents to the policy
  through the vectorized ``admit_batch`` API in one call.  The blocks of a
  query's misses are charged to the device in one ``read_blocks`` call at
  the end of the query, with latency totals summed read by read so they
  stay bit-identical to per-miss reads.
* A table with no DRAM (``capacity == 0``) short-circuits: every lookup
  misses and nothing is ever admitted, so a query is counted, recorded with
  the policy in stream order and charged in O(1) array operations.
* When no eviction can occur (the common case for adequately sized and
  unlimited caches) the admitted vectors are stamped in bulk, with insertion
  priorities computed by the same float expression the reference uses so the
  bits match.  When an eviction *could* occur — or an insertion priority would
  dip below the current queue bottom, where sequencing matters — the engine
  falls back to an exact per-vector path over the same array cache.

The engine requires ``admit`` to be a pure function of the candidate id and
the policy's current state (true for all six built-in policies): it may be
called for candidates the reference loop would have skipped as
already-resident.  Stateful ``record_access`` is fully supported and is
invoked in exactly the reference order.

Multi-cache replay
------------------
:func:`replay_table_cache_multi` replays one stream through many independent
caches/policies in a single pass, sharing the per-query id/block gathers.
:class:`~repro.caching.miniature.MiniatureCacheTuner` uses it to evaluate all
candidate admission thresholds with one walk over the sampled stream.
"""

from __future__ import annotations

import heapq
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np
import numpy.typing as npt

from repro.caching.policies import PrefetchPolicy
from repro.caching.replay import ReplayStats
from repro.nvm.block import BlockLayout
from repro.nvm.device import NVMDevice, add_repeated
from repro.utils.validation import check_non_negative, check_positive


class ArrayLRUCache:
    """Array-backed positional-insertion LRU over a bounded id universe.

    Semantically equivalent to :class:`~repro.caching.lru.LRUCache` for keys
    in ``[0, num_slots)``, but stores recency priorities in flat NumPy arrays
    indexed by key so that membership tests, promotions and top-of-queue
    insertions can be executed for whole batches of keys at once.  Eviction
    uses the same lazy-deletion heap (with the same ``(priority, key)``
    tie-breaking) as the reference cache, compacted whenever stale entries
    outnumber live ones.

    Parameters
    ----------
    capacity:
        Maximum number of resident keys (0 stores nothing).
    num_slots:
        Size of the id universe; every key must be in ``[0, num_slots)``.
    """

    #: Compact the lazy heap only once it exceeds this many entries.
    _COMPACT_MIN = 64

    def __init__(self, capacity: int, num_slots: int) -> None:
        check_non_negative(capacity, "capacity")
        check_positive(num_slots, "num_slots")
        self.capacity = int(capacity)
        self.num_slots = int(num_slots)
        self._prio = np.zeros(self.num_slots, dtype=np.float64)
        self._resident = np.zeros(self.num_slots, dtype=bool)
        self._clock = 0.0
        self._live = 0
        self._evictions = 0
        self._heap: List[Tuple[float, int]] = []
        self._next_compact_check = self._COMPACT_MIN
        # A cache that can hold the whole id universe never evicts, so no
        # eviction order needs to be tracked at all; the heap is materialised
        # lazily (from the priority arrays) if a min-query ever happens.
        self._track_order = self.capacity < self.num_slots

    # ------------------------------------------------------------------ basic
    def __len__(self) -> int:
        return self._live

    def __contains__(self, key: int) -> bool:
        return bool(self._resident[key])

    def peek(self, key: int) -> bool:
        """Membership test that does not change recency."""
        return bool(self._resident[key])

    @property
    def evictions(self) -> int:
        """Number of entries evicted so far."""
        return self._evictions

    def resident_mask(self, keys: np.ndarray) -> np.ndarray:
        """Boolean residency of every key in ``keys`` (one gather)."""
        return self._resident[keys]

    def keys(self) -> List[int]:
        """Resident keys ordered from most- to least-recently prioritised."""
        ids = np.flatnonzero(self._resident)
        return ids[np.argsort(-self._prio[ids], kind="stable")].tolist()

    def clear(self) -> None:
        """Drop all entries and reset the eviction counter."""
        self._resident[:] = False
        self._prio[:] = 0.0
        self._heap.clear()
        self._clock = 0.0
        self._live = 0
        self._evictions = 0
        self._next_compact_check = self._COMPACT_MIN
        self._track_order = self.capacity < self.num_slots

    # ------------------------------------------------------------------- bulk
    def promote_batch(self, keys: np.ndarray) -> None:
        """Stamp already-resident ``keys`` with fresh top priorities, in order.

        Equivalent to calling ``get`` on each key in sequence: the i-th key
        receives priority ``clock + i + 1`` and duplicate keys keep their last
        stamp.  All keys must currently be resident.
        """
        n = int(keys.size)
        if n == 0:
            return
        if not self._track_order:
            if n < 8:
                clock = self._clock
                prio = self._prio
                for key in keys.tolist():
                    clock += 1.0
                    prio[key] = clock
                self._clock = clock
            else:
                self._prio[keys] = self._clock + 1.0 + np.arange(n, dtype=np.float64)
                self._clock += float(n)
            return
        if n < 8:
            # Scalar path: numpy vector-op overhead dominates on tiny runs.
            clock = self._clock
            prio = self._prio
            append = self._heap.append
            for key in keys.tolist():
                clock += 1.0
                prio[key] = clock
                append((clock, key))
            self._clock = clock
        else:
            prios = self._clock + 1.0 + np.arange(n, dtype=np.float64)
            self._prio[keys] = prios  # duplicate keys: last assignment wins
            # Fresh top priorities exceed everything stored, so appending them
            # in increasing order preserves the heap invariant without a
            # heapify.
            self._heap.extend(zip(prios.tolist(), keys.tolist()))
            self._clock += float(n)
        if len(self._heap) >= self._next_compact_check:
            self._maybe_compact()

    def stamp_top(self, key: int) -> None:
        """Insert or promote one key at the top of the queue (no eviction)."""
        self._clock += 1.0
        if not self._resident[key]:
            self._resident[key] = True
            self._live += 1
        self._prio[key] = self._clock
        if self._track_order:
            self._heap.append((self._clock, key))
            if len(self._heap) >= self._next_compact_check:
                self._maybe_compact()

    def stamp_bulk(
        self, keys: np.ndarray, prios: Optional[np.ndarray], all_top: bool
    ) -> None:
        """Insert distinct non-resident ``keys`` with precomputed priorities.

        The caller guarantees the priorities replicate what sequential
        ``insert`` calls would have produced and that no eviction is needed.
        ``all_top`` marks priorities that are fresh clock stamps (append-safe,
        and derivable from the clock — pass ``prios=None``); interpolated
        priorities go through ``heappush`` to keep the heap valid.
        """
        n = int(keys.size)
        if n == 0:
            return
        track = self._track_order
        if all_top and n < 8:
            clock = self._clock
            prio = self._prio
            resident = self._resident
            append = self._heap.append
            for key in keys.tolist():
                clock += 1.0
                prio[key] = clock
                resident[key] = True
                if track:
                    append((clock, key))
            self._clock = clock
            self._live += n
        else:
            if prios is None:
                prios = self._clock + 1.0 + np.arange(n, dtype=np.float64)
            self._prio[keys] = prios
            self._resident[keys] = True
            self._live += n
            if track:
                if all_top:
                    self._heap.extend(zip(prios.tolist(), keys.tolist()))
                else:
                    for pair in zip(prios.tolist(), keys.tolist()):
                        heapq.heappush(self._heap, pair)
            self._clock += float(n)
        if track and len(self._heap) >= self._next_compact_check:
            self._maybe_compact()

    # ----------------------------------------------------------------- scalar
    def insert_at(self, key: int, position: float) -> Optional[int]:
        """Insert ``key`` at a queue position, exactly like ``LRUCache.insert``.

        Returns the evicted key, if any.  This is the exact sequential path;
        the float expression matches the reference implementation bit for bit.
        """
        if self.capacity == 0:
            return None
        evicted = None
        if not self._resident[key] and self._live >= self.capacity:
            evicted = self._evict_one()
        self._clock += 1.0
        top = self._clock
        if position <= 0.0 or self._live == 0:
            priority = top
        else:
            bottom = self._min_priority()
            priority = top - position * (top - bottom) - position * 1e-9
        if not self._resident[key]:
            self._resident[key] = True
            self._live += 1
        self._prio[key] = priority
        if self._track_order:
            heapq.heappush(self._heap, (priority, key))
            if len(self._heap) >= self._next_compact_check:
                self._maybe_compact()
        return evicted

    # ----------------------------------------------------------------- private
    def _min_priority(self) -> float:
        """Priority of the current LRU bottom (cleaning stale heap entries)."""
        if not self._track_order:
            self._materialise_order()
        while self._heap:
            priority, key = self._heap[0]
            if self._resident[key] and self._prio[key] == priority:
                return priority
            heapq.heappop(self._heap)
        return self._clock

    def _evict_one(self) -> Optional[int]:
        if not self._track_order:
            self._materialise_order()
        while self._heap:
            priority, key = heapq.heappop(self._heap)
            if self._resident[key] and self._prio[key] == priority:
                self._resident[key] = False
                self._live -= 1
                self._evictions += 1
                return key
        # Unreachable while every stamp is pushed to the heap; kept as a
        # safety net mirroring the reference implementation.
        if self._live:
            ids = np.flatnonzero(self._resident)
            key = int(ids[np.argmin(self._prio[ids])])
            self._resident[key] = False
            self._live -= 1
            self._evictions += 1
            return key
        return None

    def _materialise_order(self) -> None:
        """Build the eviction heap from the priority arrays on first demand."""
        ids = np.flatnonzero(self._resident)
        self._heap = list(zip(self._prio[ids].tolist(), ids.tolist()))
        heapq.heapify(self._heap)
        self._track_order = True
        self._next_compact_check = max(2 * len(self._heap), self._COMPACT_MIN)

    def _maybe_compact(self) -> None:
        if len(self._heap) > self._COMPACT_MIN and len(self._heap) > 3 * self._live:
            # Filter the heap itself (scales with the heap, not with the id
            # universe) and re-heapify the surviving valid entries.
            entries = np.array(self._heap, dtype=np.float64)
            keys = entries[:, 1].astype(np.int64)
            valid = self._resident[keys]
            valid &= self._prio[keys] == entries[:, 0]
            self._heap = list(
                zip(entries[valid, 0].tolist(), keys[valid].tolist())
            )
            heapq.heapify(self._heap)
        # Amortise the next check against the current heap size so the test
        # itself stays out of the per-stamp hot path.
        self._next_compact_check = max(2 * len(self._heap), self._COMPACT_MIN)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ArrayLRUCache(capacity={self.capacity}, num_slots={self.num_slots}, "
            f"live={self._live})"
        )


class BatchReplayEngine:
    """Array-native replay of lookup queries against one table's DRAM cache.

    Processes whole queries at a time and accumulates the same
    :class:`~repro.caching.replay.ReplayStats` the reference loop would.  The
    engine owns its :class:`ArrayLRUCache` and the pending-prefetch residency
    array, so it can be kept alive across calls for online serving (the role
    the ``cache=`` argument plays for the reference loop).  Unlike repeated
    reference-loop calls — which reset their function-local pending-prefetch
    set each time, losing prefetch-hit attribution — the engine carries that
    state, so serving a stream over many calls produces exactly the counters
    of one uninterrupted reference replay of the concatenated stream.

    Parameters mirror :func:`repro.caching.replay.replay_table_cache`.
    """

    def __init__(
        self,
        layout: BlockLayout,
        policy: PrefetchPolicy,
        cache_size: Optional[int] = None,
        vector_bytes: int = 128,
        device: Optional[NVMDevice] = None,
        queue_depth: float = 8.0,
        stats: Optional[ReplayStats] = None,
    ) -> None:
        check_positive(vector_bytes, "vector_bytes")
        block_bytes = layout.vectors_per_block * vector_bytes
        if stats is None:
            stats = ReplayStats(vector_bytes=vector_bytes, block_bytes=block_bytes)
        elif (stats.vector_bytes, stats.block_bytes) != (vector_bytes, block_bytes):
            raise ValueError("existing stats were created with a different geometry")
        capacity = layout.num_vectors if cache_size is None else int(cache_size)
        self.layout = layout
        self.policy = policy
        self.cache = ArrayLRUCache(capacity, layout.num_vectors)
        self.stats = stats
        self.device = device
        self.queue_depth = float(queue_depth)
        # Per-read latency at the fixed depth, added to total_latency_us once
        # per miss (the device adds the same value to its own total).
        self._read_latency_us = (
            device.latency_model.mean_latency_us(self.queue_depth)
            if device is not None
            else 0.0
        )
        # Vectors currently resident because of a prefetch and not yet demanded.
        self._pending = np.zeros(layout.num_vectors, dtype=bool)
        self._num_pending = 0
        # Hot-path views of the layout (id -> block, physical order).
        self._block_arr = layout.block_of(np.arange(layout.num_vectors, dtype=np.int64))
        self._order = layout.order
        self._vectors_per_block = layout.vectors_per_block
        self._num_vectors = layout.num_vectors
        # Policy capabilities resolved once (see PrefetchPolicy class attrs).
        self._never_admits = bool(policy.never_admits)
        self._always_top = bool(policy.always_top_positions)
        self._skip_record = (
            type(policy).record_access is PrefetchPolicy.record_access
            and type(policy).record_access_batch is PrefetchPolicy.record_access_batch
        )
        # A policy that implements only the batch hook must still observe
        # demand misses: route them through record_access_batch.
        self._record_miss_batched = (
            type(policy).record_access is PrefetchPolicy.record_access
            and type(policy).record_access_batch is not PrefetchPolicy.record_access_batch
        )
        # Per-block admission cache for policies whose admit decisions are
        # constant over the replay: block id -> (positions, admit mask).
        self._static_admit = bool(policy.admit_is_static)
        self._block_admit: dict = {}

    # ---------------------------------------------------------------- replay
    def replay(self, queries: Iterable[np.ndarray]) -> ReplayStats:
        """Replay an iterable of id arrays and return the accumulated stats.

        Query boundaries carry no state in the replay semantics, so the whole
        stream is concatenated and processed as one array — hit runs then
        span query boundaries, which is where the bulk processing pays most.
        """
        arrays = [np.asarray(query, dtype=np.int64) for query in queries]
        if not arrays:
            return self.stats
        self.replay_query(np.concatenate(arrays) if len(arrays) > 1 else arrays[0])
        return self.stats

    def replay_query(self, ids: npt.ArrayLike, validate: bool = True) -> None:
        """Replay one query (an id array) against the cache.

        ``validate=False`` skips the per-query id range check when the caller
        (e.g. :func:`replay_table_cache_multi`) has already performed it.
        """
        ids = np.asarray(ids, dtype=np.int64)
        n = int(ids.size)
        if n == 0:
            return
        if validate and (int(ids.min()) < 0 or int(ids.max()) >= self._num_vectors):
            raise IndexError(
                f"vector ids must be in [0, {self._num_vectors}), got range "
                f"[{ids.min()}, {ids.max()}]"
            )
        stats = self.stats
        cache = self.cache
        policy = self.policy
        skip_record = self._skip_record
        if cache.capacity == 0:
            # Nothing is ever stored, so every lookup misses and no admission
            # is observable (admit is pure): the per-miss walk would only
            # record each access and read its block.
            stats.lookups += n
            stats.misses += n
            if not skip_record:
                if self._record_miss_batched:
                    policy.record_access_batch(ids)
                else:
                    for vid in ids.tolist():
                        policy.record_access(vid)
            self._charge_misses(ids)
            return
        resident = cache._resident
        pending = self._pending
        missed: List[int] = []
        # The residency gather is bounded by an adaptive window that tracks
        # the typical hit-run length: it doubles while whole windows hit and
        # halves on every miss, so miss-heavy stretches pay O(run) per scan
        # instead of O(window), and hit-heavy stretches scan in big strides.
        window = 64
        i = 0
        while i < n:
            upper = i + window
            if upper > n:
                upper = n
            tail_res = resident[ids[i:upper]]
            j_rel = int(tail_res.argmin())  # first False, or 0 if all True
            if tail_res[j_rel]:
                j = upper
                if window < 8192:
                    window <<= 1
            else:
                j = i + j_rel
                if window > 32:
                    window >>= 1
            if j > i:
                # Maximal run of hits: residency cannot change inside it, so
                # the whole run is counted, recorded and promoted in bulk.
                run = ids[i:j]
                count = j - i
                stats.lookups += count
                stats.hits += count
                if not skip_record:
                    policy.record_access_batch(run)
                if self._num_pending:
                    pend = pending[run]
                    if pend.any():
                        hit_pending = np.unique(run[pend])
                        stats.prefetch_hits += int(hit_pending.size)
                        pending[hit_pending] = False
                        self._num_pending -= int(hit_pending.size)
                cache.promote_batch(run)
                i = j
                if i >= n:
                    break
                if j == upper:
                    continue  # pure window boundary, not a classified miss
            # Demand miss: the block read is charged with the query's others.
            vid = int(ids[i])
            stats.lookups += 1
            if not skip_record:
                if self._record_miss_batched:
                    policy.record_access_batch(ids[i : i + 1])
                else:
                    policy.record_access(vid)
            stats.misses += 1
            missed.append(vid)
            self._process_miss(vid)
            i += 1
        if missed:
            self._charge_misses(np.array(missed, dtype=np.int64))

    # ---------------------------------------------------------------- private
    def _charge_misses(self, vids: np.ndarray) -> None:
        """Read the blocks of the demand-missed ``vids`` in one device call.

        The per-read latency is added to ``total_latency_us`` one read at a
        time, so the stats and device totals are bit-identical to one
        ``read_block`` per miss.
        """
        device = self.device
        if device is None:
            return
        device.read_blocks(self._block_arr[vids], queue_depth=self.queue_depth)
        self.stats.total_latency_us = add_repeated(
            self.stats.total_latency_us, self._read_latency_us, int(vids.size)
        )

    def _process_miss(self, vid: int) -> None:
        """Insert the demanded vector and run bulk prefetch admission.

        The demand vector is inserted *first* (exactly the reference order),
        so the block-residency gather that follows sees any eviction the
        demand insert caused — an initially-resident neighbour evicted here
        re-enters the candidate set naturally, and the demand vector itself is
        excluded from the candidates by its own residency.  Requires a
        non-zero capacity (:meth:`replay_query` short-circuits zero-DRAM
        tables before any miss is processed).
        """
        cache = self.cache
        stats = self.stats
        capacity = cache.capacity
        # Demand insertion at the top of the queue, evicting if needed.
        if cache._live >= capacity:
            evicted = cache._evict_one()
            stats.evictions += 1
            if self._pending[evicted]:
                self._pending[evicted] = False
                self._num_pending -= 1
                stats.prefetch_evicted_unused += 1
        cache.stamp_top(vid)
        if self._pending[vid]:  # defensive: pending implies resident
            self._pending[vid] = False
            self._num_pending -= 1
        if self._never_admits:
            return

        # Offer the rest of the block to the prefetch policy, in slot order.
        # The demand vector is resident now, so its own residency excludes it
        # from the candidates (matching the reference loop's explicit check).
        bid = int(self._block_arr[vid])
        start = bid * self._vectors_per_block
        neighbours = self._order[start : start + self._vectors_per_block]
        if self._static_admit:
            entry = self._block_admit.get(bid)
            if entry is None:
                positions = np.asarray(self.policy.admit_batch(neighbours), dtype=np.float64)
                admit_ok = ~np.isnan(positions)
                entry = (positions, admit_ok, bool(admit_ok.any()))
                self._block_admit[bid] = entry
            positions, admit_ok, any_admits = entry
            if not any_admits:
                return
        else:
            positions = np.asarray(self.policy.admit_batch(neighbours), dtype=np.float64)
            admit_ok = ~np.isnan(positions)
        res_mask = cache._resident[neighbours]
        adm_mask = admit_ok > res_mask  # admit_ok & ~res_mask in one ufunc
        admitted = neighbours[adm_mask]
        m = int(admitted.size)
        if m == 0:
            return
        live = cache._live
        excess = live + m - capacity
        all_top = self._always_top
        if not all_top:
            pos = positions[adm_mask]
            all_top = not bool(np.any(pos != 0.0))

        if excess <= 0:
            # No eviction can occur in the admission sweep: stamp in bulk.
            if all_top:
                prios = None
            else:
                bottom = cache._min_priority()
                tops = cache._clock + 1.0 + np.arange(m, dtype=np.float64)
                # Same expression (and float op order) as LRUCache.insert.
                prios = tops - pos * (tops - bottom) - pos * 1e-9
                if not bool(np.all(prios > bottom)):
                    # A priority would land at or below the current queue
                    # bottom, so later insertions would see a different
                    # bottom: sequencing matters — take the exact path.
                    self._admit_sequential(vid, neighbours, positions)
                    return
            cache.stamp_bulk(admitted, prios, all_top=all_top)
            stats.prefetch_admitted += m
            self._pending[admitted] = True
            self._num_pending += m
            return

        if not all_top:
            # Interpolated insertions with evictions interact through the
            # moving queue bottom: take the exact sequential path.
            self._admit_sequential(vid, neighbours, positions)
            return

        self._admit_bulk_evicting(vid, neighbours, res_mask, adm_mask, admitted, positions, excess)

    def _admit_bulk_evicting(
        self,
        vid: int,
        neighbours: np.ndarray,
        res_mask: np.ndarray,
        adm_mask: np.ndarray,
        admitted: np.ndarray,
        positions: np.ndarray,
        excess: int,
    ) -> None:
        """Top-of-queue admission sweep when evictions are required.

        All insertions stamp fresh (maximal) priorities, so the evicted set is
        the ``excess`` smallest priorities of the union of the old entries and
        the new stamps — old entries in priority order first, then the new
        stamps in insertion order.  The one way sequencing can still leak into
        the result is the *flip* hazard: an eviction may remove an
        initially-resident block neighbour before the reference loop would
        have examined it, turning a skip into an admission.  The old evicted
        entries are therefore popped (non-destructively for residency) and
        checked first; a detected flip pushes them back and defers to the
        exact sequential path.
        """
        cache = self.cache
        stats = self.stats
        pending = self._pending
        m = int(admitted.size)
        live = cache._live
        heap = cache._heap
        resident = cache._resident
        prio = cache._prio

        # Pop the old entries that will be evicted (skipping stale entries,
        # which is unobservable). Valid entries exist for every resident key.
        num_old = excess if excess < live else live
        old_evicted: List[Tuple[float, int]] = []
        heappop = heapq.heappop
        for _ in range(num_old):
            while True:
                entry = heappop(heap)
                key = entry[1]
                if resident[key] and prio[key] == entry[0]:
                    old_evicted.append(entry)
                    break

        # Flip detection: admission j evicts once live + j reaches capacity,
        # so the k-th eviction happens while examination stands at the block
        # slot of admission first + k; an initially-resident neighbour at a
        # later slot that gets evicted here would be re-examined (and possibly
        # admitted) by the reference loop.  The popped priorities are the
        # globally smallest, so comparing against the youngest of them rules
        # out any overlap with the block's residents in one vector op.
        if old_evicted and bool(res_mask.any()):
            res_nb = neighbours[res_mask]
            if old_evicted[-1][0] >= float(prio[res_nb].min()):
                rpos = {
                    int(key): int(index)
                    for index, key in zip(np.flatnonzero(res_mask), res_nb)
                    if key != vid
                }
                if rpos:
                    apos = np.flatnonzero(adm_mask)
                    first = cache.capacity - live
                    if first < 0:
                        first = 0
                    admit = self.policy.admit
                    for k, (_, key) in enumerate(old_evicted):
                        px = rpos.get(key)
                        if px is None:
                            continue
                        if px > int(apos[first + k]) and admit(key) is not None:
                            # Genuine flip: the reference loop would have
                            # admitted this neighbour after its eviction.
                            # Restore and replay the admission sweep exactly.
                            for entry in old_evicted:
                                heapq.heappush(heap, entry)
                            self._admit_sequential(vid, neighbours, positions)
                            return

        # Commit the old evictions.
        for _, key in old_evicted:
            resident[key] = False
            cache._evictions += 1
            stats.evictions += 1
            if pending[key]:
                pending[key] = False
                self._num_pending -= 1
                stats.prefetch_evicted_unused += 1
        cache._live = live - num_old

        # Stamp the admitted neighbours in one batch.
        prios = cache._clock + 1.0 + np.arange(m, dtype=np.float64)
        prio[admitted] = prios
        resident[admitted] = True
        heap.extend(zip(prios.tolist(), admitted.tolist()))
        cache._clock += float(m)
        cache._live += m
        stats.prefetch_admitted += m
        pending[admitted] = True
        self._num_pending += m

        # Remaining evictions fall on the admissions themselves (cache-all
        # churn with a cache smaller than a block): once every older entry is
        # gone, the pops would return the admissions in insertion order, so
        # they are applied directly without touching the heap (their heap
        # entries go stale and are skipped later).  Each was pending, so each
        # counts as an unused prefetch eviction.
        extra = excess - num_old
        if extra > 0:
            evicted_new = admitted[:extra]
            resident[evicted_new] = False
            pending[evicted_new] = False
            cache._evictions += extra
            cache._live -= extra
            stats.evictions += extra
            self._num_pending -= extra
            stats.prefetch_evicted_unused += extra
        if len(heap) >= cache._next_compact_check:
            cache._maybe_compact()

    def _admit_sequential(
        self, vid: int, neighbours: np.ndarray, positions: np.ndarray
    ) -> None:
        """Per-vector admission over the array cache, in slot order.

        Admission positions were precomputed in one ``admit_batch`` call
        (``admit`` is pure, so the extra calls for vectors that turn out to be
        resident are unobservable); residency is rechecked per vector because
        evictions triggered by earlier insertions can change it mid-block.
        """
        cache = self.cache
        stats = self.stats
        for nb, position in zip(neighbours.tolist(), positions.tolist()):
            if nb == vid or cache._resident[nb]:
                continue
            if position != position:  # NaN: rejected
                continue
            evicted = cache.insert_at(nb, position)
            stats.prefetch_admitted += 1
            self._pending[nb] = True
            self._num_pending += 1
            if evicted is not None:
                stats.evictions += 1
                if self._pending[evicted]:
                    self._pending[evicted] = False
                    self._num_pending -= 1
                    stats.prefetch_evicted_unused += 1

    def reset(self) -> None:
        """Clear the cache and pending-prefetch state (stats are kept)."""
        self.cache.clear()
        self._pending[:] = False
        self._num_pending = 0

    def swap_layout(self, layout: BlockLayout) -> None:
        """Adopt a new block placement without disturbing cache residency.

        Models an online re-partition: the NVM blocks are rewritten in the
        new order, but DRAM cache entries are keyed by vector id and stay
        valid, so residency, LRU order, pending-prefetch attribution and the
        cumulative stats all carry over.  Only the placement-derived state
        (id→block mapping, physical order, per-block admission cache) is
        rebuilt.  The new layout must cover the same vector universe with
        the same block geometry.
        """
        if (layout.num_vectors, layout.vectors_per_block) != (
            self._num_vectors,
            self._vectors_per_block,
        ):
            raise ValueError(
                "swap_layout requires identical geometry: "
                f"({layout.num_vectors} vectors, {layout.vectors_per_block}/block) "
                f"vs ({self._num_vectors}, {self._vectors_per_block})"
            )
        self.layout = layout
        self._block_arr = layout.block_of(np.arange(layout.num_vectors, dtype=np.int64))
        self._order = layout.order
        self._block_admit = {}


def replay_table_cache_batched(
    queries: Iterable[np.ndarray],
    layout: BlockLayout,
    policy: PrefetchPolicy,
    engine: Optional[BatchReplayEngine] = None,
    cache_size: Optional[int] = None,
    vector_bytes: int = 128,
    device: Optional[NVMDevice] = None,
    queue_depth: float = 8.0,
    stats: Optional[ReplayStats] = None,
) -> ReplayStats:
    """Batched drop-in for :func:`repro.caching.replay.replay_table_cache`.

    Produces bit-identical :class:`~repro.caching.replay.ReplayStats` to the
    reference loop.  Pass an existing ``engine`` to keep serving across calls
    (the batched analogue of the reference loop's ``cache=`` argument).
    """
    if engine is None:
        engine = BatchReplayEngine(
            layout,
            policy,
            cache_size=cache_size,
            vector_bytes=vector_bytes,
            device=device,
            queue_depth=queue_depth,
            stats=stats,
        )
    elif stats is not None and stats is not engine.stats:
        raise ValueError("pass stats either to the engine or to this call, not both")
    return engine.replay(queries)


def replay_table_cache_multi(
    queries: Iterable[np.ndarray],
    layout: BlockLayout,
    policies: Sequence[PrefetchPolicy],
    cache_sizes: Sequence[Optional[int]],
    vector_bytes: int = 128,
) -> List[ReplayStats]:
    """Replay one stream through several independent caches in a single pass.

    The i-th result is bit-identical to replaying ``queries`` through policy
    ``policies[i]`` with cache size ``cache_sizes[i]`` on its own, but the
    stream is walked once and the per-query id conversion and block gather are
    shared across all caches.  This is the kernel behind the miniature-cache
    tuner's single-pass multi-threshold mode.
    """
    if len(policies) != len(cache_sizes):
        raise ValueError("policies and cache_sizes must have the same length")
    engines = [
        BatchReplayEngine(layout, policy, cache_size=size, vector_bytes=vector_bytes)
        for policy, size in zip(policies, cache_sizes)
    ]
    arrays = [np.asarray(query, dtype=np.int64) for query in queries]
    if not arrays:
        return [engine.stats for engine in engines]
    ids = np.concatenate(arrays) if len(arrays) > 1 else arrays[0]
    if ids.size and (int(ids.min()) < 0 or int(ids.max()) >= layout.num_vectors):
        raise IndexError(
            f"vector ids must be in [0, {layout.num_vectors}), got range "
            f"[{ids.min()}, {ids.max()}]"
        )
    for engine in engines:
        engine.replay_query(ids, validate=False)
    return [engine.stats for engine in engines]
