"""A hash-partitioned :class:`~repro.store.kvlog.KVLog` — the sharded store.

The paper's evaluation funnels every write through one Berkeley-DB-backed
store; our single-file :class:`KVLog` equivalently funnels every group
commit through one append file and one fsync stream.  That stream is the
ingest bottleneck once clients submit in parallel: commits serialize behind
one file lock, so concurrent batches queue instead of overlapping.

:class:`ShardedKVLog` keeps the exact on-disk record format but partitions
it across ``N`` shard files (``log.00.kv`` … ``log.NN.kv``), Bitcask style:

* ``put``/``put_many`` split work by ``hash(partition(key)) % N`` — by
  default the whole key is hashed; callers with structured keys (e.g. the
  database backend's ``<interaction-hash>|<seq>`` keys) pass a
  ``partition`` extractor so related records share a shard;
* each sub-batch is a normal KVLog group commit (one write + one fsync)
  against its shard, taken under a per-shard lock — concurrent clients
  whose batches land on different shards commit *in parallel*, which a
  single append file cannot do; sub-commits of one batch can additionally
  be fsynced in parallel via a small thread pool;
* every value is prefixed with a monotonically increasing 8-byte sequence
  number, and sequence reservation always happens while the owning
  shard's lock is held, so **each shard file is seq-monotonic in log
  order**.  That invariant is what lets :meth:`scan` merge the shards
  back into one stream in global insertion order with a bounded-memory
  k-way heap merge (at most one pending record per shard) — replay is
  byte-identical to a single log fed the same puts, whatever the log
  size;
* :meth:`compact` and :attr:`dead_bytes` work per shard (a shard compaction
  never touches its siblings); the database backend layers per-shard *write
  generations* on top (see
  :meth:`repro.store.backends.KVLogBackend.shard_generations`) so read
  caches can invalidate at shard granularity instead of whole-store.

Crash recovery is inherited from :class:`KVLog`: each shard CRC-checks its
records and truncates a torn tail on open.  A crash in the middle of a
multi-shard batch may keep some shards' sub-commits and lose others — the
batch was never acknowledged — but every *acknowledged* batch survives in
full, and the store always reopens.
"""

from __future__ import annotations

import heapq
import os
import struct
import threading
import zlib
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from repro.store.kvlog import (
    CorruptRecordError,
    KVLog,
    fsync_dir,
    mkdir_durable,
    sorted_items,
)

#: global-insertion-order prefix carried by every sharded value.
_SEQ = struct.Struct(">Q")

#: shard file name pattern (two digits keeps directory listings sorted).
SHARD_FILE = "log.{:02d}.kv"


def pipe_partition(key: bytes) -> bytes:
    """Partition extractor for ``<prefix>|<suffix>`` keys: the prefix.

    Keys without a ``|`` partition on their full bytes.
    """
    return key.split(b"|", 1)[0]


def shard_index(partition_key: bytes, shards: int) -> int:
    """THE placement function: which of ``shards`` owns ``partition_key``.

    Shared by :meth:`ShardedKVLog.shard_of` and the shard-sweep figures so
    simulated placement can never drift from the store's.
    """
    return zlib.crc32(partition_key) % shards


class ShardedKVLog:
    """N hash-partitioned :class:`KVLog` files behind the single-log API.

    Thread-safe: a global lock orders sequence assignment, per-shard locks
    serialize each shard's file operations, and concurrent callers touching
    different shards proceed in parallel.

    ``partition`` is part of the store's identity, like ``shards``: every
    open of the same directory must pass the same function, or keys will
    hash to the wrong shards.  Unlike the shard count (whose mismatch is
    detected from the files on disk), a partition mismatch cannot be
    detected for an arbitrary callable — callers own this invariant.
    """

    def __init__(
        self,
        root: "os.PathLike[str] | str",
        shards: int = 1,
        sync: bool = True,
        partition: Optional[Callable[[bytes], bytes]] = None,
        parallel_commit: bool = True,
    ):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.root = Path(root)
        mkdir_durable(self.root, sync=sync)
        existing = sorted(self.root.glob("log.*.kv"))
        # A shard-count mismatch only matters once records exist: rehashing
        # keys across a different count would strand them.  Empty shard
        # files are the footprint of a crash during a previous first-time
        # initialization — adopt or trim them so the store always reopens.
        if len(existing) != shards:
            if any(p.stat().st_size > 0 for p in existing):
                raise ValueError(
                    f"{self.root} holds {len(existing)} shard files with "
                    f"data but shards={shards}; reopen with "
                    f"shards={len(existing)} (rehashing keys across a "
                    f"different shard count would strand existing records)"
                )
            if len(existing) > shards:
                for stale in existing[shards:]:
                    stale.unlink()
                if sync:
                    # The unlinks must be durable before this open's shard
                    # count can be trusted: a crash that resurrects trimmed
                    # files would change the count detected next time.
                    fsync_dir(self.root)
        self.shards = shards
        self._partition = partition
        self._shards: List[KVLog] = []
        try:
            for i in range(shards):
                self._shards.append(
                    KVLog(self.root / SHARD_FILE.format(i), sync=sync)
                )
        except BaseException:
            # Don't leak the handles of shards that did open.
            for shard in self._shards:
                shard.close()
            raise
        self._locks = [threading.Lock() for _ in range(shards)]
        self._seq_lock = threading.Lock()
        self._closed = False
        self._pool: Optional[ThreadPoolExecutor] = None
        if parallel_commit and shards > 1:
            self._pool = ThreadPoolExecutor(
                max_workers=min(shards, os.cpu_count() or 2),
                thread_name_prefix="kvshard",
            )
        # Resolved lazily: the first write (or a full scan, which callers
        # replaying the log perform anyway) discovers the max live sequence,
        # so opening costs no extra pass over the data.
        self._next_seq: Optional[int] = None

    def _reserve_seqs(self, count: int) -> int:
        """Atomically reserve ``count`` sequence numbers; returns the first."""
        with self._seq_lock:
            if self._next_seq is None:
                top = -1
                for i in range(self.shards):
                    with self._locks[i]:
                        for _key, value in self._shards[i].scan():
                            seq = _SEQ.unpack_from(value)[0]
                            if seq > top:
                                top = seq
                self._next_seq = top + 1
            base = self._next_seq
            self._next_seq += count
            return base

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
        for shard in self._shards:
            shard.close()

    def __enter__(self) -> "ShardedKVLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ValueError("operation on closed ShardedKVLog")

    # -- partitioning ------------------------------------------------------
    def shard_of(self, key: bytes) -> int:
        """The shard index this key lives in (stable across reopen)."""
        pkey = self._partition(key) if self._partition is not None else key
        return shard_index(pkey, self.shards)

    # -- operations --------------------------------------------------------
    @staticmethod
    def _validated(key: bytes, value: bytes) -> Tuple[bytes, bytes]:
        if not isinstance(key, (bytes, bytearray)) or not key:
            raise ValueError("key must be non-empty bytes")
        return bytes(key), bytes(value)

    def put(self, key: bytes, value: bytes) -> None:
        self.put_many([(key, value)])

    def put_many(self, pairs: Iterable[Tuple[bytes, bytes]]) -> int:
        """Group commit: one KVLog batch commit per shard touched.

        The one write path (:meth:`put` is a batch of one).

        Sequence numbers are assigned in input order before any shard is
        written, so a single-writer workload replays in exactly the order
        the pairs were given, whatever the shard count.  Sub-commits run on
        the commit pool when one is configured, overlapping the shards'
        fsyncs.

        Every touched shard's lock is held (acquired in index order, so
        multi-lock acquisition can never deadlock) from sequence
        reservation through the last sub-commit.  That is the invariant
        the streaming :meth:`scan` merge rests on: records land in each
        shard file in sequence order, always — two racing writers to a
        common shard commit in reservation order, so the index's live
        value for a key is the highest-sequence committed write.  The
        cost is that concurrent batches *sharing* a shard serialize for
        the whole batch rather than per sub-commit; batches on disjoint
        shard sets — the concurrent-session workload the sharding exists
        for — still commit fully in parallel.
        """
        self._check_open()
        batch = [self._validated(k, v) for k, v in pairs]
        if not batch:
            return 0
        owners = [self.shard_of(key) for key, _value in batch]
        touched = sorted(set(owners))
        if self._next_seq is None:
            # Resolve the lazy watermark *before* taking any shard lock:
            # resolution scans every shard under its lock, so doing it while
            # holding one would invert the seq-lock/shard-lock order.
            self._reserve_seqs(0)
        for i in touched:
            self._locks[i].acquire()
        try:
            with self._seq_lock:
                base = self._next_seq
                self._next_seq += len(batch)
            per_shard: List[List[Tuple[bytes, bytes]]] = [
                [] for _ in range(self.shards)
            ]
            for offset, (key, value) in enumerate(batch):
                per_shard[owners[offset]].append(
                    (key, _SEQ.pack(base + offset) + value)
                )
            if self._pool is not None and len(touched) > 1:
                # The sharding-level locks are held by this thread; the pool
                # workers only drive each KVLog's internally-locked commit,
                # overlapping the shards' fsyncs.
                futures: List[Future] = [
                    self._pool.submit(self._shards[i].put_many, per_shard[i])
                    for i in touched
                ]
                # Wait for every sub-commit before surfacing a failure, so no
                # write is still in flight when the caller sees the exception.
                errors = [f.exception() for f in futures]
                for err in errors:
                    if err is not None:
                        raise err
            else:
                for i in touched:
                    self._shards[i].put_many(per_shard[i])
            return len(batch)
        finally:
            for i in reversed(touched):
                self._locks[i].release()

    def get(self, key: bytes) -> Optional[bytes]:
        self._check_open()
        key = bytes(key)
        shard = self.shard_of(key)
        with self._locks[shard]:
            value = self._shards[shard].get(key)
        return None if value is None else value[_SEQ.size :]

    def delete(self, key: bytes) -> bool:
        self._check_open()
        key = bytes(key)
        shard = self.shard_of(key)
        with self._locks[shard]:
            return self._shards[shard].delete(key)

    def __contains__(self, key: bytes) -> bool:
        key = bytes(key)
        shard = self.shard_of(key)
        with self._locks[shard]:
            return key in self._shards[shard]

    def __len__(self) -> int:
        total = 0
        for i in range(self.shards):
            with self._locks[i]:
                total += len(self._shards[i])
        return total

    def keys(self) -> Iterator[bytes]:
        merged: List[bytes] = []
        for i in range(self.shards):
            with self._locks[i]:
                merged.extend(self._shards[i].keys())
        return iter(sorted(merged))

    def scan(self, min_seq: int = 0) -> Iterator[Tuple[bytes, bytes]]:
        """Live pairs in *global* insertion order, merged across shards.

        A streaming k-way heap merge: each shard contributes its own
        :meth:`KVLog.scan` stream (one sequential pass, log order — which
        the write path guarantees is sequence order), and the per-record
        sequence prefixes stitch the streams together.  The merge holds at
        most **one pending record per shard**, so replaying a log that has
        outgrown RAM streams instead of materializing — and the result is
        byte-identical to scanning a single KVLog fed the same puts.

        ``min_seq`` is the checkpoint subsystem's per-shard start cursor:
        records with sequence below it are dropped inside each shard's
        stream *before* reaching the heap, so a snapshot-then-tail replay
        pays merge and decode costs only for the tail past its snapshot's
        watermark.  Cursors are sequence-space, not byte offsets, on
        purpose — a compaction between snapshot and reopen shifts bytes
        but never renumbers records, so a sequence cursor can't skip data
        a stale byte offset would.

        A shard whose records come back out of sequence order raises
        :class:`CorruptRecordError` rather than silently mis-merging.
        The current write path cannot produce such a file (reservation
        under the shard lock is the invariant above), so disorder means
        on-disk corruption, an external rewrite, or a directory written
        by a pre-streaming release, whose multi-shard batches could race
        same-shard writers between reservation and commit; rewrite such
        a store by replaying it record-by-record into a fresh one.
        """
        self._check_open()
        if min_seq < 0:
            raise ValueError("min_seq must be >= 0")

        def advance(stream) -> Optional[Tuple[int, bytes, bytes]]:
            for key, value in stream:
                seq = _SEQ.unpack_from(value)[0]
                if seq >= min_seq:
                    return seq, key, value
            return None

        # Prime each shard's stream under its sharding-layer lock: the
        # first next() takes the KVLog-internal snapshot, after which the
        # stream is immune to concurrent writers and compactions.
        streams: List[Iterator[Tuple[bytes, bytes]]] = []
        heap: List[Tuple[int, int, bytes, bytes]] = []
        for i, shard in enumerate(self._shards):
            stream = shard.scan()
            with self._locks[i]:
                first = next(stream, None)
            streams.append(stream)
            if first is None:
                continue
            key, value = first
            seq = _SEQ.unpack_from(value)[0]
            if seq < min_seq:
                primed = advance(stream)
                if primed is None:
                    continue
                seq, key, value = primed
            heap.append((seq, i, key, value))
        heapq.heapify(heap)
        last_seq = min_seq - 1
        while heap:
            seq, i, key, value = heap[0]
            if seq <= last_seq:
                raise CorruptRecordError(
                    f"shard {i} replayed sequence {seq} after {last_seq}: "
                    f"shard files are not in sequence order"
                )
            last_seq = seq
            yield key, value[_SEQ.size :]
            nxt = advance(streams[i])
            if nxt is None:
                heapq.heappop(heap)
            else:
                heapq.heapreplace(heap, (nxt[0], i, nxt[1], nxt[2]))
        # A completed scan has discovered the max live sequence; publish it
        # so the first write after a replay needs no extra pass.  (No shard
        # lock is held here, so the seq-lock -> shard-lock order used by
        # _reserve_seqs cannot deadlock against us.)  A cursored scan may
        # have seen nothing, so only an *unfiltered* pass may publish —
        # tail-replaying callers seed the floor via set_sequence_floor.
        if min_seq == 0:
            with self._seq_lock:
                if self._next_seq is None:
                    self._next_seq = last_seq + 1

    def set_sequence_floor(self, floor: int) -> None:
        """Never assign a sequence below ``floor`` (checkpoint restore hook).

        After a prefix truncation the shard files may hold few — or zero —
        records, so the lazy watermark resolution in :meth:`_reserve_seqs`
        could rediscover a stale maximum and re-issue sequences a snapshot
        already covers; a tail replay would then silently drop the reused
        numbers as already-seen history.  The backend that restored a
        snapshot calls this after its tail replay, with the next sequence
        it will assign — which pins the watermark, so ``floor`` MUST be
        at least one past the highest committed sequence (the max of the
        snapshot watermark and every replayed tail record).
        """
        if floor < 0:
            raise ValueError("floor must be >= 0")
        with self._seq_lock:
            if self._next_seq is None or self._next_seq < floor:
                self._next_seq = floor

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        """Live pairs in sorted-key order (unified on top of :meth:`scan`)."""
        return sorted_items(self.scan())

    # -- maintenance -------------------------------------------------------
    @property
    def dead_bytes(self) -> int:
        return sum(self.shard_dead_bytes())

    def shard_dead_bytes(self) -> List[int]:
        """Per-shard dead-byte counters (the scheduler's pressure signal)."""
        return [self._shards[i].dead_bytes for i in range(self.shards)]

    def compact(self, shard: Optional[int] = None) -> None:
        """Compact one shard (or, with ``shard=None``, every shard in turn).

        Per-shard compaction is the point of the partitioning: reclaiming
        one shard's dead bytes rewrites only that file while its siblings
        keep serving.  No shard lock is held here — :meth:`KVLog.compact`
        is internally two-phase, so writers to the shard being compacted
        block only for its short catch-up/swap window, not the rewrite.
        """
        self._check_open()
        targets = range(self.shards) if shard is None else (shard,)
        for i in targets:
            self._shards[i].compact()

    def truncate_prefix(self, watermark: int) -> int:
        """Drop every record with sequence below ``watermark``, shard by shard.

        The sharded half of checkpoint truncation: each shard rewrites
        itself without the records a durable snapshot covers (see
        :meth:`KVLog.truncate_prefix` for the crash discipline — each
        shard's rewrite is atomic swap-or-nothing).  The *cross-shard*
        operation is not atomic: a crash between shards leaves some
        truncated and some not, which is harmless — the leftover prefix
        records replay as duplicates of snapshot-covered history and the
        tail cursor skips them — and the next checkpoint finishes the job.

        Returns the total bytes given back to the filesystem.  Caller
        contract (inherited): ``watermark`` must be covered by a durable
        snapshot, or the dropped records are simply gone.
        """
        self._check_open()
        if watermark < 0:
            raise ValueError("watermark must be >= 0")

        def keep(_key: bytes, value: bytes) -> bool:
            return _SEQ.unpack_from(value)[0] >= watermark

        reclaimed = 0
        for i in range(self.shards):
            reclaimed += self._shards[i].truncate_prefix(keep)
        return reclaimed

    # -- reclaim protocol (see repro.store.maintenance) ---------------------
    def reclaim_candidates(self) -> List[tuple]:
        """One ``(shard, dead_ratio, reclaimable_bytes, cost_bytes)`` per shard."""
        out: List[tuple] = []
        for i in range(self.shards):
            size = self._shards[i].file_size()
            dead = self._shards[i].dead_bytes
            if size > 0:
                out.append((i, dead / size, dead, size))
        return out

    def reclaim(self, target: int) -> int:
        """Compact one shard; returns the bytes given back to the FS."""
        return self._shards[target].reclaim()

    def file_size(self) -> int:
        return sum(self.shard_file_sizes())

    def shard_file_sizes(self) -> List[int]:
        return [self._shards[i].file_size() for i in range(self.shards)]
