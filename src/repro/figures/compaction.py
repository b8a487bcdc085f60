"""Compaction sweep: background reclamation vs stop-the-world compaction.

The paper's PReServ records continuously into a Berkeley DB JE backend,
whose cleaner reclaims dead space in the background.  Our log-structured
substitutes reclaim only on request, so a store under *churn* (put /
delete / re-put of hot interactions) either grows without bound or stalls
ingest for stop-the-world ``compact()`` calls.  This sweep measures the
:mod:`repro.store.maintenance` answer on a workload shaped like a real
provenance store: a large **cold** bulk (old interactions, never touched
again) plus a small **hot** key set being overwritten by concurrent
recording sessions.  The churn runs over ``logs`` separate
:class:`~repro.store.kvlog.KVLog` files: hot client ``c`` writes log
``c``, and the cold bulk is spread round-robin over all of them, so the
pressure is skewed the way real recording is — a few hot logs, the rest
cold.

Three reclamation policies over the same churn and the same logs:

* ``none`` — ingest only; dead bytes accumulate forever (the footprint
  ratio column shows the unbounded growth);
* ``manual`` — every N batches all clients stop and one compacts every
  log: the pre-scheduler discipline.  Footprint is bounded, but every
  sweep rewrites the cold majority too, and the stall is on the ingest
  clock;
* ``scheduler`` — one :class:`~repro.store.maintenance.CompactionScheduler`
  with every log registered polls their dead-byte ratios in the
  background and compacts only the worst log per tick.  Cold logs are
  never rewritten (:attr:`CompactionSweepPoint.per_store` shows it), and
  the two-phase :meth:`~repro.store.kvlog.KVLog.compact` keeps writers
  flowing during the rewrite.

The interesting columns: sustained ``records/s`` (scheduler should beat
the manual stall comfortably) and ``max footprint/live`` (both reclaiming
policies should hold it bounded; ``none`` should not).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.figures.stats import format_table
from repro.store.kvlog import KVLog
from repro.store.maintenance import CompactionScheduler

POLICIES = ("none", "manual", "scheduler")


@dataclass(frozen=True)
class CompactionSweepPoint:
    """One policy's run over the churn workload."""

    policy: str
    logs: int
    clients: int
    records: int
    elapsed_s: float
    compactions: int
    bytes_reclaimed: int
    final_bytes: int
    final_dead_bytes: int
    #: worst sampled footprint/live ratio while the run was in flight.
    max_footprint_ratio: float
    #: the scheduler's per-log ``(compactions, bytes_reclaimed)``, keyed by
    #: :func:`log_name` (empty for the other policies); a log it never
    #: compacted has no entry.
    per_store: Dict[str, Tuple[int, int]]

    @property
    def records_per_s(self) -> float:
        return self.records / self.elapsed_s if self.elapsed_s else float("inf")

    @property
    def final_footprint_ratio(self) -> float:
        live = self.final_bytes - self.final_dead_bytes
        return self.final_bytes / live if live > 0 else float("inf")


def log_name(index: int) -> str:
    """The name log ``index`` is registered with the scheduler under."""
    return f"log-{index:02d}"


def _churn_batches(
    batches: int,
    records_per_batch: int,
    keyspace: int,
    value_bytes: int,
) -> List[List[Tuple[bytes, bytes]]]:
    """Pre-encoded churn batches: the same ``keyspace`` keys re-put forever."""
    out: List[List[Tuple[bytes, bytes]]] = []
    counter = 0
    for _ in range(batches):
        batch = []
        for _ in range(records_per_batch):
            batch.append(
                (
                    b"key-%04d" % (counter % keyspace),
                    b"v%06d" % counter + b"x" * value_bytes,
                )
            )
            counter += 1
        out.append(batch)
    return out


def run_compaction_sweep(
    tmp_dir: Path,
    policies: Sequence[str] = POLICIES,
    logs: int = 8,
    clients: int = 2,
    batches_per_client: int = 96,
    records_per_batch: int = 16,
    keyspace: int = 32,
    value_bytes: int = 2048,
    cold_records: int = 2000,
    cold_value_bytes: int = 2048,
    manual_every: int = 8,
    sync: bool = True,
    min_score: float = 0.30,
    min_reclaim_bytes: int = 16384,
    poll_interval_s: float = 0.002,
) -> List[CompactionSweepPoint]:
    """Run the churn workload once per policy; returns one point each."""
    if clients < 1 or clients > logs:
        raise ValueError("clients must be within [1, logs] (one hot log each)")
    if batches_per_client < 1 or records_per_batch < 1 or keyspace < 1:
        raise ValueError("batches, records per batch and keyspace must be >= 1")
    if manual_every < 1:
        raise ValueError("manual_every must be >= 1")
    unknown = set(policies) - set(POLICIES)
    if unknown:
        raise ValueError(f"unknown policies {sorted(unknown)}; pick from {POLICIES}")
    # Every client churns the same keys, each in its own log.
    churn = _churn_batches(batches_per_client, records_per_batch, keyspace, value_bytes)
    cold = [(b"cold-%08d" % i, b"c" * cold_value_bytes) for i in range(cold_records)]
    total_records = clients * batches_per_client * records_per_batch

    def one_run(policy: str, root: Path) -> CompactionSweepPoint:
        stores: List[KVLog] = []

        def footprint() -> Tuple[int, int]:
            """``(bytes on disk, dead bytes)`` summed over every log."""
            size = sum(log.file_size() for log in stores)
            return size, sum(log.dead_bytes for log in stores)

        scheduler: Optional[CompactionScheduler] = None
        manual_stats = [0, 0]  # compactions, bytes reclaimed
        samples: List[float] = []
        try:
            for i in range(logs):
                stores.append(KVLog(root / f"{log_name(i)}.kv", sync=sync))
                # The cold bulk loads off the clock, round-robin.
                stores[i].put_many(cold[i::logs])
            if policy == "scheduler":
                scheduler = CompactionScheduler(
                    poll_interval_s=poll_interval_s,
                    min_score=min_score,
                    min_reclaim_bytes=min_reclaim_bytes,
                )
                for i, log in enumerate(stores):
                    scheduler.register(log, log_name(i))
                scheduler.start()
            stop_world = threading.Barrier(clients)
            failures: List[BaseException] = []

            def client(c: int) -> None:
                log = stores[c]
                try:
                    for i, batch in enumerate(churn):
                        log.put_many(batch)
                        # The churn's delete leg: the key comes back with
                        # the next keyspace cycle (put / delete / re-put).
                        log.delete(batch[0][0])
                        if policy == "manual" and (i + 1) % manual_every == 0:
                            # Stop the world: every client waits while one
                            # compacts every log, exactly the discipline a
                            # store without the scheduler needs to bound
                            # its footprint.
                            stop_world.wait(timeout=60.0)
                            if c == 0:
                                before, _dead = footprint()
                                for each in stores:
                                    each.compact()
                                manual_stats[0] += 1
                                manual_stats[1] += max(0, before - footprint()[0])
                            stop_world.wait(timeout=60.0)
                        if c == 0:
                            size, dead = footprint()
                            if size > dead:
                                samples.append(size / (size - dead))
                except BaseException as exc:  # surfaced after join
                    failures.append(exc)
                    # Break any siblings parked at the barrier: a dead
                    # client must fail the sweep, not hang it.
                    stop_world.abort()

            threads = [
                threading.Thread(target=client, args=(c,)) for c in range(clients)
            ]
            start = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            elapsed = time.perf_counter() - start
            if failures:
                raise failures[0]
            per_store: Dict[str, Tuple[int, int]] = {}
            if scheduler is not None:
                scheduler.stop()
                stats = scheduler.stats()
                compactions, reclaimed = stats.compactions_run, stats.bytes_reclaimed
                per_store = stats.per_store
            else:
                compactions, reclaimed = manual_stats
            final_bytes, final_dead = footprint()
        finally:
            if scheduler is not None:
                scheduler.stop()
            for log in stores:
                log.close()
        return CompactionSweepPoint(
            policy=policy,
            logs=logs,
            clients=clients,
            records=total_records,
            elapsed_s=elapsed,
            compactions=compactions,
            bytes_reclaimed=reclaimed,
            final_bytes=final_bytes,
            final_dead_bytes=final_dead,
            max_footprint_ratio=max(samples) if samples else 0.0,
            per_store=per_store,
        )

    return [one_run(policy, tmp_dir / f"churn-{policy}") for policy in policies]


def compaction_table(points: List[CompactionSweepPoint]) -> str:
    base_point = next((p for p in points if p.policy == "manual"), None)
    base = base_point.records_per_s if base_point else 0.0
    headers = [
        "policy",
        "records/s",
        "vs manual",
        "compactions",
        "reclaimed MB",
        "final MB",
        "max foot/live",
    ]
    rows = [
        [
            p.policy,
            f"{p.records_per_s:.0f}",
            f"{p.records_per_s / base:.2f}x" if base else "-",
            p.compactions,
            f"{p.bytes_reclaimed / 1e6:.1f}",
            f"{p.final_bytes / 1e6:.1f}",
            f"{p.max_footprint_ratio:.2f}",
        ]
        for p in points
    ]
    return format_table(headers, rows)


@dataclass(frozen=True)
class FoldSweepPoint:
    """File-system backend: single-put debris before/after background folds."""

    puts: int
    segment_size: int
    files_before: int
    files_after: int
    folds: int
    elapsed_s: float


def run_fold_sweep(
    tmp_dir: Path,
    puts: int = 256,
    segment_size: int = 64,
    sync: bool = False,
) -> FoldSweepPoint:
    """Fine-grained FS ingest, then scheduler-driven segment folding."""
    from repro.core.passertion import (
        InteractionKey,
        InteractionPAssertion,
        ViewKind,
    )
    from repro.soa.xmldoc import XmlElement
    from repro.store.backends import FileSystemBackend

    store = FileSystemBackend(tmp_dir / "fs", segment_size=segment_size, sync=sync)
    try:
        for i in range(puts):
            content = XmlElement("doc")
            content.add(f"message {i}")
            store.put(
                InteractionPAssertion(
                    interaction_key=InteractionKey(
                        interaction_id=f"fold-{i}", sender="s", receiver="r"
                    ),
                    view=ViewKind.SENDER,
                    asserter="bench",
                    local_id=f"fold-{i}",
                    operation="record",
                    content=content,
                )
            )
        files_before = len(list((tmp_dir / "fs").glob("*.xml")))
        scheduler = CompactionScheduler(
            poll_interval_s=0.001, min_score=0.05, min_reclaim_bytes=1
        )
        scheduler.register(store, "fs")
        start = time.perf_counter()
        folds = scheduler.drain()
        elapsed = time.perf_counter() - start
        files_after = len(list((tmp_dir / "fs").glob("*.xml")))
    finally:
        store.close()
    return FoldSweepPoint(
        puts=puts,
        segment_size=segment_size,
        files_before=files_before,
        files_after=files_after,
        folds=folds,
        elapsed_s=elapsed,
    )


def fold_table(point: FoldSweepPoint) -> str:
    headers = ["puts", "segment", "files before", "files after", "folds", "fold s"]
    rows = [
        [
            point.puts,
            point.segment_size,
            point.files_before,
            point.files_after,
            point.folds,
            f"{point.elapsed_s:.3f}",
        ]
    ]
    return format_table(headers, rows)
