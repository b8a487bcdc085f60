"""A12: live rebalance drill — grow the fleet under load, lose nothing.

The rebalance counterpart of the availability drill: a consistent-hash
fleet takes a continuous ``put_many`` stream while a reader queries
already-acknowledged records, and *mid-stream* a new member is added with
:meth:`~repro.store.distributed.StoreRouter.add_worker` — the online
migration streams the moving slice, drains the write tail, and atomically
cuts the placement over.  The drill then verifies the tentpole claims:

* **zero acked-write loss** — every acknowledged record is readable and
  byte-identical on its *post-cutover* replica set (writes acked during
  the window dual-committed to the union of old and new sets, so the new
  owner holds them without any repair step);
* **zero read errors** — the reader never sees a failure before, during,
  or after the cutover (readers are served by the current placement until
  the atomic flip);
* **~1/N movement** — the migration report's moved fraction is close to
  the consistent-hash ideal ``1/(N+1)``, nowhere near the ~(N−1)/N a
  modulo fleet would reshuffle;
* **bounded read latency** — the reader's p99 during the drill stays
  within an order-of-magnitude envelope of its p50 (the stream runs in
  pages, it never locks the read path).
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import List, Optional

from repro.core.passertion import (
    InteractionKey,
    InteractionPAssertion,
    ViewKind,
)
from repro.figures.stats import format_table, percentile
from repro.soa.xmldoc import XmlElement


@dataclass(frozen=True)
class RebalanceReport:
    """One live-grow drill's outcome."""

    placement: str
    transport: str
    workers_before: int
    workers_after: int
    acked_records: int
    verified_records: int
    retried_batches: int
    reads: int
    read_failures: int
    moved_keys: int
    total_keys: int
    streamed: int
    tail_rounds: int
    epoch: int
    migration_s: float
    query_p50_ms: float
    query_p99_ms: float

    @property
    def moved_fraction(self) -> float:
        return self.moved_keys / self.total_keys if self.total_keys else 0.0

    @property
    def ideal_fraction(self) -> float:
        return 1.0 / self.workers_after

    @property
    def read_error_rate(self) -> float:
        return self.read_failures / self.reads if self.reads else 0.0


def run_rebalance_drill(
    tmp_dir: Path,
    workers: int = 3,
    batches: int = 30,
    records_per_batch: int = 4,
    grow_after_batches: int = 10,
    placement: str = "ring",
    transport: str = "inprocess",
    sync: bool = True,
) -> RebalanceReport:
    """Grow a live fleet by one member under concurrent write+query load.

    ``grow_after_batches`` acknowledged batches into the stream,
    ``router.add_worker()`` runs on a drill thread while the writer keeps
    submitting and a reader keeps querying acknowledged records.  Every
    acknowledged record is then verified byte-identically on its
    post-cutover replica set.
    """
    from repro.soa.envelope import Fault
    from repro.store.distributed import (
        FederatedQueryClient,
        PartialCommitError,
        sharded_store_fleet,
    )

    if not 0 < grow_after_batches < batches:
        raise ValueError("grow_after_batches must fall inside the batch stream")
    router = sharded_store_fleet(
        tmp_dir / "rebalance",
        members=workers,
        transport=transport,
        sync=sync,
        placement=placement,
    )
    queries = FederatedQueryClient(router)
    acked: dict = {}
    retried_batches = 0
    reads = 0
    read_failures = 0
    latencies_ms: List[float] = []
    stop_reader = threading.Event()
    reader_errors: List[BaseException] = []

    def reader() -> None:
        nonlocal reads, read_failures
        while not stop_reader.is_set():
            for store_key in list(acked):
                if stop_reader.is_set():
                    return
                started = time.perf_counter()
                try:
                    queries.interaction_passertions(store_key[0])
                except BaseException as exc:
                    read_failures += 1
                    reader_errors.append(exc)
                latencies_ms.append((time.perf_counter() - started) * 1e3)
                reads += 1
            time.sleep(0.005)

    migration: dict = {}

    def grow() -> None:
        started = time.monotonic()
        name, report = router.add_worker()
        migration["name"] = name
        migration["report"] = report
        migration["elapsed_s"] = time.monotonic() - started

    migrator = threading.Thread(target=grow, daemon=True)
    try:
        reader_thread = threading.Thread(target=reader, daemon=True)
        reader_thread.start()
        counter = 0
        for batch_index in range(batches):
            batch = []
            for _ in range(records_per_batch):
                key = InteractionKey(
                    interaction_id=f"grow-{counter:06d}",
                    sender="drill-client",
                    receiver="drill-service",
                )
                content = XmlElement("envelope")
                content.element("body").element("data", f"payload-{counter}")
                batch.append(
                    InteractionPAssertion(
                        interaction_key=key,
                        view=ViewKind.SENDER,
                        asserter="drill-client",
                        local_id=f"pa-{counter}",
                        operation="invoke",
                        content=content,
                    )
                )
                counter += 1
            while True:
                try:
                    router.put_many(batch)
                    break
                except (PartialCommitError, Fault):
                    retried_batches += 1
                    time.sleep(0.02)
            for assertion in batch:
                acked[assertion.store_key] = assertion.to_xml().serialize()
            if batch_index + 1 == grow_after_batches:
                migrator.start()
        migrator.join(timeout=120.0)
        if migrator.is_alive():
            raise AssertionError("migration did not finish within 120s")
        if "report" not in migration:
            raise AssertionError("add_worker failed during the drill")
        stop_reader.set()
        reader_thread.join(timeout=30.0)
        # -- verification: zero acked-write loss on the NEW placement -----
        verified = 0
        for (key, *_rest), expected in acked.items():
            for member in router.replica_set(key):
                held = router.store(member).interaction_passertions(key)
                if not any(p.to_xml().serialize() == expected for p in held):
                    raise AssertionError(
                        f"acked record {key} missing or altered on "
                        f"post-cutover replica {member!r}"
                    )
            verified += 1
        epoch = router.placement.epoch
    finally:
        stop_reader.set()
        router.close()
    if reader_errors:
        raise AssertionError(
            f"{read_failures} read(s) failed during the rebalance; first: "
            f"{reader_errors[0]!r}"
        )
    report = migration["report"]
    return RebalanceReport(
        placement=placement,
        transport=transport,
        workers_before=workers,
        workers_after=workers + 1,
        acked_records=len(acked),
        verified_records=verified,
        retried_batches=retried_batches,
        reads=reads,
        read_failures=read_failures,
        moved_keys=report.moved_keys,
        total_keys=report.total_keys,
        streamed=report.streamed,
        tail_rounds=report.tail_rounds,
        epoch=epoch,
        migration_s=migration["elapsed_s"],
        query_p50_ms=percentile(latencies_ms, 0.50),
        query_p99_ms=percentile(latencies_ms, 0.99),
    )


def rebalance_table(report: RebalanceReport) -> str:
    headers = [
        "placement",
        "workers",
        "acked",
        "verified",
        "moved",
        "ideal",
        "reads",
        "read errors",
        "q p50 (ms)",
        "q p99 (ms)",
        "migration (s)",
    ]
    rows = [
        [
            report.placement,
            f"{report.workers_before}→{report.workers_after}",
            report.acked_records,
            report.verified_records,
            f"{report.moved_fraction:.2f}",
            f"{report.ideal_fraction:.2f}",
            report.reads,
            report.read_failures,
            f"{report.query_p50_ms:.2f}",
            f"{report.query_p99_ms:.2f}",
            f"{report.migration_s:.2f}",
        ]
    ]
    return format_table(headers, rows)


def write_rebalance_json(report: RebalanceReport, path: Path) -> Path:
    """Machine-readable drill output (the ``BENCH_rebalance.json`` artefact)."""
    payload = asdict(report)
    payload.update(
        {
            "figure": "A12-rebalance",
            "moved_fraction": report.moved_fraction,
            "ideal_fraction": report.ideal_fraction,
            "read_error_rate": report.read_error_rate,
        }
    )
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


__all__ = [
    "RebalanceReport",
    "rebalance_table",
    "run_rebalance_drill",
    "write_rebalance_json",
]
