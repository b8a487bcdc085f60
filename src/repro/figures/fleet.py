"""A10: out-of-process fleet sweep — in-process bus vs. process workers.

The paper's §7 answer to a saturated store is *parallel submissions into
several provenance store instances*.  This sweep measures what that
deployment buys: N concurrent recording sessions ship the same
``prep-record-batch`` documents either

* **bus** — into one in-process :class:`~repro.store.service.PReServActor`
  (the single-process baseline; the bus drives the record port
  serially, exactly as every in-process deployment here does), or
* **process** — into a :class:`~repro.fleet.manager.ProcessFleet` of W
  worker processes over the Envelope socket transport, one session thread
  per connection, sessions spread round-robin across workers.

Both sides run the identical store stack (actor → translator → plug-in →
``KVLogBackend``) on the identical documents; only the deployment differs.

``commit_barrier_ms`` models the paper-era device: each group commit
additionally waits out a fixed write barrier (2005 commodity disks cost
milliseconds per barrier where this host's NVMe returns in ~0.2 ms and
measures noise).  The barrier is attached *symmetrically* — the baseline
actor's backend and every fleet worker's backend wait the same amount
per commit — so the reported speedup isolates the architecture: one
process serializes its sessions' commits behind one store, W workers
overlap them.  On a multi-core host the fleet additionally overlaps XML
decode (real CPU work in W interpreters); with the barrier at 0 on such
a host, that CPU overlap is what remains of the speedup.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence

from repro.core.passertion import (
    InteractionKey,
    InteractionPAssertion,
    ViewKind,
)
from repro.core.prep import PrepAck, PrepRecord
from repro.figures.stats import format_table
from repro.soa.xmldoc import XmlElement

#: transport labels used in sweep rows.
BUS = "bus"
PROCESS = "process"


@dataclass(frozen=True)
class FleetSweepPoint:
    """One (transport, workers) configuration of the sweep."""

    transport: str
    workers: int
    sessions: int
    records: int
    batches: int
    elapsed_s: float

    @property
    def records_per_s(self) -> float:
        return self.records / self.elapsed_s if self.elapsed_s else float("inf")


def _session_bodies(
    session: int,
    batches: int,
    records_per_batch: int,
    payload_bytes: int,
) -> List[XmlElement]:
    """One session's pre-encoded ``prep-record-batch`` bodies (off-clock)."""
    payload = XmlElement("envelope")
    payload.element("body").element(
        "data", "ACGT" * (max(payload_bytes, 4) // 4)
    )
    bodies: List[XmlElement] = []
    counter = 0
    for _ in range(batches):
        body = XmlElement("prep-record-batch")
        for _ in range(records_per_batch):
            key = InteractionKey(
                interaction_id=f"fleet-s{session:03d}-m{counter:06d}",
                sender=f"client-{session}",
                receiver="service",
            )
            record = PrepRecord(
                assertion=InteractionPAssertion(
                    interaction_key=key,
                    view=ViewKind.SENDER,
                    asserter=f"client-{session}",
                    local_id=f"pa-{counter}",
                    operation="invoke",
                    content=payload,
                )
            )
            body.add(record.to_xml())
            counter += 1
        bodies.append(body)
    return bodies


def _check_ack(response: XmlElement, expected: int) -> None:
    ack = PrepAck.from_xml(response)
    if not ack.ok or ack.count != expected:
        raise AssertionError(
            f"store acked {ack.count}/{expected} records ({ack.detail})"
        )


def run_fleet_sweep(
    tmp_dir: Path,
    worker_counts: Sequence[int] = (1, 2, 4),
    sessions: int = 4,
    batches_per_session: int = 12,
    records_per_batch: int = 8,
    payload_bytes: int = 256,
    commit_barrier_ms: float = 10.0,
    sync: bool = True,
    start_method: str = "spawn",
) -> List[FleetSweepPoint]:
    """One in-process baseline row + one process-fleet row per worker count."""
    if sessions < 1 or batches_per_session < 1 or records_per_batch < 1:
        raise ValueError("sessions, batches and records per batch must be >= 1")
    if not worker_counts or any(w < 1 for w in worker_counts):
        raise ValueError("worker counts must be a non-empty list of ints >= 1")
    barrier_s = commit_barrier_ms / 1000.0
    all_bodies = [
        _session_bodies(s, batches_per_session, records_per_batch, payload_bytes)
        for s in range(sessions)
    ]
    total_batches = sessions * batches_per_session
    total_records = total_batches * records_per_batch
    points: List[FleetSweepPoint] = []

    # -- baseline: one in-process actor, sessions serialized on the bus ----
    from repro.fleet.worker import attach_commit_barrier
    from repro.store.backends import KVLogBackend
    from repro.store.service import PReServActor

    backend = KVLogBackend(tmp_dir / "baseline", sync=sync)
    attach_commit_barrier(backend, barrier_s)
    actor = PReServActor(backend)
    try:
        start = time.perf_counter()
        # Round-robin across sessions — the arrival order an in-process
        # deployment would see from interleaved clients.
        for batch_index in range(batches_per_session):
            for session in range(sessions):
                response = actor.handle(
                    "record", all_bodies[session][batch_index]
                )
                _check_ack(response, records_per_batch)
        elapsed = time.perf_counter() - start
        if backend.counts().interaction_passertions != total_records:
            raise AssertionError("baseline lost records")
    finally:
        actor.close()
    points.append(
        FleetSweepPoint(
            transport=BUS,
            workers=1,
            sessions=sessions,
            records=total_records,
            batches=total_batches,
            elapsed_s=elapsed,
        )
    )

    # -- process fleet: W workers, one thread per session ------------------
    from repro.fleet.manager import ProcessFleet
    from repro.soa.transport import EnvelopeClient

    for w in worker_counts:
        fleet = ProcessFleet(
            tmp_dir / f"fleet-{w:02d}",
            members=w,
            sync=sync,
            commit_barrier_s=barrier_s,
            start_method=start_method,
        )
        try:
            names = fleet.worker_names
            # Each session gets its own connection to its (round-robin)
            # worker — the paper's parallel submission shape.
            clients = [
                EnvelopeClient(fleet.handle(names[s % w]).config.address)
                for s in range(sessions)
            ]
            endpoints = [names[s % w] for s in range(sessions)]
            start_barrier = threading.Barrier(sessions + 1)
            failures: List[BaseException] = []

            def run_session(s: int) -> None:
                start_barrier.wait()
                try:
                    for body in all_bodies[s]:
                        response = clients[s].call(
                            source=f"session-{s}",
                            target=endpoints[s],
                            operation="record",
                            payload=body,
                        )
                        _check_ack(response, records_per_batch)
                except BaseException as exc:  # surfaced after join
                    failures.append(exc)

            threads = [
                threading.Thread(target=run_session, args=(s,))
                for s in range(sessions)
            ]
            for t in threads:
                t.start()
            start_barrier.wait()
            start = time.perf_counter()
            for t in threads:
                t.join()
            elapsed = time.perf_counter() - start
            if failures:
                raise failures[0]
            stored = sum(
                store.counts().interaction_passertions
                for store in fleet.stores().values()
            )
            if stored != total_records:
                raise AssertionError(
                    f"fleet lost records: {stored} != {total_records}"
                )
            for client in clients:
                client.close()
        finally:
            fleet.close(raise_errors=False)
        points.append(
            FleetSweepPoint(
                transport=PROCESS,
                workers=w,
                sessions=sessions,
                records=total_records,
                batches=total_batches,
                elapsed_s=elapsed,
            )
        )
    return points


@dataclass(frozen=True)
class AvailabilityReport:
    """One crash drill's outcome: what the replicated fleet survived."""

    workers: int
    replicas: int
    acked_records: int
    retried_batches: int
    reads: int
    read_failures: int
    failovers: int
    recovery_s: float
    verified_records: int

    @property
    def read_error_rate(self) -> float:
        return self.read_failures / self.reads if self.reads else 0.0


def run_availability_drill(
    tmp_dir: Path,
    workers: int = 4,
    replicas: int = 2,
    batches: int = 24,
    records_per_batch: int = 4,
    kill_after_batches: int = 6,
    victim: Optional[str] = None,
    sync: bool = True,
    probe_interval_s: float = 0.1,
    recovery_timeout_s: float = 60.0,
) -> AvailabilityReport:
    """The deterministic crash drill: kill a replica mid-stream, lose nothing.

    An R-way replicated process fleet takes a stream of ``put_many``
    batches while a reader queries already-acknowledged records.  After
    ``kill_after_batches`` acknowledged batches one worker is SIGKILLed.
    The writer retries in-doubt batches until they acknowledge (replicated
    commits are duplicate-tolerant, so retries converge); the reader must
    never fail (replica failover); the supervisor must restart and resync
    the victim.  The drill then verifies **every acknowledged record** is
    readable and byte-identical to what was written, from every live
    replica that should hold it.
    """
    from repro.fleet.supervisor import FleetSupervisor
    from repro.store.distributed import (
        FederatedQueryClient,
        PartialCommitError,
        sharded_store_fleet,
    )
    from repro.soa.envelope import Fault

    if not 0 < kill_after_batches < batches:
        raise ValueError("kill_after_batches must fall inside the batch stream")
    router = sharded_store_fleet(
        tmp_dir / "drill",
        members=workers,
        transport="process",
        sync=sync,
        replicas=replicas,
    )
    fleet = router.fleet  # type: ignore[attr-defined]
    supervisor = FleetSupervisor(
        fleet, router=router, probe_interval_s=probe_interval_s
    )
    victim = victim or fleet.worker_names[0]
    queries = FederatedQueryClient(router)
    #: store_key -> canonical bytes of what was acknowledged.
    acked: dict = {}
    retried_batches = 0
    reads = 0
    read_failures = 0
    stop_reader = threading.Event()
    reader_errors: List[BaseException] = []

    def reader() -> None:
        nonlocal reads, read_failures
        while not stop_reader.is_set():
            for store_key in list(acked):
                if stop_reader.is_set():
                    return
                try:
                    queries.interaction_passertions(store_key[0])
                except BaseException as exc:
                    read_failures += 1
                    reader_errors.append(exc)
                reads += 1
            time.sleep(0.01)

    try:
        with supervisor:
            reader_thread = threading.Thread(target=reader, daemon=True)
            reader_thread.start()
            counter = 0
            for batch_index in range(batches):
                batch = []
                for _ in range(records_per_batch):
                    key = InteractionKey(
                        interaction_id=f"drill-{counter:06d}",
                        sender="drill-client",
                        receiver="drill-service",
                    )
                    content = XmlElement("envelope")
                    content.element("body").element(
                        "data", f"payload-{counter}"
                    )
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
                # Retry until the whole batch acknowledges: a partial
                # commit is never acked, and replicated retries converge.
                while True:
                    try:
                        router.put_many(batch)
                        break
                    except (PartialCommitError, Fault):
                        retried_batches += 1
                        time.sleep(0.05)
                for assertion in batch:
                    acked[assertion.store_key] = (
                        assertion.to_xml().serialize()
                    )
                if batch_index + 1 == kill_after_batches:
                    fleet.kill(victim)
            # Wait for the supervisor to restore full replication.
            deadline = time.monotonic() + recovery_timeout_s
            while time.monotonic() < deadline:
                if (
                    supervisor.status()[victim]["state"] == "healthy"
                    and not router.degraded_members
                    and not router.pending_repairs()
                ):
                    break
                time.sleep(0.05)
            else:
                raise AssertionError(
                    f"fleet did not recover within {recovery_timeout_s:.0f}s: "
                    f"status={supervisor.status()!r} "
                    f"degraded={router.degraded_members!r} "
                    f"pending={router.pending_repairs()!r}"
                )
            stop_reader.set()
            reader_thread.join(timeout=30.0)
            died = next(
                t for t, w, e, _ in supervisor.events
                if w == victim and e == "died"
            )
            restored = next(
                t for t, w, e, _ in supervisor.events
                if w == victim and e == "restored" and t > died
            )
            # -- verification: zero acked-write loss, byte-identical ------
            verified = 0
            for (key, *_rest), expected in acked.items():
                for member in router.replica_set(key):
                    held = router.store(member).interaction_passertions(key)
                    match = [
                        p for p in held
                        if p.to_xml().serialize() == expected
                    ]
                    if not match:
                        raise AssertionError(
                            f"acked record {key} missing or altered on "
                            f"replica {member!r}"
                        )
                verified += 1
    finally:
        stop_reader.set()
        router.close()
    if reader_errors:
        raise AssertionError(
            f"{read_failures} read(s) failed during the drill; first: "
            f"{reader_errors[0]!r}"
        )
    return AvailabilityReport(
        workers=workers,
        replicas=replicas,
        acked_records=len(acked),
        retried_batches=retried_batches,
        reads=reads,
        read_failures=read_failures,
        failovers=queries.failovers,
        recovery_s=restored - died,
        verified_records=verified,
    )


def availability_table(report: AvailabilityReport) -> str:
    headers = [
        "workers",
        "replicas",
        "acked",
        "verified",
        "retried batches",
        "reads",
        "read errors",
        "failovers",
        "recovery (s)",
    ]
    rows = [
        [
            report.workers,
            report.replicas,
            report.acked_records,
            report.verified_records,
            report.retried_batches,
            report.reads,
            report.read_failures,
            report.failovers,
            f"{report.recovery_s:.2f}",
        ]
    ]
    return format_table(headers, rows)


def fleet_sweep_table(points: List[FleetSweepPoint]) -> str:
    base_point: Optional[FleetSweepPoint] = next(
        (p for p in points if p.transport == BUS), points[0] if points else None
    )
    base = base_point.records_per_s if base_point else 0.0
    headers = [
        "transport",
        "workers",
        "sessions",
        "records",
        "records/s",
        "speedup",
    ]
    rows = [
        [
            p.transport,
            p.workers,
            p.sessions,
            p.records,
            f"{p.records_per_s:.0f}",
            f"{p.records_per_s / base:.2f}x" if base else "-",
        ]
        for p in points
    ]
    return format_table(headers, rows)
