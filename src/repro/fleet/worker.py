"""The fleet worker: one PReServ store service per child process.

:func:`run_worker` is the process entry point a
:class:`~repro.fleet.manager.ProcessFleet` spawns: it builds the worker's
own backend (nothing is shared with the parent — shared-nothing is the
point), wraps it in a :class:`FleetWorkerActor`, and serves Envelopes over
the configured socket until asked to shut down (``shutdown`` operation or
``SIGTERM``), then drains the server and closes the backend so the
member's log ends on a committed group boundary.

:class:`FleetWorkerActor` is a :class:`~repro.store.service.PReServActor`
plus the three operations remote management needs: ``ping`` (health
checks), ``admin`` (the write generation for the client-side query
caches, the resync watermark and checkpoint controls), and
``shutdown``.

:func:`attach_commit_barrier` models the paper-era testbed device: a fixed
post-commit stall per group commit.  The figures/bench layer applies it
symmetrically to the in-process baseline and the fleet workers, so the
measured fleet speedup is the *overlap* of commit barriers across worker
processes — the effect the paper's distributed deployment buys — rather
than an artifact of host-disk speed (a fast device's fsync is too short
to measure anything but noise).
"""

from __future__ import annotations

import signal
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.passertion import parse_assertion
from repro.fleet.faults import FaultPlan, FaultRule, attach_fault_points
from repro.soa.envelope import Fault
from repro.soa.transport import Address, EnvelopeServer
from repro.soa.xmldoc import XmlElement, parse_xml
from repro.store.interface import ResyncCapable
from repro.store.migration import put_skipping_duplicates
from repro.store.service import PReServActor


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker process needs, picklable for ``spawn``."""

    endpoint: str
    address: Address
    backend: str = "kvlog"
    path: Optional[str] = None
    sync: bool = True
    segment_size: int = 256
    auto_compact: bool = False
    #: arm the backend's index-checkpoint policy (None = manual only).
    checkpoint_bytes: Optional[int] = None
    #: modelled per-group-commit device stall (0 = real device speed).
    commit_barrier_s: float = 0.0
    #: scripted faults for this worker (crash-sim scenarios); a tuple of
    #: frozen :class:`~repro.fleet.faults.FaultRule` so the config stays
    #: picklable for ``spawn`` — the child rebuilds the FaultPlan.
    fault_rules: Tuple[FaultRule, ...] = field(default_factory=tuple)


def attach_commit_barrier(backend: object, barrier_s: float) -> None:
    """Add a fixed post-commit stall to ``backend``'s write path.

    An instance-level wrapper over ``put_many``, the one write path
    (``put`` is a batch of one, so it stalls once too).  Return values
    are preserved.
    """
    if barrier_s <= 0:
        return
    real_put_many = backend.put_many

    def put_many(assertions):  # noqa: ANN001 - mirrors the interface signature
        result = real_put_many(assertions)
        time.sleep(barrier_s)
        return result

    backend.put_many = put_many  # type: ignore[method-assign]


class FleetWorkerActor(PReServActor):
    """A PReServ actor with the fleet's management operations.

    ``record``/``query`` are inherited unchanged — the store service a
    worker hosts is byte-for-byte the in-process one; only the transport
    differs.
    """

    def __init__(self, *args, shutdown_event: Optional[threading.Event] = None, **kwargs):
        super().__init__(*args, **kwargs)
        self._shutdown_event = shutdown_event

    def op_ping(self, payload: XmlElement) -> XmlElement:
        import os

        return XmlElement(
            "pong", {"endpoint": self.endpoint, "pid": str(os.getpid())}
        )

    def op_admin(self, payload: XmlElement) -> XmlElement:
        """Store-management queries: generation counters as wire strings."""
        op = payload.attrs.get("op", "")
        if op == "generation":
            return XmlElement(
                "admin-result", {"generation": str(self.store_generation())}
            )
        if op == "watermark":
            if not isinstance(self.backend, ResyncCapable):
                raise Fault(
                    "bad-admin",
                    f"backend {type(self.backend).__name__} has no "
                    f"sequence watermark (resync needs a log-backed store)",
                )
            return XmlElement(
                "admin-result",
                {"watermark": str(self.backend.sequence_watermark())},
            )
        if op == "checkpoint":
            checkpoint = getattr(self.backend, "checkpoint", None)
            if checkpoint is None:
                raise Fault(
                    "bad-admin",
                    f"backend {type(self.backend).__name__} does not "
                    f"support index checkpoints",
                )
            try:
                path = checkpoint()
            except Exception as exc:
                raise Fault("checkpoint-failed", repr(exc))
            return XmlElement("admin-result", {"snapshot": str(path)})
        if op == "checkpoint-stats":
            stats = getattr(self.backend, "checkpoint_stats", None)
            if stats is None:
                raise Fault(
                    "bad-admin",
                    f"backend {type(self.backend).__name__} has no "
                    f"checkpoint stats",
                )
            return XmlElement("admin-result", stats.as_wire())
        raise Fault("bad-admin", f"unknown admin op {op!r}")

    def op_replicate(self, payload: XmlElement) -> XmlElement:
        """Resync stream: page out this store's log, or absorb a peer's.

        ``pull`` returns a page of ``(sequence, assertion)`` records past a
        cursor in global insertion order; ``push`` applies a page of
        assertions, skipping duplicates — so a resync (pull from a live
        peer, push into the rejoined replica) is idempotent end to end and
        a crashed resync simply restarts from its last cursor.
        """
        mode = payload.attrs.get("mode", "")
        if mode == "pull":
            if not isinstance(self.backend, ResyncCapable):
                raise Fault(
                    "bad-replicate",
                    f"backend {type(self.backend).__name__} cannot stream "
                    f"its log (no scan_suffix)",
                )
            after = int(payload.attrs.get("after", "0"))
            limit = int(payload.attrs.get("limit", "256"))
            entries = self.backend.scan_suffix(after=after, limit=limit)
            page = XmlElement("replica-page", {"count": str(len(entries))})
            for seq, text in entries:
                page.element("entry", seq=str(seq)).add(parse_xml(text))
            return page
        if mode == "push":
            assertions = [
                parse_assertion(inner)
                for entry in payload.find_all("entry")
                for inner in entry.iter_elements()
            ]
            applied, skipped = put_skipping_duplicates(self.backend, assertions)
            return XmlElement(
                "replica-ack",
                {"applied": str(applied), "skipped": str(skipped)},
            )
        raise Fault("bad-replicate", f"unknown replicate mode {mode!r}")

    def op_shutdown(self, payload: XmlElement) -> XmlElement:
        """Ask the worker to exit; the ack is sent before it does."""
        if self._shutdown_event is not None:
            self._shutdown_event.set()
        return XmlElement("shutdown-ack", {"endpoint": self.endpoint})


def build_worker_backend(
    config: WorkerConfig, fault_plan: Optional[FaultPlan] = None
):
    """The worker's own backend, via the store factory."""
    from repro.store import make_backend

    kwargs = {"sync": config.sync, "auto_compact": config.auto_compact}
    if config.checkpoint_bytes is not None:
        kwargs["checkpoint_bytes"] = config.checkpoint_bytes
    if config.backend == "filesystem":
        kwargs["segment_size"] = config.segment_size
    backend = make_backend(config.backend, config.path, **kwargs)
    attach_commit_barrier(backend, config.commit_barrier_s)
    if fault_plan is not None:
        # Fault points wrap *outside* the barrier: a scripted ``die`` at
        # ``commit`` fires before anything persists.
        attach_fault_points(backend, fault_plan)
    return backend


def run_worker(config: WorkerConfig) -> None:
    """Process entry point: serve ``config.endpoint`` until shutdown."""
    shutdown = threading.Event()
    # SIGTERM is the manager's graceful stop when the socket is already
    # gone; SIGINT would otherwise hit every fleet child on a console ^C.
    signal.signal(signal.SIGTERM, lambda *_: shutdown.set())
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    fault_plan = FaultPlan(config.fault_rules) if config.fault_rules else None
    if fault_plan is not None:
        # Counted per process: a worker scripted to die here dies on every
        # (re)start — the flap shape the supervisor's backoff cap handles.
        fault_plan.fire("worker-start")
    backend = build_worker_backend(config, fault_plan)
    actor = FleetWorkerActor(
        backend,
        endpoint=config.endpoint,
        shutdown_event=shutdown,
    )
    server = EnvelopeServer(actor, config.address, fault_plan=fault_plan)
    server.start()
    try:
        shutdown.wait()
    finally:
        # Drain in-flight requests (the shutdown ack flushes before the
        # connection closes), then end the log on a committed boundary.
        server.stop()
        backend.close()


__all__ = [
    "FleetWorkerActor",
    "WorkerConfig",
    "attach_commit_barrier",
    "build_worker_backend",
    "run_worker",
]
