"""FleetSupervisor: health probes, auto-restart, and replica resync.

The self-healing half of the replicated fleet.  A supervisor owns one
background thread that probes every worker each round (``ping`` on the
transport's fast admin deadline, so a dead worker costs ~2 s, not the
120 s data-op deadline), and drives a dead worker through the recovery
ladder:

1. **degrade** — the router (when attached) marks the member degraded the
   moment death is detected, so writes journal for it and reads prefer
   its replica peers;
2. **restart** — respawn on the same store path with exponential
   backoff between attempts; a worker that keeps dying on arrival hits
   the **flap cap** and is quarantined with a loud status entry instead
   of being restarted forever;
3. **resync** — the migration engine's stream
   (:func:`~repro.store.migration.migrate_keys`) from each live peer,
   starting at the sequence-number watermark recorded for that peer
   while everyone was healthy, filtered to the assertions that actually
   belong on the rejoined member (its replica sets; broadcast groups
   always), duplicate-skipping so overlap is free;
4. **restore** — ``router.mark_restored`` (the member serves again, as
   *suspect* until a freshness probe clears it) and ``router.repair``
   (flush the write-side journal of shares that failed while it was
   down).

Watermark bookkeeping is deliberately conservative: the resync cursor
for a peer is that peer's watermark from the round *before* the death
was detected.  Anything at or past the cursor is re-streamed; the push
side skips duplicates, so over-streaming costs round trips, never
correctness — and under-streaming cannot happen because every write the
dead worker durably holds was acknowledged (hence fully replicated)
before its last successful probe.

Every state transition lands in :attr:`FleetSupervisor.events` and the
per-worker :meth:`status` — a crash drill can assert the exact recovery
path (died → restarted → resynced → restored) it scripted.  Right after
a restart the supervisor also pulls the worker's checkpoint/recovery
stats (``recovered`` event; ``status()[name]["recovery"]``), so drills
can additionally assert *how* the rejoined store reopened — snapshot +
tail replay versus a full log replay.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.core.passertion import InteractionKey
from repro.fleet.manager import FleetError, ProcessFleet
from repro.fleet.remote import RemoteStore
from repro.soa.envelope import Fault
from repro.store.distributed import StoreRouter
from repro.store.migration import migrate_keys
from repro.store.placement import PlacementSpec

#: default ceiling on one restart's health wait (a flapping worker exits
#: during startup, which fails fast; this bounds the pathological case).
RESTART_TIMEOUT_S = 30.0


class FleetSupervisor:
    """Supervise a :class:`~repro.fleet.manager.ProcessFleet`.

    ``router`` is optional but recommended: with it, death and recovery
    drive the router's degraded/suspect bookkeeping and the write-side
    repair journal.  Without it, resync still runs, computing replica
    sets locally from ``replicas`` under the default (modulo) placement
    rule, through the same :class:`~repro.store.placement.PlacementSpec`
    a router built without a placement uses, so the two agree.
    """

    def __init__(
        self,
        fleet: ProcessFleet,
        router: Optional[StoreRouter] = None,
        probe_interval_s: float = 0.2,
        backoff_s: float = 0.1,
        backoff_factor: float = 2.0,
        backoff_max_s: float = 2.0,
        flap_limit: int = 3,
        resync_page: int = 256,
        restart_timeout_s: float = RESTART_TIMEOUT_S,
    ):
        if flap_limit < 1:
            raise ValueError("flap_limit must be >= 1")
        self.fleet = fleet
        self.router = router
        self.replicas = router.replicas if router is not None else 1
        self.probe_interval_s = probe_interval_s
        self.backoff_s = backoff_s
        self.backoff_factor = backoff_factor
        self.backoff_max_s = backoff_max_s
        self.flap_limit = flap_limit
        self.resync_page = resync_page
        self.restart_timeout_s = restart_timeout_s
        #: chronological (monotonic_time, worker, event, detail) entries.
        self.events: List[Tuple[float, str, str, str]] = []
        self._lock = threading.Lock()
        self._states: Dict[str, str] = {
            name: "healthy" for name in fleet.worker_names
        }
        self._attempts: Dict[str, int] = {}
        self._restarts: Dict[str, int] = {}
        self._last_error: Dict[str, str] = {}
        #: per-worker watermark observed in the latest healthy probe round.
        self._watermarks: Dict[str, int] = {}
        #: per-worker recovery/checkpoint stats from the latest restart
        #: (how the rejoined store reopened: snapshot+tail vs full replay).
        self._recovery: Dict[str, Dict[str, str]] = {}
        #: frozen peer-watermark snapshot per dead worker (resync cursors).
        self._cursors: Dict[str, Dict[str, int]] = {}
        #: monotonic deadline before which a worker's next restart may run.
        self._not_before: Dict[str, float] = {}
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> "FleetSupervisor":
        if self._thread is not None:
            raise RuntimeError("supervisor already started")
        self._thread = threading.Thread(
            target=self._run, name="fleet-supervisor", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=30.0)
            self._thread = None

    def __enter__(self) -> "FleetSupervisor":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- observation -----------------------------------------------------------
    def status(self) -> Dict[str, Dict[str, object]]:
        """Per-worker supervision state, safe to read from any thread."""
        with self._lock:
            return {
                name: {
                    "state": self._states.get(name, "healthy"),
                    "attempts": self._attempts.get(name, 0),
                    "restarts": self._restarts.get(name, 0),
                    "last_error": self._last_error.get(name, ""),
                    "watermark": self._watermarks.get(name),
                    "recovery": dict(self._recovery.get(name, {})),
                }
                for name in self.fleet.worker_names
            }

    @property
    def quarantined(self) -> List[str]:
        with self._lock:
            return sorted(
                name
                for name, state in self._states.items()
                if state == "quarantined"
            )

    def lift_quarantine(self, name: str) -> None:
        """Manual override: give a quarantined worker its restarts back."""
        with self._lock:
            if self._states.get(name) != "quarantined":
                return
            self._states[name] = "dead"
            self._attempts[name] = 0
            self._not_before.pop(name, None)
        self._record(name, "quarantine-lifted", "manual override")

    def _record(self, name: str, event: str, detail: str = "") -> None:
        with self._lock:
            self.events.append((time.monotonic(), name, event, detail))

    def _remote(self, name: str) -> RemoteStore:
        handle = self.fleet.handle(name)
        # No on_close: these probes never own worker lifecycle.
        return RemoteStore(
            handle.client, endpoint=handle.config.endpoint, name=name
        )

    # -- the probe loop --------------------------------------------------------
    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                self._round()
            except Exception as exc:  # pragma: no cover - belt and braces
                self._record("<supervisor>", "round-error", repr(exc))
            self._stop.wait(self.probe_interval_s)

    def _round(self) -> None:
        prev = dict(self._watermarks)
        for name in self.fleet.worker_names:
            if self._stop.is_set():
                return
            with self._lock:
                state = self._states.get(name, "healthy")
            if state == "quarantined":
                continue
            if state in ("dead", "restarting"):
                self._try_restart(name)
                continue
            self._probe(name, prev)

    def _probe(self, name: str, prev: Dict[str, int]) -> None:
        handle = self.fleet.handle(name)
        remote = self._remote(name)
        try:
            remote.ping()
            try:
                watermark: Optional[int] = remote.sequence_watermark()
            except Fault as fault:
                if fault.code != "bad-admin":
                    raise
                watermark = None  # backend has no log (e.g. memory)
        except Fault as fault:
            if fault.code != "worker-unavailable":
                raise
            if handle.alive:
                # Slow, not dead: leave it alone, probe again next round.
                self._record(name, "slow-probe", str(fault))
                return
            self._on_death(name, prev, str(fault))
            return
        with self._lock:
            if watermark is not None:
                self._watermarks[name] = watermark
            if self._states.get(name) != "healthy":
                self._states[name] = "healthy"
            # A full healthy probe resets the flap counter: the worker
            # came back and stayed up past its own startup.
            self._attempts[name] = 0

    def _on_death(self, name: str, prev: Dict[str, int], detail: str) -> None:
        with self._lock:
            self._states[name] = "dead"
            self._last_error[name] = detail
            # Freeze the resync cursors at death: peer watermarks from the
            # round before detection (0 when unknown — a full, still
            # correct, re-stream).
            self._cursors.setdefault(
                name,
                {
                    peer: prev.get(peer, 0)
                    for peer in self.fleet.worker_names
                    if peer != name
                },
            )
            self._not_before[name] = 0.0
        if self.router is not None:
            self.router.mark_degraded(name)
        self._record(name, "died", detail)
        self._try_restart(name)

    def _migration_participant(self, name: str) -> bool:
        """Is ``name`` part of an in-flight placement transition?"""
        if self.router is None:
            return False
        participants = getattr(self.router, "migration_participants", None)
        if participants is None:
            return False
        return name in participants()

    # -- restart + resync ------------------------------------------------------
    def _try_restart(self, name: str) -> None:
        now = time.monotonic()
        with self._lock:
            if now < self._not_before.get(name, 0.0):
                return
            attempt = self._attempts.get(name, 0) + 1
            if attempt > self.flap_limit:
                if self._migration_participant(name):
                    # Quarantining a migration participant would wedge the
                    # transition (neither cutover nor rollback could drain
                    # it): keep the worker on the restart ladder, capped to
                    # the maximum backoff, until the migration resolves.
                    self._states[name] = "dead"
                    self._not_before[name] = now + self.backoff_max_s
                    deferred = True
                else:
                    self._states[name] = "quarantined"
                    deferred = False
            else:
                self._attempts[name] = attempt
                self._states[name] = "restarting"
        if attempt > self.flap_limit:
            if deferred:
                self._record(
                    name,
                    "quarantine-deferred",
                    f"exceeded flap cap ({self.flap_limit}) but worker "
                    f"participates in an in-flight migration; retrying",
                )
                return
            self._record(
                name,
                "quarantined",
                f"exceeded flap cap ({self.flap_limit} failed restarts); "
                f"manual intervention required (lift_quarantine)",
            )
            return
        try:
            self.fleet.restart(name, health_timeout_s=self.restart_timeout_s)
        except FleetError as exc:
            delay = min(
                self.backoff_s * (self.backoff_factor ** (attempt - 1)),
                self.backoff_max_s,
            )
            with self._lock:
                self._states[name] = "dead"
                self._last_error[name] = str(exc)
                self._not_before[name] = time.monotonic() + delay
            self._record(
                name,
                "restart-failed",
                f"attempt {attempt}/{self.flap_limit}: {exc}; "
                f"next in {delay:.2f}s",
            )
            return
        with self._lock:
            self._restarts[name] = self._restarts.get(name, 0) + 1
        self._record(name, "restarted", f"attempt {attempt}")
        try:
            stats = self._remote(name).checkpoint_stats()
        except Fault:
            pass  # backend without checkpoint stats (e.g. memory)
        else:
            with self._lock:
                self._recovery[name] = stats
            self._record(
                name,
                "recovered",
                f"mode={stats.get('recovery-mode', '?')} "
                f"tail={stats.get('tail-records', '?')} "
                f"open_s={stats.get('open-s', '?')}",
            )
        try:
            pushed = self._resync(name)
        except Fault as exc:
            # A peer died mid-resync; leave the worker degraded — the next
            # round re-detects and re-plans with fresh cursors.
            self._record(name, "resync-failed", str(exc))
            return
        self._record(name, "resynced", f"{pushed} assertion(s) streamed")
        if self.router is not None:
            self.router.mark_restored(name)
            repaired = self.router.repair(name)
            if repaired:
                self._record(name, "repaired", f"{repaired} journaled write(s)")
        with self._lock:
            self._states[name] = "healthy"
            self._cursors.pop(name, None)
        self._record(name, "restored", "serving traffic")

    def _member_of(self, name: str, key: InteractionKey) -> bool:
        """Does ``key``'s replica set include ``name``?"""
        if self.router is not None:
            return name in self.router.replica_set(key)
        spec = PlacementSpec(
            members=tuple(self.fleet.worker_names), replicas=self.replicas
        )
        return name in spec.replica_set(key)

    def _resync(self, name: str) -> int:
        """Stream the missed suffix from live peers into ``name``.

        One :func:`~repro.store.migration.migrate_keys` stream per live
        peer, from its frozen cursor: the records that belong on ``name``
        (its replica sets; broadcast groups always), pushed in pages.
        Duplicates are skipped on the target, so replaying an overlap or
        a crashed resync is free.  Returns the records applied.
        """
        with self._lock:
            cursors = dict(self._cursors.get(name, {}))
        target = self._remote(name)
        pushed = 0
        for peer in self.fleet.worker_names:
            if peer == name or not self.fleet.handle(peer).alive:
                continue
            applied, _skipped, _cursor = migrate_keys(
                self._remote(peer),
                target,
                predicate=lambda key: self._member_of(name, key),
                include_groups=True,
                page=self.resync_page,
                after=cursors.get(peer, 0),
            )
            pushed += applied
        return pushed


__all__ = ["FleetSupervisor", "RESTART_TIMEOUT_S"]
