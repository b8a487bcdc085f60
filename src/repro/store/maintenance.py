"""Background store maintenance: the compaction scheduler.

The paper's evaluated PReServ leans on Berkeley DB JE, whose cleaner
threads reclaim dead space continuously while the store keeps serving.
Our log-structured substitutes only reclaim when someone asks: a KVLog
accumulates dead bytes until ``compact()`` and the file-system
backend accumulates one-file-per-put debris until ``fold_segments()``.
:class:`CompactionScheduler` is that someone — a background thread that

* polls every registered store for *reclamation pressure*,
* picks the **single worst target per tick** (one log, one fold run —
  never a stop-the-world sweep),
* rate-limits itself (a minimum interval between compactions and an
  optional bytes-per-second budget), and
* relies on the two-phase :meth:`~repro.store.kvlog.KVLog.compact` and the
  rename-then-delete fold of
  :meth:`~repro.store.backends.FileSystemBackend.fold_segments`, so the
  ingest path is never stalled for a rewrite.

The scheduler is store-agnostic.  Anything exposing the **reclaim
protocol** can register::

    reclaim_candidates() -> [(target, score, reclaimable_bytes, cost_bytes)]
    reclaim(target) -> bytes_reclaimed

``score`` is the store's own pressure measure in [0, 1] (dead-byte ratio
for a log, foldable-backlog fraction for the file-system
backend); ``reclaimable_bytes`` gates tiny targets below
``min_reclaim_bytes``; ``cost_bytes`` — roughly the bytes a reclamation
must read+write — feeds the bytes-per-second limiter.  :class:`KVLog`,
:class:`KVLogBackend` and :class:`FileSystemBackend` all implement the
protocol.

Stores may additionally expose the **checkpoint protocol**::

    checkpoint_candidates() -> [(target, score, reclaimable_bytes, cost_bytes)]
    run_checkpoint(target) -> bytes_truncated

Checkpoint candidates compete with reclaim candidates for the same
single-action-per-tick slot under the same thresholds, so a tick either
compacts *or* snapshots — never both.  The persistent backends publish a
checkpoint candidate once their un-snapshotted log tail outgrows their
``checkpoint_bytes`` bound (see
:meth:`~repro.store.backends.KVLogBackend.checkpoint`).

Wiring: ``make_backend(..., auto_compact=True)`` attaches and starts a
scheduler whose lifetime is tied to the backend (``backend.close()`` stops
it); ``sharded_store_fleet(..., auto_compact=True)`` shares one scheduler
across the fleet so at most one member compacts at a time.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class CompactionEvent:
    """One completed maintenance action (background tick or manual :meth:`tick`).

    ``kind`` is ``"compact"`` for dead-byte reclamation via the reclaim
    protocol and ``"checkpoint"`` for an index snapshot + log-prefix
    truncation via the checkpoint protocol; ``reclaimed`` then counts the
    prefix bytes the truncation dropped.
    """

    store: str
    target: object
    score: float
    reclaimed: int
    cost_bytes: int
    elapsed_s: float
    kind: str = "compact"


@dataclass
class CompactionStats:
    """Scheduler counters, surfaced to the figures layer."""

    compactions_run: int = 0
    bytes_reclaimed: int = 0
    checkpoints_run: int = 0
    checkpoint_bytes_truncated: int = 0
    ticks: int = 0
    skipped_rate_limited: int = 0
    errors: int = 0
    last_error: Optional[str] = None
    last_event: Optional[CompactionEvent] = None
    #: per-store ``(compactions_run, bytes_reclaimed)``.
    per_store: Dict[str, Tuple[int, int]] = field(default_factory=dict)


class CompactionScheduler:
    """Background compaction over registered stores.

    Each tick polls every store's :meth:`reclaim_candidates` and compacts
    the single candidate with the highest score that clears both
    thresholds (``min_score`` and ``min_reclaim_bytes``).  One target per
    tick keeps the maintenance I/O footprint small and predictable; the
    rate limits bound it further:

    * ``min_interval_s`` — at least this long between compactions;
    * ``max_bytes_per_s`` — after compacting a target that cost ``C``
      bytes of rewrite I/O, wait at least ``C / max_bytes_per_s`` before
      the next one (None disables the budget).

    A target whose reclamation *fails* is put on an ``error_backoff_s``
    cooldown (and the failure recorded in the stats), so one sick store
    can never starve its siblings' maintenance.

    ``clock`` is injectable for tests.  Thread-safe; ``start``/``stop``
    are idempotent, and the scheduler usable purely synchronously via
    :meth:`tick`/:meth:`drain` without ever starting the thread.
    """

    def __init__(
        self,
        *,
        poll_interval_s: float = 0.05,
        min_score: float = 0.30,
        min_reclaim_bytes: int = 4096,
        min_interval_s: float = 0.0,
        max_bytes_per_s: Optional[float] = None,
        error_backoff_s: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if poll_interval_s <= 0:
            raise ValueError("poll_interval_s must be > 0")
        if not 0.0 <= min_score <= 1.0:
            raise ValueError("min_score must be within [0, 1]")
        if min_reclaim_bytes < 0:
            raise ValueError("min_reclaim_bytes must be >= 0")
        if min_interval_s < 0:
            raise ValueError("min_interval_s must be >= 0")
        if max_bytes_per_s is not None and max_bytes_per_s <= 0:
            raise ValueError("max_bytes_per_s must be > 0 (or None)")
        if error_backoff_s < 0:
            raise ValueError("error_backoff_s must be >= 0")
        self.poll_interval_s = poll_interval_s
        self.min_score = min_score
        self.min_reclaim_bytes = min_reclaim_bytes
        self.min_interval_s = min_interval_s
        self.max_bytes_per_s = max_bytes_per_s
        self.error_backoff_s = error_backoff_s
        self._clock = clock
        self._stores: Dict[str, object] = {}
        #: (store name, target) -> clock time its error cooldown expires.
        self._cooldowns: Dict[Tuple[str, object], float] = {}
        # Guards the registry, the stats, and the rate-limit state; never
        # held across a reclaim call, so stats() stays responsive while a
        # compaction runs.
        self._lock = threading.Lock()
        self._stop_event = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._next_allowed = float("-inf")
        self._stats = CompactionStats()

    # -- registry -----------------------------------------------------------
    def register(self, store: object, name: Optional[str] = None) -> str:
        """Add a store to the polling set; returns its registered name."""
        if not hasattr(store, "reclaim_candidates") or not hasattr(store, "reclaim"):
            raise TypeError(
                f"{type(store).__name__} does not implement the reclaim "
                f"protocol (reclaim_candidates/reclaim)"
            )
        with self._lock:
            if name is None:
                name = f"store-{len(self._stores):02d}"
            if name in self._stores:
                raise ValueError(f"store {name!r} already registered")
            self._stores[name] = store
        return name

    def unregister(self, name: str) -> None:
        with self._lock:
            self._stores.pop(name, None)

    def registered(self) -> List[str]:
        with self._lock:
            return list(self._stores)

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        """Start the background thread (no-op if already running)."""
        with self._lock:
            if self._thread is not None:
                return
            # Each thread owns its stop event: a stop() racing a fresh
            # start() can then only ever signal the thread it joined, never
            # strand (or double-run) the new one.
            stop_event = threading.Event()
            self._stop_event = stop_event
            self._thread = threading.Thread(
                target=self._run,
                args=(stop_event,),
                name="compaction-scheduler",
                daemon=True,
            )
            self._thread.start()

    def stop(self) -> None:
        """Stop and join the background thread (no-op if not running).

        An in-flight compaction finishes first — stopping never tears a
        rewrite, it only stops scheduling new ones.
        """
        with self._lock:
            thread = self._thread
            stop_event = self._stop_event
            self._thread = None
        if thread is None:
            return
        stop_event.set()
        thread.join()

    @property
    def running(self) -> bool:
        return self._thread is not None

    def __enter__(self) -> "CompactionScheduler":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    def _run(self, stop_event: threading.Event) -> None:
        while not stop_event.wait(self.poll_interval_s):
            try:
                self.tick()
            except Exception as exc:  # pragma: no cover - last-resort guard
                with self._lock:
                    self._stats.errors += 1
                    self._stats.last_error = repr(exc)

    def _note_error(self, name: str, target: object, exc: BaseException) -> None:
        with self._lock:
            self._stats.errors += 1
            self._stats.last_error = f"{name}: {exc!r}"
            self._cooldowns[(name, target)] = self._clock() + self.error_backoff_s

    # -- the scheduling core -------------------------------------------------
    def tick(self, force: bool = False) -> Optional[CompactionEvent]:
        """Poll all stores, compact the single worst target (or nothing).

        Honors the rate limits unless ``force``; returns the event for a
        compaction that ran, else None.  A store that fails — polling or
        reclaiming — is recorded in the stats and (for a reclaim failure)
        cooled down, never raised out of the scheduling loop.
        """
        now = self._clock()
        with self._lock:
            self._stats.ticks += 1
            if not force and now < self._next_allowed:
                self._stats.skipped_rate_limited += 1
                return None
            stores = list(self._stores.items())
            cooldowns = dict(self._cooldowns)
        best: Optional[Tuple[float, str, object, object, int, int, str]] = None
        for name, store in stores:
            if cooldowns.get((name, None), float("-inf")) > now:
                continue  # the whole store is cooling down a poll failure
            polls: List[Tuple[str, Callable[[], object]]] = [
                ("compact", store.reclaim_candidates)
            ]
            if hasattr(store, "checkpoint_candidates"):
                polls.append(("checkpoint", store.checkpoint_candidates))
            for kind, poll in polls:
                try:
                    candidates = poll()
                except Exception as exc:
                    self._note_error(name, None, exc)
                    continue
                for target, score, reclaimable, cost in candidates:
                    if score < self.min_score or reclaimable < self.min_reclaim_bytes:
                        continue
                    if cooldowns.get((name, target), float("-inf")) > now:
                        continue
                    if best is None or score > best[0]:
                        best = (score, name, store, target, reclaimable, cost, kind)
        if best is None:
            return None
        score, name, store, target, _reclaimable, cost, kind = best
        started = self._clock()
        try:
            if kind == "checkpoint":
                reclaimed = store.run_checkpoint(target)
            else:
                reclaimed = store.reclaim(target)
        except Exception as exc:
            self._note_error(name, target, exc)
            return None
        elapsed = self._clock() - started
        event = CompactionEvent(
            store=name,
            target=target,
            score=score,
            reclaimed=reclaimed,
            cost_bytes=cost,
            elapsed_s=elapsed,
            kind=kind,
        )
        with self._lock:
            if kind == "checkpoint":
                self._stats.checkpoints_run += 1
                self._stats.checkpoint_bytes_truncated += reclaimed
            else:
                self._stats.compactions_run += 1
                self._stats.bytes_reclaimed += reclaimed
            runs, reclaimed_total = self._stats.per_store.get(name, (0, 0))
            self._stats.per_store[name] = (runs + 1, reclaimed_total + reclaimed)
            self._stats.last_event = event
            delay = self.min_interval_s
            if self.max_bytes_per_s is not None:
                delay = max(delay, cost / self.max_bytes_per_s)
            self._next_allowed = self._clock() + delay
        return event

    def drain(self, max_rounds: int = 1000) -> int:
        """Compact until no candidate clears the thresholds (ignores limits).

        The synchronous settle used by shutdown hooks and benchmarks; each
        successful compaction drops its target's pressure, so this
        terminates.  Returns the number of compactions run.
        """
        rounds = 0
        while rounds < max_rounds and self.tick(force=True) is not None:
            rounds += 1
        return rounds

    def stats(self) -> CompactionStats:
        """A consistent snapshot of the counters."""
        with self._lock:
            snapshot = replace(self._stats)
            snapshot.per_store = dict(self._stats.per_store)
            return snapshot
