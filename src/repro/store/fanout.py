"""Scatter-gather fan-out for the distributed store layer.

One member at a time, an R-replica commit pays R socket round trips
(plus R modeled commit barriers) back to back, and an N-member federated
merge pays ~N×.  :class:`FanoutExecutor` is the shared engine that runs
every cross-member operation in :mod:`repro.store.distributed` as a
concurrent scatter-gather call while keeping the *aggregation*
deterministic — results come back in target order, so the router's
journaling, error fields and ack semantics do not depend on the pool's
width or on which leg finished first.

Two shapes:

* :meth:`FanoutExecutor.scatter` — run one callable per target on a
  bounded, lazily-started thread pool and collect per-target
  results/exceptions in the order the targets were given.
* :meth:`FanoutExecutor.hedged` — a staged race for tail-tolerant reads:
  launch the preferred target, fire the next candidate only if no answer
  arrives within ``hedge_after_s``, take the first success, abandon the
  losers.  Hedge legs run on dedicated threads (never the scatter pool),
  so a hedged read issued from *inside* a scatter task can never deadlock
  the pool against itself.

The executor is per-router: sized ``min(members, cap)``, started on first
use, closed with the router.  Width 1 is the serial baseline: the same
code on a one-thread pool, so the legs run one at a time in submission
order (the parity mode the byte-identical transport tests pin).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

T = TypeVar("T")

#: default per-router pool cap; the pool is sized ``min(members, cap)``.
DEFAULT_FANOUT_WORKERS = 8


class FanoutTimeout(RuntimeError):
    """A scatter leg missed the per-call deadline (the call itself may
    still complete in the background; its result is abandoned)."""


@dataclass
class FanoutResult:
    """One target's outcome: exactly one of ``value``/``error`` is set."""

    target: object
    value: object = None
    error: Optional[BaseException] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class HedgeOutcome:
    """What a :meth:`FanoutExecutor.hedged` race resolved to.

    ``winner`` is the index (into the candidate order) of the first
    success, or ``None`` when every launched candidate failed.
    ``errors`` maps candidate index -> the failure it reported (losers
    that were abandoned mid-flight are absent).  ``fatal`` carries the
    first non-retryable error, which ended the race.
    """

    winner: Optional[int] = None
    value: object = None
    errors: Dict[int, BaseException] = field(default_factory=dict)
    hedges_fired: int = 0
    fatal: Optional[BaseException] = None


@dataclass
class FanoutStats:
    """Counters the benches and drills assert on."""

    #: scatter/hedged calls issued through this executor.
    fanouts: int = 0
    #: hedge legs launched because the preferred target was slow.
    hedges_fired: int = 0
    #: hedged races won by a hedge leg (not the preferred target).
    hedge_wins: int = 0
    #: most calls ever in flight at once.
    peak_concurrency: int = 0


class FanoutExecutor:
    """A bounded scatter-gather engine over a lazily-started thread pool."""

    def __init__(self, max_workers: int, name: str = "fanout"):
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers
        self.stats = FanoutStats()
        self._name = name
        self._lock = threading.Lock()
        self._pool: Optional[ThreadPoolExecutor] = None
        self._inflight = 0
        self._closed = False

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._closed:
                raise RuntimeError(f"{self._name} executor is closed")
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix=self._name,
                )
            return self._pool

    def _call(self, target: object, fn: Callable[[object], T]) -> T:
        with self._lock:
            self._inflight += 1
            if self._inflight > self.stats.peak_concurrency:
                self.stats.peak_concurrency = self._inflight
        try:
            return fn(target)
        finally:
            with self._lock:
                self._inflight -= 1

    # -- scatter ---------------------------------------------------------------
    def scatter(
        self,
        targets: Sequence[object],
        fn: Callable[[object], object],
        deadline_s: Optional[float] = None,
    ) -> List[FanoutResult]:
        """Run ``fn(target)`` for every target; gather in *target order*.

        Each target's outcome (value or the exception it raised) lands in
        its own :class:`FanoutResult`, in exactly the order ``targets``
        were given — the property that lets a caller aggregate as if the
        legs had run one after another.  ``deadline_s`` bounds the whole
        gather: a leg that has not finished by then reports a
        :class:`FanoutTimeout` (the leg itself is abandoned, not
        interrupted).  A single target runs inline in the caller's thread.
        """
        targets = list(targets)
        with self._lock:
            self.stats.fanouts += 1
        if not targets:
            return []
        if len(targets) == 1:
            try:
                return [FanoutResult(targets[0], value=self._call(targets[0], fn))]
            except BaseException as exc:
                return [FanoutResult(targets[0], error=exc)]
        pool = self._ensure_pool()
        futures = [pool.submit(self._call, target, fn) for target in targets]
        deadline = None if deadline_s is None else time.monotonic() + deadline_s
        out: List[FanoutResult] = []
        for target, future in zip(targets, futures):
            try:
                if deadline is None:
                    value = future.result()
                else:
                    value = future.result(
                        timeout=max(0.0, deadline - time.monotonic())
                    )
            except FutureTimeoutError:
                future.cancel()
                out.append(
                    FanoutResult(
                        target,
                        error=FanoutTimeout(
                            f"fan-out to {target!r} missed the "
                            f"{deadline_s}s deadline"
                        ),
                    )
                )
                continue
            except BaseException as exc:
                out.append(FanoutResult(target, error=exc))
                continue
            out.append(FanoutResult(target, value=value))
        return out

    # -- hedging ---------------------------------------------------------------
    def hedged(
        self,
        targets: Sequence[object],
        fn: Callable[[object], object],
        hedge_after_s: float,
        retryable: Optional[Callable[[BaseException], bool]] = None,
    ) -> HedgeOutcome:
        """Race ``fn`` over ``targets`` in preference order, hedging the tail.

        The first candidate launches immediately; if it has not answered
        within ``hedge_after_s`` the next candidate launches too (and so
        on, one new leg per further timeout).  A candidate that fails
        with a *retryable* error triggers the next launch immediately —
        the classic failover, not a hedge.  The first success wins and
        every slower leg is abandoned; a non-retryable error ends the
        race at once (reported as ``fatal``).  Legs run on dedicated
        threads, never the scatter pool, so hedged reads issued from
        inside a scatter task cannot starve the pool.
        """
        targets = list(targets)
        if not targets:
            raise ValueError("hedged() needs at least one target")
        if retryable is None:
            retryable = lambda exc: True  # noqa: E731
        with self._lock:
            self.stats.fanouts += 1
        cond = threading.Condition()
        done: Dict[int, tuple] = {}  # index -> ("ok", value) | ("err", exc)
        state = {"winner": None, "fatal": None}

        def run(index: int, target: object) -> None:
            try:
                value = self._call(target, fn)
            except BaseException as exc:
                with cond:
                    done[index] = ("err", exc)
                    if state["fatal"] is None and not retryable(exc):
                        state["fatal"] = exc
                    cond.notify_all()
                return
            with cond:
                done[index] = ("ok", value)
                if state["winner"] is None:
                    state["winner"] = index
                cond.notify_all()

        launched = 0
        hedge_launched: set = set()

        def launch(as_hedge: bool) -> None:
            nonlocal launched
            index = launched
            launched += 1
            if as_hedge:
                hedge_launched.add(index)
                with self._lock:
                    self.stats.hedges_fired += 1
            thread = threading.Thread(
                target=run,
                args=(index, targets[index]),
                name=f"{self._name}-hedge-{index}",
                daemon=True,
            )
            thread.start()

        with cond:
            launch(as_hedge=False)
            while True:
                if state["winner"] is not None or state["fatal"] is not None:
                    break
                failures = sum(1 for v in done.values() if v[0] == "err")
                if failures == launched:
                    # every launched leg failed (retryably): fail over.
                    if launched < len(targets):
                        launch(as_hedge=False)
                        continue
                    break
                if launched < len(targets):
                    answered = cond.wait(timeout=hedge_after_s)
                    if answered:
                        continue  # re-evaluate: success, failure or fatal
                    launch(as_hedge=True)
                else:
                    cond.wait()
            winner = state["winner"]
            outcome = HedgeOutcome(
                winner=winner,
                value=done[winner][1] if winner is not None else None,
                errors={i: v[1] for i, v in done.items() if v[0] == "err"},
                hedges_fired=len(hedge_launched),
                fatal=state["fatal"],
            )
        if winner is not None and winner in hedge_launched:
            with self._lock:
                self.stats.hedge_wins += 1
        return outcome

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        """Shut the pool down (idempotent); in-flight legs are abandoned."""
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
