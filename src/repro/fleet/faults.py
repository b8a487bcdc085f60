"""Deterministic fault injection for the fleet and its transport.

Crash-sim tests used to be sleep races: start a stream, wait "about long
enough", SIGKILL, hope the kill landed inside the window under test.  A
:class:`FaultPlan` replaces the hope with a script: every instrumented
code path — a worker's group commit, the server's frame loop, the
client's dial — is a **named fault point** that asks the plan whether a
fault fires *this* pass.  Rules count passes, so "die on the 3rd commit"
or "sever the connection after 2 frames" is exact and repeatable; there
is no randomness anywhere in the layer (a seeded scenario is just a list
of rules), so every failure window becomes a deterministic test.

Fault points currently instrumented:

=================  ==========================================================
point              where it fires
=================  ==========================================================
``worker-start``   worker process entry, before the backend opens (hit
                   counts are per process, so a ``die`` here crashes every
                   restart — the flap-cap scenario)
``commit``         worker backend, *before* a ``put``/``put_many`` persists
``committed``      worker backend, *after* persisting, before the ack is
                   built (the durable-but-unacked window)
``server-recv``    envelope server, after a request frame arrived, before
                   dispatch
``server-send``    envelope server, before the reply frame is written
``client-connect`` envelope client, before dialing a new connection
``client-send``    envelope client, before writing a request frame
=================  ==========================================================

Actions:

``die``
    ``os._exit(FAULT_EXIT_CODE)`` — the crash-sim primitive.  In a fleet
    worker this is indistinguishable from a SIGKILL landing exactly at
    the named point.
``drop``
    Transport points sever the connection (server: close it; client:
    refuse the dial/send as ``worker-unavailable``).  Non-transport
    points treat it like ``fault``.
``delay``
    Sleep ``delay_s`` at the point (scheduling windows, timeout tests).
``corrupt``
    ``server-send`` flips a byte in the reply frame's payload; other
    points treat it like ``fault``.
``fault``
    Raise :class:`FaultInjected` at the point (an in-process error
    injection that needs no child process).

Plans travel into worker processes as the picklable rule tuple on
:class:`~repro.fleet.worker.WorkerConfig` — the child rebuilds the plan,
so a ``spawn``-context worker can be scripted from the parent.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: exit status of a ``die`` action — distinct from SIGKILL's 137 so a test
#: can tell a scripted crash from a stray kill.
FAULT_EXIT_CODE = 70

#: the actions a rule may name.
ACTIONS = ("die", "drop", "delay", "corrupt", "fault")


class FaultInjected(RuntimeError):
    """An error injected by a :class:`FaultPlan` ``fault`` action."""


@dataclass(frozen=True)
class FaultRule:
    """One scripted fault: fire ``action`` at ``point``.

    The rule fires on passes ``after < n <= after + count`` through the
    point (1-based), i.e. ``after=2, count=1`` fires on exactly the third
    pass.  ``count=-1`` fires on every pass past ``after`` — the shape a
    flap-cap test needs (a worker that dies on *every* restart).
    """

    point: str
    action: str
    after: int = 0
    count: int = 1
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; use one of {ACTIONS}"
            )
        if self.after < 0:
            raise ValueError("after must be >= 0")
        if self.count < -1 or self.count == 0:
            raise ValueError("count must be -1 (unbounded) or >= 1")

    def fires_on(self, hit: int) -> bool:
        """Whether the rule fires on the ``hit``-th (1-based) pass."""
        if hit <= self.after:
            return False
        return self.count == -1 or hit <= self.after + self.count


class FaultPlan:
    """A thread-safe, deterministic schedule of faults over named points.

    ``check(point)`` counts the pass and returns the first matching rule
    that fires (or None); ``fire(point)`` additionally *applies* the
    generic actions (``die``/``delay``/``fault``) so non-transport call
    sites need one line.  Transport call sites use ``check`` and
    interpret ``drop``/``corrupt`` themselves — severing a connection or
    flipping a frame byte is their business, not the plan's.

    Every firing is appended to :attr:`log` as ``(point, action, hit)``,
    so a test can assert the scenario actually executed as scripted.
    """

    def __init__(self, rules: Sequence[FaultRule] = ()):
        self.rules: Tuple[FaultRule, ...] = tuple(rules)
        self._hits: Dict[str, int] = {}
        self._lock = threading.Lock()
        self.log: List[Tuple[str, str, int]] = []

    def hits(self, point: str) -> int:
        """How many times ``point`` has been passed so far."""
        with self._lock:
            return self._hits.get(point, 0)

    def check(self, point: str) -> Optional[FaultRule]:
        """Count one pass through ``point``; the firing rule, if any."""
        with self._lock:
            hit = self._hits.get(point, 0) + 1
            self._hits[point] = hit
            for rule in self.rules:
                if rule.point == point and rule.fires_on(hit):
                    self.log.append((point, rule.action, hit))
                    return rule
        return None

    def fire(self, point: str) -> None:
        """``check`` + apply generic actions; the one-line call site form.

        ``drop``/``corrupt`` degrade to ``fault`` here — a non-transport
        point has no connection to sever or frame to flip, and silently
        ignoring a scripted fault would make the scenario lie.
        """
        rule = self.check(point)
        if rule is None:
            return
        apply_rule(rule, point)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan(rules={list(self.rules)!r}, log={self.log!r})"


def apply_rule(rule: FaultRule, point: str) -> None:
    """Apply a fired rule's generic action at ``point``."""
    if rule.action == "delay":
        time.sleep(rule.delay_s)
        return
    if rule.action == "die":
        # The crash-sim primitive: no atexit hooks, no flushes, no
        # goodbyes — exactly what SIGKILL at this instruction would do.
        os._exit(FAULT_EXIT_CODE)
    raise FaultInjected(f"scripted {rule.action!r} fault at point {point!r}")


def attach_fault_points(backend: object, plan: FaultPlan) -> None:
    """Instrument ``backend``'s write path with commit-window fault points.

    Wraps ``put_many``, the one write path (``put`` is a batch of one),
    so every group commit passes ``commit`` (before anything persists — a
    ``die`` here loses the whole batch, which is correct because it was
    never acked) and ``committed`` (after persistence, before the ack can
    be built — a ``die`` here leaves the batch durable though the writer
    never heard back; recovery must keep it).  Composes with
    :func:`~repro.fleet.worker.attach_commit_barrier` — whichever wraps
    last runs first.
    """
    real_put_many = backend.put_many

    def put_many(assertions):  # noqa: ANN001 - mirrors the interface signature
        plan.fire("commit")
        result = real_put_many(assertions)
        plan.fire("committed")
        return result

    backend.put_many = put_many  # type: ignore[method-assign]


__all__ = [
    "ACTIONS",
    "FAULT_EXIT_CODE",
    "FaultInjected",
    "FaultPlan",
    "FaultRule",
    "apply_rule",
    "attach_fault_points",
]
