"""ProcessFleet: spawn, health-check, and tear down store worker processes.

The §7 deployment with real process isolation: N workers, each a child
process owning one member store (``root/store-NN`` — the same layout
:func:`~repro.store.distributed.sharded_store_fleet` builds in-process, so
a fleet's data can be reopened either way), each serving Envelopes on its
own Unix-domain socket.

Lifecycle contract:

* **startup** — all children are spawned first, then each is health-checked
  with a ``ping`` probe every 10 ms until it answers or its process exits
  (the error then names the worker and its exit code);
* **faults** — a dead or unreachable worker surfaces to callers as
  ``Fault("worker-unavailable", ...)`` from the transport layer; the
  manager adds :meth:`kill` (SIGKILL, for crash drills) and
  :meth:`restart` (respawn on the same store path, which recovers the
  log's committed prefix);
* **teardown** — :meth:`close` is idempotent, asks every live worker to
  shut down gracefully (escalating to terminate/kill on a deadline),
  joins the processes, removes the socket directory, and aggregates
  per-worker errors instead of stopping at the first.  An ``atexit`` hook
  does a last-resort terminate so a crashed test run cannot leave orphan
  workers behind (the children are daemonic on top of that).

Workers default to the ``spawn`` start method: a fork would duplicate the
parent's threads' locks (the bus, benchmarks and pytest all run threads),
and spawn keeps the child's interpreter state honest at the cost of ~1 s
startup each.
"""

from __future__ import annotations

import atexit
import multiprocessing
import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.fleet.remote import RemoteStore
from repro.fleet.worker import WorkerConfig, run_worker
from repro.soa.envelope import Fault
from repro.soa.transport import EnvelopeClient
from repro.soa.xmldoc import XmlElement

#: default ceiling on waiting for a spawned worker's first ``pong``.
HEALTH_TIMEOUT_S = 60.0
#: pause between readiness probes while a spawned worker starts up.
HEALTH_POLL_S = 0.01


class FleetError(RuntimeError):
    """A fleet lifecycle failure; ``failures`` lists (worker, error) pairs."""

    def __init__(self, message: str, failures: Optional[List[Tuple[str, BaseException]]] = None):
        super().__init__(message)
        self.failures = failures or []


class WorkerHandle:
    """One worker: its process, its config, and a client to its socket.

    The client outlives the *process*: a restart respawns the worker on
    the same socket path and hands the old handle's client to the fresh
    handle (``client=``), so a :class:`~repro.fleet.remote.RemoteStore`
    built before a crash keeps working after the supervisor's restart —
    the pool is invalidated, not closed.
    """

    def __init__(
        self,
        name: str,
        config: WorkerConfig,
        ctx,
        client: Optional[EnvelopeClient] = None,
    ) -> None:
        self.name = name
        self.config = config
        self._ctx = ctx
        self.process: Optional[multiprocessing.Process] = None
        self.client = client or EnvelopeClient(config.address, peer_name=name)

    def spawn(self) -> None:
        # Daemonic: if the parent dies without cleanup, the interpreter
        # reaps the workers instead of orphaning them (the CI guard).
        self.process = self._ctx.Process(
            target=run_worker,
            args=(self.config,),
            name=f"preserv-{self.name}",
            daemon=True,
        )
        self.process.start()

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def wait_healthy(self, timeout_s: float = HEALTH_TIMEOUT_S) -> None:
        """Block until the worker answers ``ping`` (or fail with its fate).

        Each poll is one ``ping`` attempt (the client's retry budget and
        backoff would only delay seeing a worker that is already serving);
        polls repeat every :data:`HEALTH_POLL_S` until the deadline.
        """
        deadline = time.monotonic() + timeout_s
        while True:
            if not self.alive:
                raise FleetError(
                    f"worker {self.name!r} exited during startup "
                    f"(exitcode={getattr(self.process, 'exitcode', None)})"
                )
            try:
                self.client.call(
                    source="fleet-manager",
                    target=self.config.endpoint,
                    operation="ping",
                    payload=XmlElement("ping"),
                    idempotent=False,
                )
                return
            except Fault as fault:
                if fault.code != "worker-unavailable":
                    raise
                if time.monotonic() >= deadline:
                    raise FleetError(
                        f"worker {self.name!r} did not become healthy "
                        f"within {timeout_s:.0f}s"
                    ) from fault
                time.sleep(HEALTH_POLL_S)

    def request_shutdown(self) -> None:
        """Graceful stop over the socket (the ack precedes the exit)."""
        self.client.call(
            source="fleet-manager",
            target=self.config.endpoint,
            operation="shutdown",
            payload=XmlElement("shutdown"),
        )

    def stop(self, timeout_s: float = 10.0) -> None:
        """Stop the worker: graceful, then terminate, then kill."""
        process = self.process
        if process is None:
            self.client.close()
            return
        if process.is_alive():
            try:
                self.request_shutdown()
            except Fault:
                pass  # already unreachable; escalate below
            process.join(timeout=timeout_s)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - last resort
                process.kill()
                process.join(timeout=5.0)
        self.client.close()

    def kill(self) -> None:
        """SIGKILL, no warning — the crash-drill entry point.

        Pooled connections now point at a corpse, so they are evicted;
        the client itself stays open because a supervisor restart brings
        the same socket path back and existing proxies must keep working.
        """
        if self.process is not None and self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=10.0)
        self.client.invalidate()


class ProcessFleet:
    """N out-of-process store workers behind one manager.

    ``stores()`` hands back :class:`~repro.fleet.remote.RemoteStore`
    proxies ready to drop into a ``StoreRouter`` — see
    ``sharded_store_fleet(transport="process")`` for the packaged form.
    """

    def __init__(
        self,
        root: "Path | str",
        members: int = 2,
        sync: bool = True,
        auto_compact: bool = False,
        commit_barrier_s: float = 0.0,
        backend: str = "kvlog",
        start_method: str = "spawn",
        health_timeout_s: float = HEALTH_TIMEOUT_S,
        socket_dir: Optional[str] = None,
        fault_rules: Optional[Dict[str, tuple]] = None,
    ):
        if members < 1:
            raise ValueError("fleet needs at least one member store")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        existing = sorted(
            p.name for p in self.root.glob("store-*") if p.name[6:].isdigit()
        )
        if existing and len(existing) != members:
            raise ValueError(
                f"{self.root} holds {len(existing)} member stores but "
                f"members={members}; reopen with members={len(existing)} "
                f"(rerouting keys across a different member count would "
                f"strand existing records)"
            )
        # Reopen under the recorded names (a decommissioned fleet has
        # gaps in its store-NN numbering); fresh roots get 00..N-1.
        names = existing or [f"store-{i:02d}" for i in range(members)]
        # Unix sockets live in their own short /tmp directory: AF_UNIX
        # paths cap at ~107 bytes, which deep store roots (pytest tmp
        # paths) routinely exceed.
        if socket_dir is None:
            self._socket_dir: Optional[str] = tempfile.mkdtemp(
                prefix="preserv-fleet-"
            )
            self._owns_socket_dir = True
        else:
            self._socket_dir = str(socket_dir)
            self._owns_socket_dir = False
        self._ctx = multiprocessing.get_context(start_method)
        self._handles: Dict[str, WorkerHandle] = {}
        self._closed = False
        # Config template for workers added after startup (add_worker).
        self._sync = sync
        self._auto_compact = auto_compact
        self._commit_barrier_s = commit_barrier_s
        self._backend = backend
        self._health_timeout_s = health_timeout_s
        self._fault_rules = dict(fault_rules or {})
        for name in names:
            self._handles[name] = WorkerHandle(
                name, self._worker_config(name), self._ctx
            )
        atexit.register(self._atexit_cleanup)
        try:
            # Spawn everyone first (startup cost paid once, in parallel),
            # then health-check; a worker that died on arrival fails fast.
            for handle in self._handles.values():
                handle.spawn()
            for handle in self._handles.values():
                handle.wait_healthy(health_timeout_s)
        except BaseException:
            self.close(raise_errors=False)
            raise

    def _worker_config(self, name: str) -> WorkerConfig:
        return WorkerConfig(
            endpoint=name,
            address=("unix", f"{self._socket_dir}/{name}.sock"),
            backend=self._backend,
            path=(
                str(self.root / name) if self._backend != "memory" else None
            ),
            sync=self._sync,
            auto_compact=self._auto_compact,
            commit_barrier_s=self._commit_barrier_s,
            # Scripted crash-sim faults for this worker; the rules
            # travel in the picklable config and the child rebuilds
            # its FaultPlan (see repro.fleet.faults).
            fault_rules=tuple(self._fault_rules.get(name, ())),
        )

    # -- access ----------------------------------------------------------------
    @property
    def worker_names(self) -> List[str]:
        return sorted(self._handles)

    def handle(self, name: str) -> WorkerHandle:
        try:
            return self._handles[name]
        except KeyError:
            raise KeyError(f"unknown worker {name!r}") from None

    def store(self, name: str) -> RemoteStore:
        handle = self.handle(name)
        return RemoteStore(
            handle.client,
            endpoint=handle.config.endpoint,
            name=name,
            on_close=lambda: self.stop_worker(name),
        )

    def stores(self) -> Dict[str, RemoteStore]:
        """Router-ready proxies: ``StoreRouter(fleet.stores())``."""
        return {name: self.store(name) for name in self.worker_names}

    # -- lifecycle --------------------------------------------------------------
    def stop_worker(self, name: str) -> None:
        """Gracefully stop one worker (idempotent)."""
        self.handle(name).stop()

    def kill(self, name: str) -> None:
        """SIGKILL one worker — the crash-sim entry point."""
        self.handle(name).kill()

    def restart(self, name: str, health_timeout_s: float = HEALTH_TIMEOUT_S) -> None:
        """Respawn a stopped/dead worker on its store path.

        The new process replays the log's committed prefix on open — the
        recovery half of the crash drill.
        """
        handle = self.handle(name)
        if handle.alive:
            raise FleetError(f"worker {name!r} is still running")
        sock_path = Path(handle.config.address[1])
        if sock_path.exists():
            sock_path.unlink()  # a killed worker leaves its socket file
        # Same socket path, same client: proxies built before the crash
        # keep working (their pooled sockets were evicted by kill()).  A
        # worker stopped gracefully closed its client, so it gets a new one.
        client = None if handle.client.closed else handle.client
        if client is not None:
            client.invalidate()
        fresh = WorkerHandle(name, handle.config, self._ctx, client=client)
        self._handles[name] = fresh
        fresh.spawn()
        fresh.wait_healthy(health_timeout_s)

    def add_worker(self, name: Optional[str] = None) -> str:
        """Spawn one extra worker on a fresh store path.

        The default name is the next free ``store-NN`` slot (checking both
        live handles and on-disk directories, so a retired member's slot
        is not silently reused over its renamed data).  The worker shares
        the fleet's config template and is health-checked before the call
        returns — the caller gets a ready socket, not a race.
        """
        if self._closed:
            raise FleetError("fleet is closed")
        if name is None:
            i = 0
            while (
                f"store-{i:02d}" in self._handles
                or (self.root / f"store-{i:02d}").exists()
            ):
                i += 1
            name = f"store-{i:02d}"
        elif name in self._handles:
            raise FleetError(f"worker {name!r} already exists")
        handle = WorkerHandle(name, self._worker_config(name), self._ctx)
        self._handles[name] = handle
        try:
            handle.spawn()
            handle.wait_healthy(self._health_timeout_s)
        except BaseException:
            del self._handles[name]
            try:
                handle.stop(timeout_s=2.0)
            except BaseException:  # pragma: no cover - best-effort cleanup
                pass
            raise
        return name

    def decommission(self, name: str) -> None:
        """Stop one worker for good and drop it from the fleet.

        The member store is left on disk (the router's retirement hook
        renames it ``retired-<name>``); only the process, its socket file
        and the handle go away.  Decommissioning the last member is
        refused — an empty fleet can serve nothing.
        """
        handle = self.handle(name)
        if len(self._handles) == 1:
            raise FleetError("cannot decommission the last fleet member")
        handle.stop()
        del self._handles[name]
        sock_path = Path(handle.config.address[1])
        if sock_path.exists():
            sock_path.unlink()

    def close(self, raise_errors: bool = True) -> None:
        """Stop every worker and remove the socket directory.

        Idempotent.  Every worker is attempted regardless of earlier
        failures; with ``raise_errors`` the collected failures surface as
        one :class:`FleetError` naming each worker.
        """
        if self._closed:
            return
        self._closed = True
        atexit.unregister(self._atexit_cleanup)
        failures: List[Tuple[str, BaseException]] = []
        for name in self.worker_names:
            try:
                self._handles[name].stop()
            except BaseException as exc:
                failures.append((name, exc))
        if self._owns_socket_dir and self._socket_dir is not None:
            shutil.rmtree(self._socket_dir, ignore_errors=True)
        if failures and raise_errors:
            detail = "; ".join(
                f"{name}: {type(exc).__name__}: {exc}" for name, exc in failures
            )
            raise FleetError(
                f"{len(failures)} worker(s) failed to stop cleanly: {detail}",
                failures,
            )

    def _atexit_cleanup(self) -> None:  # pragma: no cover - crash path
        for handle in self._handles.values():
            process = handle.process
            if process is not None and process.is_alive():
                process.terminate()
        if self._owns_socket_dir and self._socket_dir is not None:
            shutil.rmtree(self._socket_dir, ignore_errors=True)

    def __enter__(self) -> "ProcessFleet":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close(raise_errors=exc[0] is None)


__all__ = ["FleetError", "HEALTH_TIMEOUT_S", "ProcessFleet", "WorkerHandle"]
