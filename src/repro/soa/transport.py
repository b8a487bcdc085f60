"""Envelope transport over real sockets: the out-of-process bus.

The in-process :class:`~repro.soa.bus.MessageBus` plays the testbed network
for a single Python process.  This module speaks the *same*
:class:`~repro.soa.envelope.Envelope` request/reply protocol over a
Unix-domain or TCP socket, so an actor can be hosted in another process (a
:mod:`repro.fleet` worker) and its clients cannot tell the difference:

* :class:`EnvelopeServer` hosts one :class:`~repro.soa.actor.Actor` behind a
  listening socket — one accept thread, one thread per connection, clean
  drain-on-shutdown;
* :class:`EnvelopeClient` is the caller half, exposing the **same ``call``
  signature as** :meth:`repro.soa.bus.MessageBus.call` — typed clients like
  :class:`~repro.core.client.ProvenanceRecordClient` and
  :class:`~repro.core.client.ProvenanceQueryClient` run unmodified over
  either transport;
* :class:`RemoteEndpoint` is an actor-shaped proxy: registering it on a
  ``MessageBus`` makes a socket-served actor reachable at a bus endpoint,
  so interceptors, latency models and the rest of the in-process SOA keep
  working while the real work happens in another process.

Wire format — length-prefixed frames::

    +-------+----------+------------------------------+
    | magic | length   | payload                      |
    | PRE1  | u32 (BE) | UTF-8 serialized <envelope>  |
    +-------+----------+------------------------------+

One frame carries one envelope; a request's reply reuses its message id
with a ``-r`` suffix (exactly the in-process bus's convention) plus a
``status`` header (``ok`` | ``fault``) so service faults are transported
as data, not connection state.  A frame with a bad magic, an oversized
length, or an unparsable envelope is *rejected*: the server closes the
connection (it cannot trust the stream's framing any more) and every
other connection keeps working.
"""

from __future__ import annotations

import itertools
import socket
import struct
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.soa.actor import Actor
from repro.soa.envelope import Envelope, Fault
from repro.soa.xmldoc import XmlElement

#: frame header: 4-byte magic + unsigned 32-bit big-endian payload length.
FRAME_MAGIC = b"PRE1"
_HEADER = struct.Struct(">4sI")
#: refuse frames above this size — a correct peer never sends one, and a
#: garbage length prefix must not make the server try to buffer gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: how often a serving connection wakes up to notice a shutdown request.
POLL_INTERVAL_S = 0.2
#: once a frame has started arriving, how long the rest may take.
MID_FRAME_TIMEOUT_S = 30.0

#: data-path default: a group commit against a slow device may take a while.
DEFAULT_TIMEOUT_S = 120.0
#: health/admin default: probes and failover decisions must be *fast* — a
#: supervisor waiting the data-path 120 s to learn a worker is dead would
#: turn every failover into a two-minute outage.
ADMIN_TIMEOUT_S = 2.0
#: operations that are safe to retry after any transport failure: a
#: re-executed ping/query/admin changes no store state, a shutdown
#: re-requested is a no-op, and the resync stream (``replicate``) skips
#: duplicates by design — so at-least-once delivery is harmless.
IDEMPOTENT_OPERATIONS = frozenset(
    {"ping", "query", "admin", "shutdown", "replicate"}
)

#: ("unix", path) or ("tcp", host, port).
Address = Union[Tuple[str, str], Tuple[str, str, int]]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry-with-backoff for idempotent operations.

    ``attempts`` is the *total* number of tries; delays between try ``k``
    and ``k+1`` grow geometrically from ``backoff_s`` and are capped at
    ``max_backoff_s``.  The policy exists so a transient worker restart
    (sub-second under the supervisor) is invisible to idempotent callers,
    while a genuinely dead worker still surfaces quickly — with the final
    underlying failure, not a retry-layer abstraction, in the fault.
    """

    attempts: int = 3
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    max_backoff_s: float = 1.0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")

    def delay_before(self, attempt: int) -> float:
        """Sleep before attempt ``attempt`` (2-based; no delay before 1)."""
        exponent = max(0, attempt - 2)
        return min(
            self.backoff_s * (self.backoff_factor ** exponent),
            self.max_backoff_s,
        )


#: retry nothing: one attempt whatever the operation.
NO_RETRY = RetryPolicy(attempts=1)


class TransportError(Exception):
    """A framing/protocol violation on the socket transport."""


class ConnectionClosed(TransportError):
    """The peer closed the connection (cleanly or mid-frame)."""


# -- addresses ----------------------------------------------------------------

def listen_on(address: Address, backlog: int = 32) -> socket.socket:
    """Bind + listen on ``("unix", path)`` or ``("tcp", host, port)``."""
    kind = address[0]
    if kind == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.bind(address[1])
    elif kind == "tcp":
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((address[1], address[2]))
    else:
        raise ValueError(f"unknown address kind {kind!r}")
    sock.listen(backlog)
    return sock


def connect_to(address: Address, timeout: Optional[float] = None) -> socket.socket:
    """Dial ``address``; raises ``OSError`` while nothing is listening."""
    kind = address[0]
    if kind == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        sock.connect(address[1])
    elif kind == "tcp":
        sock = socket.create_connection((address[1], address[2]), timeout=timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    else:
        raise ValueError(f"unknown address kind {kind!r}")
    return sock


# -- framing ------------------------------------------------------------------

def send_frame(sock: socket.socket, payload: bytes) -> None:
    """Write one length-prefixed frame (a single ``sendall``)."""
    if len(payload) > MAX_FRAME_BYTES:
        raise TransportError(
            f"refusing to send a {len(payload)}-byte frame "
            f"(max {MAX_FRAME_BYTES})"
        )
    sock.sendall(_HEADER.pack(FRAME_MAGIC, len(payload)) + payload)


def _recv_exact(sock: socket.socket, n: int, head: bytes = b"") -> bytes:
    """Read exactly ``n`` bytes (``head`` counts toward them).

    Raises :class:`ConnectionClosed` on EOF — callers that care whether the
    close was clean check how many bytes had arrived.
    """
    buf = bytearray(head)
    while len(buf) < n:
        chunk = sock.recv(min(65536, n - len(buf)))
        if not chunk:
            raise ConnectionClosed(
                f"peer closed with {len(buf)}/{n} bytes of a frame read"
            )
        buf += chunk
    return bytes(buf)


def recv_frame(sock: socket.socket, head: bytes = b"") -> bytes:
    """Read one frame; ``head`` is any header prefix already consumed.

    Raises :class:`ConnectionClosed` if the peer closed before a full
    frame arrived, :class:`TransportError` on a malformed header.
    """
    header = _recv_exact(sock, _HEADER.size, head)
    magic, length = _HEADER.unpack(header)
    if magic != FRAME_MAGIC:
        raise TransportError(f"bad frame magic {magic!r}")
    if length > MAX_FRAME_BYTES:
        raise TransportError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    return _recv_exact(sock, length)


def send_envelope(sock: socket.socket, envelope: Envelope) -> None:
    send_frame(sock, envelope.serialize().encode("utf-8"))


def recv_envelope(sock: socket.socket) -> Envelope:
    return Envelope.deserialize(recv_frame(sock).decode("utf-8"))


# -- server -------------------------------------------------------------------

class EnvelopeServer:
    """Host one actor behind a listening socket (the worker-side half).

    One daemon thread accepts connections; each connection gets its own
    request thread reading frames and replying in order.  Dispatch into the
    actor is serialized: the backends' write paths are single-threaded by
    contract, and the in-process bus drives them serially too —
    cross-request parallelism is the :mod:`repro.fleet` *process* axis, not
    threads inside one worker.

    :meth:`stop` drains: it stops accepting, lets every in-flight request
    finish and its reply flush, then closes the connections.
    """

    def __init__(
        self,
        actor: Actor,
        address: Address,
        poll_interval_s: float = POLL_INTERVAL_S,
        fault_plan: Optional[object] = None,
    ):
        self.actor = actor
        self._requested_address = address
        self._poll_interval_s = poll_interval_s
        #: a :class:`~repro.fleet.faults.FaultPlan` (duck-typed: anything
        #: with ``check(point)``) scripting deterministic failures at the
        #: ``server-recv``/``server-send`` fault points; None in production.
        self.fault_plan = fault_plan
        self._dispatch_lock = threading.Lock()
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._connections: Dict[threading.Thread, socket.socket] = {}
        self._conn_lock = threading.Lock()
        self._stopping = threading.Event()
        self._started = False
        self.address: Optional[Address] = None
        self.requests_served = 0
        self.frames_rejected = 0

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> Address:
        """Bind, listen, start accepting; returns the resolved address
        (a TCP port 0 comes back as the actual bound port)."""
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        self._listener = listen_on(self._requested_address)
        if self._requested_address[0] == "tcp":
            host, port = self._listener.getsockname()[:2]
            self.address = ("tcp", host, port)
        else:
            self.address = self._requested_address
        self._listener.settimeout(self._poll_interval_s)
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name=f"envelope-server-{self.actor.endpoint}",
            daemon=True,
        )
        self._accept_thread.start()
        return self.address

    def stop(self, drain_s: float = 5.0) -> None:
        """Stop accepting, drain in-flight requests, close connections."""
        if not self._started:
            return
        self._stopping.set()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=drain_s + 1.0)
        if self._listener is not None:
            self._listener.close()
        with self._conn_lock:
            threads = list(self._connections)
        deadline = drain_s
        for thread in threads:
            # Connection threads notice _stopping at their next poll tick
            # (at most poll_interval_s away) once their current request —
            # reply included — has finished.
            thread.join(timeout=max(0.1, deadline))
        with self._conn_lock:
            leftovers = list(self._connections.items())
        for thread, sock in leftovers:
            # A straggler is stuck inside a request or mid-frame: cut the
            # socket out from under it so the thread unblocks and exits.
            try:
                sock.close()
            except OSError:  # pragma: no cover - already gone
                pass
            thread.join(timeout=1.0)

    # -- accept / serve ------------------------------------------------------
    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stopping.is_set():
            try:
                sock, _peer = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed underneath us
            if self._requested_address[0] == "tcp":
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            thread = threading.Thread(
                target=self._serve_connection,
                args=(sock,),
                name=f"envelope-conn-{self.actor.endpoint}",
                daemon=True,
            )
            with self._conn_lock:
                self._connections[thread] = sock
            thread.start()

    def _serve_connection(self, sock: socket.socket) -> None:
        try:
            while not self._stopping.is_set():
                sock.settimeout(self._poll_interval_s)
                try:
                    head = sock.recv(1)
                except socket.timeout:
                    continue
                except OSError:
                    return
                if not head:
                    return  # client closed cleanly between frames
                # A frame has started: give the rest of it a real deadline.
                sock.settimeout(MID_FRAME_TIMEOUT_S)
                try:
                    frame = recv_frame(sock, head=head)
                    if self._fire_fault("server-recv"):
                        return  # scripted drop: sever this connection
                    reply = self._handle_frame(frame)
                except (TransportError, socket.timeout, ValueError, KeyError):
                    # Malformed frame or unparsable envelope: the stream's
                    # framing can no longer be trusted — reject by closing.
                    self.frames_rejected += 1
                    return
                rule = (
                    self.fault_plan.check("server-send")
                    if self.fault_plan is not None
                    else None
                )
                if rule is not None:
                    if rule.action == "drop":
                        return  # reply scripted to never arrive
                    if rule.action == "corrupt":
                        # Flip one payload byte: the client must reject the
                        # reply (parse/correlation failure), not trust it.
                        reply = reply[:-1] + bytes([reply[-1] ^ 0xFF])
                    else:
                        from repro.fleet.faults import apply_rule

                        apply_rule(rule, "server-send")
                try:
                    send_frame(sock, reply)
                except OSError:
                    return  # client went away before the reply landed
        finally:
            try:
                sock.close()
            except OSError:  # pragma: no cover - already closed
                pass
            with self._conn_lock:
                self._connections.pop(threading.current_thread(), None)

    def _fire_fault(self, point: str) -> bool:
        """Consult the fault plan at ``point``; True = sever the connection.

        ``die`` and ``delay`` are applied in place; ``drop``/``fault``
        (and ``corrupt``, which has no meaning before a reply exists)
        sever the offending connection — precisely the blast radius a
        malformed frame gets.
        """
        if self.fault_plan is None:
            return False
        rule = self.fault_plan.check(point)
        if rule is None:
            return False
        if rule.action in ("drop", "corrupt", "fault"):
            return True
        from repro.fleet.faults import apply_rule

        apply_rule(rule, point)  # die exits the process; delay sleeps
        return False

    def _handle_frame(self, frame: bytes) -> bytes:
        """One request → one serialized reply envelope (never raises)."""
        request = Envelope.deserialize(frame.decode("utf-8"))
        request.validate()
        operation = request.operation
        ok = True
        if request.target != self.actor.endpoint:
            ok = False
            body: XmlElement = Fault(
                "no-such-endpoint",
                f"this worker hosts {self.actor.endpoint!r}, "
                f"not {request.target!r}",
            ).to_xml()
        else:
            try:
                with self._dispatch_lock:
                    body = self.actor.handle(operation, request.body)
                if not isinstance(body, XmlElement):
                    raise Fault(
                        "internal-error",
                        f"operation {operation!r} returned "
                        f"{type(body).__name__}, expected XmlElement",
                    )
            except Fault as fault:
                ok = False
                body = fault.to_xml()
            except Exception as exc:
                # An unexpected service-side error must come back as a
                # fault envelope, exactly like a declared Fault would.
                ok = False
                body = Fault(
                    "internal-error", f"{type(exc).__name__}: {exc}"
                ).to_xml()
        self.requests_served += 1
        response = Envelope(
            headers={
                "source": self.actor.endpoint,
                "target": request.source,
                "operation": f"{operation}-response",
                "message-id": f"{request.message_id}-r",
                "status": "ok" if ok else "fault",
            },
            body=body,
        )
        return response.serialize().encode("utf-8")


# -- client -------------------------------------------------------------------

class _SendFailed(Exception):
    """Internal marker: the request frame never (fully) reached the wire.

    ``pooled`` records whether the socket came from the idle pool — the
    stale-connection signature a worker restart leaves behind.
    """

    def __init__(self, cause: BaseException, pooled: bool):
        super().__init__(str(cause))
        self.cause = cause
        self.pooled = pooled


class _ExchangeFailed(Exception):
    """Internal marker: the request may have been dispatched server-side."""

    def __init__(self, cause: BaseException):
        super().__init__(str(cause))
        self.cause = cause


class EnvelopeClient:
    """The caller half: ``call()`` has the in-process bus's signature.

    Thread-safe via a small connection pool — concurrent callers each get
    their own connection (the server runs one request thread per
    connection), and idle connections are reused.  Any transport failure —
    refused connection, reset, EOF mid-reply, protocol violation — is
    raised as ``Fault("worker-unavailable", ...)`` whose detail payload
    names the worker, its address, and how many attempts were made: to the
    layers above, a dead worker looks like a faulting service, not a
    socket error, and the operator can tell *which* member failed.

    Three robustness policies, all bounded and deterministic:

    * **per-operation deadlines** — ``ping``/``admin`` default to
      :data:`ADMIN_TIMEOUT_S` (~2 s) instead of the 120 s data-path
      timeout, so health probes and failover decisions are fast; any call
      may pass an explicit ``timeout_s``;
    * **stale-pool eviction** — a pooled socket a worker restart broke
      fails at *send* time; since the request never reached the new
      worker, the client discards the socket and transparently redials
      once, whatever the operation — the first call after a restart
      succeeds instead of surfacing ``worker-unavailable``;
    * **idempotent retry** — operations in :data:`IDEMPOTENT_OPERATIONS`
      (``ping``/``query``/``admin``/``shutdown``) are additionally retried
      under :class:`RetryPolicy` with exponential backoff, because
      re-executing them changes no store state.  Non-idempotent operations
      (``record``) are *never* retried past the send phase: the batch may
      have committed, and replaying it would duplicate data.  When the
      budget is exhausted the *final underlying* failure propagates in the
      fault's reason/cause.
    """

    def __init__(
        self,
        address: Address,
        timeout_s: Optional[float] = DEFAULT_TIMEOUT_S,
        max_pool: int = 8,
        peer_name: Optional[str] = None,
        retry: RetryPolicy = RetryPolicy(),
        admin_timeout_s: float = ADMIN_TIMEOUT_S,
        fault_plan: Optional[object] = None,
    ):
        self.address = address
        self.timeout_s = timeout_s
        self.max_pool = max_pool
        #: which worker this client dials, for fault detail payloads.
        self.peer_name = peer_name
        self.retry = retry
        #: per-operation deadline overrides; health/admin ops probe fast.
        self.op_timeouts: Dict[str, float] = {
            "ping": admin_timeout_s,
            "admin": admin_timeout_s,
        }
        self.fault_plan = fault_plan
        self._free: List[socket.socket] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._closed = False
        self.calls = 0
        self.reconnects = 0
        self.retries = 0

    # -- pool ----------------------------------------------------------------
    def _acquire(self, timeout_s: Optional[float]) -> Tuple[socket.socket, bool]:
        """A connection plus whether it was reused from the idle pool."""
        with self._lock:
            if self._closed:
                raise Fault(
                    "worker-unavailable",
                    "client is closed",
                    detail=self._fault_detail(1),
                )
            if self._free:
                sock = self._free.pop()
                sock.settimeout(timeout_s)
                return sock, True
        if self.fault_plan is not None:
            rule = self.fault_plan.check("client-connect")
            if rule is not None:
                if rule.action in ("drop", "fault", "corrupt"):
                    raise _SendFailed(
                        ConnectionRefusedError("scripted connect fault"),
                        pooled=False,
                    )
                from repro.fleet.faults import apply_rule

                apply_rule(rule, "client-connect")
        try:
            sock = connect_to(self.address, timeout=timeout_s)
        except OSError as exc:
            # Nothing listening (yet, or any more): the caller's retry
            # loop decides whether to back off or surface the fault.
            raise _ExchangeFailed(exc) from exc
        sock.settimeout(timeout_s)
        return sock, False

    def _release(self, sock: socket.socket) -> None:
        with self._lock:
            if not self._closed and len(self._free) < self.max_pool:
                self._free.append(sock)
                return
        sock.close()

    def invalidate(self) -> None:
        """Drop every idle pooled connection; the client stays usable.

        Called when the peer is known to have restarted (the pooled
        sockets all point at a dead process); the next call dials fresh.
        """
        with self._lock:
            free, self._free = self._free, []
        for sock in free:
            try:
                sock.close()
            except OSError:  # pragma: no cover - already closed
                pass

    def close(self) -> None:
        with self._lock:
            self._closed = True
            free, self._free = self._free, []
        for sock in free:
            try:
                sock.close()
            except OSError:  # pragma: no cover - already closed
                pass

    @property
    def closed(self) -> bool:
        return self._closed

    # -- invocation ----------------------------------------------------------
    def _fault_detail(self, attempts: int) -> Dict[str, str]:
        detail = {
            "address": str(self.address),
            "attempts": str(attempts),
        }
        if self.peer_name is not None:
            detail["worker"] = self.peer_name
        return detail

    def _exchange(
        self,
        source: str,
        target: str,
        operation: str,
        payload: XmlElement,
        extra_headers: Optional[Dict[str, str]],
        timeout_s: Optional[float],
    ) -> XmlElement:
        """One request/reply exchange; raises the internal markers."""
        message_id = f"{source}-{next(self._ids):08d}"
        headers = {
            "source": source,
            "target": target,
            "operation": operation,
            "message-id": message_id,
        }
        if extra_headers:
            headers.update(extra_headers)
        request = Envelope(headers=headers, body=payload)
        request.validate()
        frame = request.serialize().encode("utf-8")
        sock, pooled = self._acquire(timeout_s)
        sent = False
        try:
            if self.fault_plan is not None:
                rule = self.fault_plan.check("client-send")
                if rule is not None:
                    if rule.action in ("drop", "fault", "corrupt"):
                        raise BrokenPipeError("scripted send fault")
                    from repro.fleet.faults import apply_rule

                    apply_rule(rule, "client-send")
            send_frame(sock, frame)
            sent = True
            response = Envelope.deserialize(recv_frame(sock).decode("utf-8"))
            if response.headers.get("message-id") != f"{message_id}-r":
                raise TransportError(
                    f"reply correlation mismatch: sent {message_id!r}, "
                    f"got {response.headers.get('message-id')!r}"
                )
        except (OSError, TransportError, ValueError) as exc:
            sock.close()
            if not sent:
                # The server never saw a full frame (a partial send is
                # rejected by its framing layer, never dispatched), so
                # re-sending cannot double-execute anything.
                raise _SendFailed(exc, pooled=pooled) from exc
            raise _ExchangeFailed(exc) from exc
        with self._lock:
            self.calls += 1
        self._release(sock)
        if response.headers.get("status") == "fault":
            raise Fault.from_xml(response.body)
        return response.body

    def call(
        self,
        source: str,
        target: str,
        operation: str,
        payload: XmlElement,
        extra_headers: Optional[Dict[str, str]] = None,
        timeout_s: Optional[float] = None,
        idempotent: Optional[bool] = None,
    ) -> XmlElement:
        """Invoke ``operation`` on the remote actor; returns the reply body.

        Same contract as :meth:`repro.soa.bus.MessageBus.call`: a service
        fault is re-raised as :class:`~repro.soa.envelope.Fault`; transport
        failures become ``Fault("worker-unavailable", ...)`` after the
        retry budget (see the class docstring) is exhausted.  ``timeout_s``
        overrides the per-operation deadline; ``idempotent`` overrides the
        :data:`IDEMPOTENT_OPERATIONS` default for this call.
        """
        if idempotent is None:
            idempotent = operation in IDEMPOTENT_OPERATIONS
        effective_timeout = (
            timeout_s
            if timeout_s is not None
            else self.op_timeouts.get(operation, self.timeout_s)
        )
        budget = self.retry.attempts if idempotent else 1
        reconnect_budget = 1  # one free redial for a stale pooled socket
        attempt = 0
        attempts_made = 0
        last_cause: Optional[BaseException] = None
        while attempt < budget:
            attempt += 1
            attempts_made += 1
            try:
                return self._exchange(
                    source,
                    target,
                    operation,
                    payload,
                    extra_headers,
                    effective_timeout,
                )
            except _SendFailed as exc:
                last_cause = exc.cause
                if exc.pooled and reconnect_budget > 0:
                    # Stale pooled socket (the worker restarted under
                    # it): evict the rest of the pool too — they all
                    # point at the dead process — and redial once without
                    # spending the retry budget.
                    reconnect_budget -= 1
                    attempt -= 1
                    self.invalidate()
                    with self._lock:
                        self.reconnects += 1
                    continue
                if not idempotent:
                    # Unsent request: safe to retry even without
                    # idempotence, but only within the retry budget — and
                    # non-idempotent ops have a budget of one.
                    break
            except _ExchangeFailed as exc:
                last_cause = exc.cause
                if not idempotent:
                    break
            if attempt < budget:
                with self._lock:
                    self.retries += 1
                time.sleep(self.retry.delay_before(attempt + 1))
        target_desc = f"{target!r} at {self.address}"
        raise Fault(
            "worker-unavailable",
            f"{target_desc}: {type(last_cause).__name__}: {last_cause}",
            detail=self._fault_detail(attempts_made),
        ) from last_cause


class RemoteEndpoint(Actor):
    """An actor-shaped proxy for a socket-served actor.

    Register it on a :class:`~repro.soa.bus.MessageBus` under the remote
    actor's endpoint and every bus client — recorder, interceptors, typed
    query/record clients — works unchanged: the bus still charges its
    modelled latency and notifies interceptors, while ``handle`` forwards
    the operation over the socket and re-raises remote faults.
    """

    def __init__(
        self,
        client: EnvelopeClient,
        endpoint: str,
        description: str = "remote endpoint proxy",
        operations: Sequence[str] = ("record", "query"),
    ):
        super().__init__(endpoint, description=description)
        self._client = client
        self._remote_operations = tuple(operations)

    def operations(self) -> List[str]:
        return list(self._remote_operations)

    def handle(self, operation: str, payload: XmlElement) -> XmlElement:
        return self._client.call(
            source=f"{self.endpoint}-proxy",
            target=self.endpoint,
            operation=operation,
            payload=payload,
        )
