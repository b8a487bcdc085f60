"""The client half of a fleet member: a store interface over sockets.

:class:`RemoteStore` presents the
:class:`~repro.store.interface.ProvenanceStoreInterface` surface of a
worker-hosted store over an :class:`~repro.soa.transport.EnvelopeClient`
(which has the same ``call`` signature as the in-process bus, so the typed
port clients run unmodified): it *is* a
:class:`~repro.core.client.ProvenanceQueryClient` for the query port, whose
read methods are the store interface's, and writes through a
:class:`~repro.core.client.ProvenanceRecordClient` for the record port.

That makes a :class:`~repro.store.distributed.StoreRouter` and a
:class:`~repro.store.distributed.FederatedQueryClient` work over a process
fleet without changing a line: routing hashes keys locally, reads and
writes go through the same ``prep-*`` documents the in-process path uses —
which is also why results are byte-identical across transports — and the
federated client's generation-vector caching keys off
:attr:`RemoteStore.generation` (one ``admin`` round trip per member).

Not everything crosses the wire: :meth:`RemoteStore.all_assertions` (the
consolidation walk) raises — consolidation is an admin-side job run where
the logs live, not a streaming RPC.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.client import ProvenanceQueryClient, ProvenanceRecordClient
from repro.soa.transport import EnvelopeClient
from repro.soa.xmldoc import XmlElement
from repro.store.interface import Assertion


class RemoteStore(ProvenanceQueryClient):
    """Store-interface proxy for one socket-served fleet worker.

    Duck-typed rather than an ABC subclass: it implements the interface's
    *remote-meaningful* surface (writes, reads, counts, generations,
    close) and deliberately refuses the local-only parts.  The reads
    (``interaction_keys``, ``counts``, ...) are the query client's own.
    """

    def __init__(
        self,
        client: EnvelopeClient,
        endpoint: str = "preserv",
        name: Optional[str] = None,
        on_close: Optional[Callable[[], None]] = None,
    ):
        self.name = name or endpoint
        super().__init__(
            client,  # same call signature as the bus
            store_endpoint=endpoint,
            client_endpoint=f"{self.name}-reader",
        )
        self._records = ProvenanceRecordClient(
            client,
            store_endpoint=endpoint,
            client_endpoint=f"{self.name}-writer",
        )
        self._endpoint = endpoint
        self._on_close = on_close
        self._closed = False
        #: interface parity: no scheduler is attached client-side (the
        #: worker owns its compaction).
        self.maintenance = None

    # -- write path ----------------------------------------------------------
    def put(self, assertion: Assertion) -> None:
        self.put_many([assertion])

    def put_many(self, assertions: Iterable[Assertion]) -> int:
        """One ``prep-record`` message per batch of up to 64 (a batch of
        one goes out in the single-record form)."""
        return self._records.record_many(list(assertions))

    # -- read path -----------------------------------------------------------
    def all_assertions(self):
        raise NotImplementedError(
            f"all_assertions() does not cross the wire; run consolidation "
            f"against {self.name!r}'s log directory directly"
        )

    # -- cache freshness ------------------------------------------------------
    def _admin(self, op: str, **attrs: str) -> XmlElement:
        payload = XmlElement("admin", {"op": op, **attrs})
        return self.bus.call(
            source=f"{self.name}-admin",
            target=self._endpoint,
            operation="admin",
            payload=payload,
        )

    @property
    def generation(self) -> int:
        """The worker store's write generation (one admin round trip)."""
        return int(self._admin("generation").attrs["generation"])

    def sequence_watermark(self) -> int:
        """The worker log's next sequence number (the resync cursor)."""
        return int(self._admin("watermark").attrs["watermark"])

    def scan_suffix(
        self, after: int = 0, limit: int = 1024
    ) -> List[Tuple[int, str]]:
        """Up to ``limit`` ``(sequence, assertion_xml)`` records of the
        worker's log with sequence >= ``after``, in global insertion order.

        Completes :class:`~repro.store.interface.ResyncCapable` for the
        proxy, so a RemoteStore can itself seed a migration or a peer's
        resync.  One ``replicate pull`` round trip.
        """
        page = self._replicate(
            XmlElement(
                "replicate",
                {"mode": "pull", "after": str(after), "limit": str(limit)},
            )
        )
        entries: List[Tuple[int, str]] = []
        for entry in page.find_all("entry"):
            inner = next(entry.iter_elements(), None)
            if inner is not None:
                entries.append((int(entry.attrs["seq"]), inner.serialize()))
        return entries

    def checkpoint(self) -> str:
        """Snapshot the worker's index now; returns the snapshot path."""
        return self._admin("checkpoint").attrs["snapshot"]

    def checkpoint_stats(self) -> Dict[str, str]:
        """The worker's recovery/checkpoint counters, as wire strings."""
        return dict(self._admin("checkpoint-stats").attrs)

    # -- resync stream ---------------------------------------------------------
    def _replicate(self, payload: XmlElement) -> XmlElement:
        return self.bus.call(
            source=f"{self.name}-resync",
            target=self._endpoint,
            operation="replicate",
            payload=payload,
        )

    def replicate_push(
        self, assertions: Iterable[XmlElement]
    ) -> Tuple[int, int]:
        """Apply wire-form assertions, skipping duplicates.

        Returns ``(applied, skipped)`` — idempotent, so a crashed resync
        can simply replay its last page.
        """
        payload = XmlElement("replicate", {"mode": "push"})
        for el in assertions:
            payload.element("entry").add(el)
        ack = self._replicate(payload)
        return int(ack.attrs["applied"]), int(ack.attrs["skipped"])

    def ping(self) -> Dict[str, str]:
        """Liveness probe; returns the worker's pong attributes."""
        response = self.bus.call(
            source=f"{self.name}-admin",
            target=self._endpoint,
            operation="ping",
            payload=XmlElement("ping"),
        )
        return dict(response.attrs)

    # -- lifecycle ------------------------------------------------------------
    def close(self) -> None:
        """Shut the worker down (via ``on_close``) and drop the connections.

        Idempotent, like every backend ``close`` in the store stack.
        """
        if self._closed:
            return
        self._closed = True
        try:
            if self._on_close is not None:
                self._on_close()
        finally:
            self.bus.close()


__all__ = ["RemoteStore"]
