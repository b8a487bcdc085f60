"""Bus clients for the two PReServ ports: query and (bulk) record.

Use case 1's measured cost is "about 15 ms to retrieve a script (through one
store invocation) and map it" — the unit of Figure 5's script-comparison
curve.  :class:`ProvenanceQueryClient` performs exactly one bus call per
method so the virtual clock charges match that structure, and counts its
calls for assertions.

:class:`ProvenanceRecordClient` is the submission side: it ships PReP
records to the store's record port, packing many records into a single
``prep-record-batch`` message — the actor-side batching PReServ's library
used to reach its recording throughput.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.passertion import (
    ActorStatePAssertion,
    InteractionKey,
    InteractionPAssertion,
    ViewKind,
    parse_passertion,
)
from repro.core.prep import PrepAck, PrepQuery, PrepRecord, PrepResult
from repro.soa.bus import MessageBus
from repro.soa.xmldoc import XmlElement
from repro.store.interface import Assertion, StoreCounts


class ProvenanceRecordClient:
    """Typed wrapper over the PReServ record port, batching-aware.

    One bus call carries either a single ``prep-record`` or a whole
    ``prep-record-batch``; :meth:`record_many` slices an assertion stream
    into batch messages so n assertions cost ``ceil(n / batch_size)`` round
    trips instead of n.
    """

    def __init__(
        self,
        bus: MessageBus,
        store_endpoint: str = "preserv",
        client_endpoint: str = "record-client",
    ):
        self.bus = bus
        self.store_endpoint = store_endpoint
        self.client_endpoint = client_endpoint
        self.calls = 0
        self.acked = 0

    @staticmethod
    def _encode_batch(records: Sequence[PrepRecord]) -> XmlElement:
        """One wire body for a chunk of records (single or batch form)."""
        if len(records) == 1:
            return records[0].to_xml()
        body = XmlElement("prep-record-batch")
        for record in records:
            body.add(record.to_xml())
        return body

    def _post(self, body: XmlElement) -> PrepAck:
        """One bus call to the record port; counts and parses the ack."""
        self.calls += 1
        response = self.bus.call(
            source=self.client_endpoint,
            target=self.store_endpoint,
            operation="record",
            payload=body,
        )
        ack = PrepAck.from_xml(response)
        if ack.ok:
            self.acked += ack.count
        return ack

    def _post_checked(self, body: XmlElement) -> int:
        """Post one body; a rejected batch raises instead of returning."""
        ack = self._post(body)
        if not ack.ok:
            raise RuntimeError(f"store rejected record batch: {ack.detail}")
        return ack.count

    def send_records(self, records: Sequence[PrepRecord]) -> PrepAck:
        """Ship prepared PReP records in one bus call; returns the ack."""
        if not records:
            return PrepAck(status="ok", count=0)
        return self._post(self._encode_batch(records))

    def record(self, assertion: Assertion) -> PrepAck:
        """Record a single assertion (one round trip)."""
        return self.send_records([PrepRecord(assertion=assertion)])

    def send_record_stream(
        self,
        records: Iterable[PrepRecord],
        batch_size: int = 64,
    ) -> int:
        """Ship a record stream in batch messages; returns the count acked.

        Chunks lazily, so a generated stream never materializes beyond one
        batch.  Batches are sent strictly in stream order, and a rejected
        batch stops the stream: nothing after it is sent.

        Raises ``RuntimeError`` if the store rejects any batch.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        stream = iter(records)
        total = 0
        while True:
            chunk = list(itertools.islice(stream, batch_size))
            if not chunk:
                return total
            total += self._post_checked(self._encode_batch(chunk))

    def record_many(
        self,
        assertions: Iterable[Assertion],
        batch_size: int = 64,
    ) -> int:
        """Record a stream of assertions in batch messages; returns acked.

        Raises ``RuntimeError`` if the store rejects any batch.
        """
        return self.send_record_stream(
            (PrepRecord(assertion=a) for a in assertions),
            batch_size=batch_size,
        )


class ProvenanceQueryClient:
    """Typed wrapper over the PReServ query port.

    Every method is one query round trip to the store (``calls`` counts
    them); repeated queries are served warm by the store's own result
    cache (:class:`~repro.store.querycache.QueryCache`), not cached here.
    Its read methods are the store interface's read surface, which is
    what lets :class:`~repro.fleet.remote.RemoteStore` stand in for a
    store.
    """

    def __init__(
        self,
        bus: MessageBus,
        store_endpoint: str = "preserv",
        client_endpoint: str = "query-client",
    ):
        self.bus = bus
        self.store_endpoint = store_endpoint
        self.client_endpoint = client_endpoint
        self.calls = 0

    def _query(self, query_type: str, **params: str) -> PrepResult:
        query = PrepQuery(query_type=query_type, params=dict(params))
        self.calls += 1
        response = self.bus.call(
            source=self.client_endpoint,
            target=self.store_endpoint,
            operation="query",
            payload=query.to_xml(),
        )
        return PrepResult.from_xml(response)

    @staticmethod
    def _key_params(key: InteractionKey) -> Dict[str, str]:
        return {
            "id": key.interaction_id,
            "sender": key.sender,
            "receiver": key.receiver,
        }

    def interaction_keys(self) -> List[InteractionKey]:
        result = self._query("interactions")
        return [InteractionKey.from_xml(el) for el in result.items]

    def interaction_passertions(
        self, key: InteractionKey, view: Optional[ViewKind] = None
    ) -> List[InteractionPAssertion]:
        params = self._key_params(key)
        if view is not None:
            params["view"] = view.value
        result = self._query("interaction", **params)
        out = []
        for el in result.items:
            pa = parse_passertion(el)
            assert isinstance(pa, InteractionPAssertion)
            out.append(pa)
        return out

    def actor_state_passertions(
        self,
        key: InteractionKey,
        view: Optional[ViewKind] = None,
        state_type: Optional[str] = None,
    ) -> List[ActorStatePAssertion]:
        params = self._key_params(key)
        if view is not None:
            params["view"] = view.value
        if state_type is not None:
            params["state-type"] = state_type
        result = self._query("actor-state", **params)
        out = []
        for el in result.items:
            pa = parse_passertion(el)
            assert isinstance(pa, ActorStatePAssertion)
            out.append(pa)
        return out

    def interaction_record(
        self, key: InteractionKey
    ) -> List[object]:
        """All p-assertions about one interaction, in a single store call."""
        result = self._query("record", **self._key_params(key))
        return [parse_passertion(el) for el in result.items]

    def group_members(self, group_id: str) -> List[InteractionKey]:
        result = self._query("by-group", group=group_id)
        return [InteractionKey.from_xml(el) for el in result.items]

    def groups_of(self, key: InteractionKey) -> List[str]:
        """Group ids an interaction belongs to (session, threads, ...)."""
        result = self._query("groups-of", **self._key_params(key))
        return [el.attrs["id"] for el in result.items]

    def group_ids(self, kind: Optional[str] = None) -> List[str]:
        params = {"kind": kind} if kind else {}
        result = self._query("groups", **params)
        return [el.attrs["id"] for el in result.items]

    def group_kinds(
        self, group_ids: Optional[Iterable[str]] = None
    ) -> Dict[str, str]:
        """``{group_id: kind}`` from one ``groups`` query, like the store
        interface's: every group when ``group_ids`` is None, otherwise
        those ids, with unknown ones omitted."""
        result = self._query("groups")
        kinds = {el.attrs["id"]: el.attrs["kind"] for el in result.items}
        if group_ids is None:
            return kinds
        return {gid: kinds[gid] for gid in group_ids if gid in kinds}

    def passertion_counts(self, key: InteractionKey) -> Tuple[int, int]:
        """Both per-key p-assertion counts in one query round trip."""
        result = self._query("passertion-counts", **self._key_params(key))
        el = result.items[0]
        return (
            int(el.attrs["interaction-passertions"]),
            int(el.attrs["actor-state-passertions"]),
        )

    def counts(self) -> StoreCounts:
        result = self._query("count")
        el = result.items[0]
        return StoreCounts(
            interaction_passertions=int(el.attrs["interaction-passertions"]),
            actor_state_passertions=int(el.attrs["actor-state-passertions"]),
            group_assertions=int(el.attrs["group-assertions"]),
            interaction_records=int(el.attrs["interaction-records"]),
        )
