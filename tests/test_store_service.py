"""Tests for PReServ plug-ins, translator and the store actor over the bus."""

from __future__ import annotations

import pytest

from repro.core.passertion import (
    GroupAssertion,
    GroupKind,
    InteractionKey,
    InteractionPAssertion,
    ViewKind,
)
from repro.core.client import ProvenanceRecordClient
from repro.core.prep import PrepAck, PrepQuery, PrepRecord, PrepResult
from repro.soa.bus import MessageBus
from repro.soa.envelope import Fault
from repro.soa.xmldoc import XmlElement
from repro.store.backends import KVLogBackend, MemoryBackend
from repro.store.plugins import QueryPlugIn, StorePlugIn
from repro.store.service import MessageTranslator, PReServActor

from tests.test_store_backends import ga, ipa, key, spa


@pytest.fixture
def deployment():
    bus = MessageBus()
    backend = MemoryBackend()
    actor = PReServActor(backend)
    bus.register(actor)
    return bus, backend, actor


def record_via_bus(bus, assertion):
    return bus.call(
        "client", "preserv", "record", PrepRecord(assertion).to_xml()
    )


def query_via_bus(bus, query_type, **params):
    response = bus.call(
        "client",
        "preserv",
        "query",
        PrepQuery(query_type=query_type, params=params).to_xml(),
    )
    return PrepResult.from_xml(response)


class TestTranslator:
    def test_routes_by_body_element(self):
        translator = MessageTranslator([StorePlugIn(), QueryPlugIn()])
        routes = translator.routes()
        assert routes["prep-record"] == "StorePlugIn"
        assert routes["prep-query"] == "QueryPlugIn"

    def test_unrouted_body_faults(self):
        translator = MessageTranslator([StorePlugIn()])
        with pytest.raises(Fault, match="no-plugin"):
            translator.dispatch(XmlElement("mystery"), MemoryBackend())

    def test_duplicate_route_rejected(self):
        translator = MessageTranslator([StorePlugIn()])
        with pytest.raises(ValueError):
            translator.register(StorePlugIn())


class TestRecordPort:
    def test_single_record_acked(self, deployment):
        bus, backend, _ = deployment
        response = record_via_bus(bus, ipa(1))
        ack = PrepAck.from_xml(response)
        assert ack.ok and ack.count == 1
        assert backend.counts().interaction_passertions == 1

    def test_batch_record(self, deployment):
        bus, backend, _ = deployment
        batch = XmlElement("prep-record-batch")
        for i in range(4):
            batch.add(PrepRecord(ipa(i)).to_xml())
        ack = PrepAck.from_xml(bus.call("client", "preserv", "record", batch))
        assert ack.count == 4
        assert backend.counts().interaction_passertions == 4

    def test_duplicate_submission_faults(self, deployment):
        bus, _, _ = deployment
        record_via_bus(bus, ipa(1))
        with pytest.raises(Fault, match="duplicate-assertion"):
            record_via_bus(bus, ipa(1))

    def test_wrong_body_on_record_port_faults(self, deployment):
        bus, _, _ = deployment
        with pytest.raises(Fault, match="bad-request"):
            bus.call("client", "preserv", "record", XmlElement("prep-query"))

    def test_duplicate_in_batch_faults_and_keeps_prefix(self, tmp_path):
        backend = KVLogBackend(tmp_path / "kv.db", sync=False)
        bus = MessageBus()
        bus.register(PReServActor(backend))
        good = [ipa(i) for i in range(12)]
        batch = XmlElement("prep-record-batch")
        for a in good + [good[0]]:  # duplicate store key at the end
            batch.add(PrepRecord(a).to_xml())
        with pytest.raises(Fault, match="duplicate-assertion"):
            bus.call("client", "preserv", "record", batch)
        # Everything before the duplicate is stored, durably — never a hole.
        expected = [a.store_key for a in good]
        assert [a.store_key for a in backend.all_assertions()] == expected
        backend.close()
        reopened = KVLogBackend(tmp_path / "kv.db")
        assert [a.store_key for a in reopened.all_assertions()] == expected
        reopened.close()


class TestRecordClientStream:
    def test_record_many_sends_one_message_per_batch(self, deployment):
        bus, backend, _ = deployment
        client = ProvenanceRecordClient(bus)
        total = client.record_many((ipa(i) for i in range(25)), batch_size=4)
        assert total == 25
        assert client.acked == 25
        assert client.calls == 7  # ceil(25 / 4) batch messages
        assert backend.counts().interaction_passertions == 25

    def test_rejected_batch_stops_the_stream(self, deployment):
        bus, backend, _ = deployment
        client = ProvenanceRecordClient(bus)
        assertions = [ipa(i) for i in range(12)]
        poisoned = assertions[:6] + [assertions[0]] + assertions[6:]
        with pytest.raises(Fault, match="duplicate-assertion"):
            client.record_many(poisoned, batch_size=2)
        # Batches 0-2 were acked and batch 3 (the duplicate) was rejected;
        # nothing after it was sent.
        assert client.calls == 4
        assert client.acked == 6
        assert backend.counts().interaction_passertions == 6


class TestQueryPort:
    def fill(self, bus):
        for i in range(3):
            record_via_bus(bus, ipa(i, ViewKind.SENDER))
            record_via_bus(bus, ipa(i, ViewKind.RECEIVER))
            record_via_bus(bus, spa(i))
            record_via_bus(bus, ga(i))

    def test_interactions_query(self, deployment):
        bus, _, _ = deployment
        self.fill(bus)
        result = query_via_bus(bus, "interactions")
        keys = [InteractionKey.from_xml(el) for el in result.items]
        assert keys == [key(0), key(1), key(2)]

    def test_interaction_query_with_view(self, deployment):
        bus, _, _ = deployment
        self.fill(bus)
        result = query_via_bus(
            bus,
            "interaction",
            id=key(1).interaction_id,
            sender="c",
            receiver=key(1).receiver,
            view="sender",
        )
        assert len(result.items) == 1

    def test_actor_state_query_with_type(self, deployment):
        bus, _, _ = deployment
        self.fill(bus)
        result = query_via_bus(
            bus,
            "actor-state",
            **{
                "id": key(2).interaction_id,
                "sender": "c",
                "receiver": key(2).receiver,
                "state-type": "script",
            },
        )
        assert len(result.items) == 1

    def test_record_query_returns_full_interaction_record(self, deployment):
        bus, _, _ = deployment
        self.fill(bus)
        result = query_via_bus(
            bus,
            "record",
            id=key(1).interaction_id,
            sender="c",
            receiver=key(1).receiver,
        )
        # 2 interaction p-assertions + 1 actor-state.
        assert len(result.items) == 3

    def test_by_group_and_groups(self, deployment):
        bus, _, _ = deployment
        self.fill(bus)
        members = query_via_bus(bus, "by-group", group="session-A")
        assert len(members.items) == 3
        groups = query_via_bus(bus, "groups", kind="session")
        assert [g.attrs["id"] for g in groups.items] == ["session-A"]

    def test_count_query(self, deployment):
        bus, _, _ = deployment
        self.fill(bus)
        counts = query_via_bus(bus, "count").items[0]
        assert counts.attrs["interaction-records"] == "3"
        assert counts.attrs["interaction-passertions"] == "6"

    def test_unknown_query_type_faults(self, deployment):
        bus, _, _ = deployment
        with pytest.raises(Fault, match="unknown-query"):
            query_via_bus(bus, "teleport")

    def test_missing_params_fault(self, deployment):
        bus, _, _ = deployment
        with pytest.raises(Fault, match="missing parameter"):
            query_via_bus(bus, "interaction", id="only-id")

    def test_wrong_body_on_query_port_faults(self, deployment):
        bus, _, _ = deployment
        with pytest.raises(Fault, match="bad-request"):
            bus.call("client", "preserv", "query", XmlElement("prep-record"))

    def test_empty_store_queries(self, deployment):
        bus, _, _ = deployment
        assert query_via_bus(bus, "interactions").items == []
        assert query_via_bus(bus, "by-group", group="none").items == []
