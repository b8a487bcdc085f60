"""Cache-correctness suite for the query-path caching subsystem.

Covers the generation-based invalidation contract of
:mod:`repro.store.querycache`: cached and uncached plug-ins must return
byte-identical results for every query type, any write (``put``,
``put_many``, router routing/broadcast) must expire affected entries, and a
property test interleaves writes with queries to show the cache never
serves a stale document.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.client import ProvenanceQueryClient
from repro.core.passertion import GroupKind, ViewKind
from repro.core.prep import PrepQuery
from repro.soa.actor import Actor
from repro.soa.bus import MessageBus
from repro.soa.envelope import Fault
from repro.soa.xmldoc import XmlElement
from repro.store.backends import MemoryBackend
from repro.store.distributed import FederatedQueryClient, StoreRouter
from repro.store.plugins import QueryPlugIn
from repro.store.querycache import GenerationVector, LruMap, QueryCache
from repro.store.service import PReServActor

from tests.test_store_backends import ga, ipa, key, spa


def fill(backend, n=3):
    for i in range(n):
        backend.put(ipa(i, ViewKind.SENDER))
        backend.put(ipa(i, ViewKind.RECEIVER))
        backend.put(spa(i))
        backend.put(ga(i))
        backend.put(ga(i, group=f"thread-{i}", kind=GroupKind.THREAD, seq=i))


def all_query_bodies(i=1):
    k = key(i)
    params = {"id": k.interaction_id, "sender": k.sender, "receiver": k.receiver}
    return [
        PrepQuery("interactions").to_xml(),
        PrepQuery("count").to_xml(),
        PrepQuery("interaction", dict(params)).to_xml(),
        PrepQuery("interaction", dict(params, view="sender")).to_xml(),
        PrepQuery("record", dict(params)).to_xml(),
        PrepQuery("actor-state", dict(params)).to_xml(),
        PrepQuery("actor-state", dict(params, **{"state-type": "script"})).to_xml(),
        PrepQuery("by-group", {"group": "session-A"}).to_xml(),
        PrepQuery("by-group", {"group": "no-such-group"}).to_xml(),
        PrepQuery("groups").to_xml(),
        PrepQuery("groups", {"kind": "session"}).to_xml(),
        PrepQuery("groups-of", dict(params)).to_xml(),
    ]


class TestCacheTransparency:
    """Cache on vs off: byte-identical responses for every query type."""

    def test_all_query_types_byte_identical(self):
        backend = MemoryBackend()
        fill(backend)
        cached = QueryPlugIn()
        uncached = QueryPlugIn(enable_cache=False)
        assert cached.cache is not None and uncached.cache is None
        for body in all_query_bodies():
            hot = cached.handle(body, backend)      # populates the cache
            hot2 = cached.handle(body, backend)     # served from the cache
            cold = uncached.handle(body, backend)
            assert hot2.serialize() == cold.serialize()
            assert hot.serialize() == cold.serialize()

    def test_repeat_hits_plan_and_result_caches(self):
        backend = MemoryBackend()
        fill(backend)
        plugin = QueryPlugIn()
        body = PrepQuery("interactions").to_xml()
        first = plugin.handle(body, backend)
        second = plugin.handle(body, backend)
        assert second is first  # memoized document, no rebuild
        stats = plugin.cache.stats
        assert stats.plan_hits >= 1 and stats.result_hits >= 1

    def test_equivalent_bodies_share_one_result_entry(self):
        # Two structurally identical bodies (built separately) must hit.
        backend = MemoryBackend()
        fill(backend)
        plugin = QueryPlugIn()
        first = plugin.handle(PrepQuery("count").to_xml(), backend)
        second = plugin.handle(PrepQuery("count").to_xml(), backend)
        assert second is first

    def test_unknown_query_type_still_faults(self):
        plugin = QueryPlugIn()
        with pytest.raises(Fault, match="unknown-query"):
            plugin.handle(PrepQuery("teleport").to_xml(), MemoryBackend())

    def test_missing_parameter_still_faults(self):
        plugin = QueryPlugIn()
        with pytest.raises(Fault, match="missing parameter"):
            plugin.handle(
                PrepQuery("interaction", {"id": "only"}).to_xml(), MemoryBackend()
            )


class TestInvalidation:
    def test_put_between_identical_queries_refreshes(self):
        backend = MemoryBackend()
        fill(backend, n=2)
        plugin = QueryPlugIn()
        body = PrepQuery("interactions").to_xml()
        before = plugin.handle(body, backend)
        assert len(list(before.iter_elements())) == 2
        backend.put(ipa(7))
        after = plugin.handle(body, backend)
        assert len(list(after.iter_elements())) == 3
        assert plugin.cache.stats.result_invalidations >= 1

    def test_put_many_invalidates(self):
        backend = MemoryBackend()
        plugin = QueryPlugIn()
        body = PrepQuery("count").to_xml()
        empty = plugin.handle(body, backend)
        assert empty.find("store-counts").attrs["interaction-passertions"] == "0"
        backend.put_many([ipa(i) for i in range(4)])
        full = plugin.handle(body, backend)
        assert full.find("store-counts").attrs["interaction-passertions"] == "4"

    def test_group_broadcast_invalidates_membership_queries(self):
        backend = MemoryBackend()
        plugin = QueryPlugIn()
        body = PrepQuery("by-group", {"group": "session-A"}).to_xml()
        assert list(plugin.handle(body, backend).iter_elements()) == []
        backend.put(ga(1))
        assert len(list(plugin.handle(body, backend).iter_elements())) == 1

    def test_generation_counts_every_write(self):
        backend = MemoryBackend()
        g0 = backend.generation
        backend.put(ipa(1))
        g1 = backend.generation
        assert g1 > g0
        backend.put_many([ipa(2), spa(2), ga(2)])
        assert backend.generation > g1

    def test_idempotent_group_reassertion_keeps_cache_warm(self):
        # Re-asserting an existing membership changes nothing a query can
        # observe, so it must not expire cached results.
        backend = MemoryBackend()
        backend.put(ga(1))
        plugin = QueryPlugIn()
        body = PrepQuery("by-group", {"group": "session-A"}).to_xml()
        first = plugin.handle(body, backend)
        gen = backend.generation
        backend.put(ga(1))  # idempotent re-assertion
        assert backend.generation == gen
        assert plugin.handle(body, backend) is first

    def test_idempotent_reassertion_keeps_kvlog_cache_warm(self, tmp_path):
        # The same invariant through a persisted group commit: the
        # re-assertions still append to the log, but a query can observe
        # nothing new, so cached results stay warm.
        from repro.store.backends import KVLogBackend

        backend = KVLogBackend(tmp_path / "kv.db")
        backend.put(ga(1))
        plugin = QueryPlugIn()
        k = key(1)
        body = PrepQuery(
            "groups-of",
            {"id": k.interaction_id, "sender": k.sender, "receiver": k.receiver},
        ).to_xml()
        first = plugin.handle(body, backend)
        backend.put(ga(1))  # idempotent re-assertion
        assert plugin.handle(body, backend) is first
        backend.put_many([ga(1), ga(1)])  # idempotent batch
        assert plugin.handle(body, backend) is first
        backend.close()

    def test_backend_without_generation_never_caches_results(self):
        class Bare:
            pass

        backend = MemoryBackend()
        fill(backend)
        cache = QueryCache()
        plugin = QueryPlugIn(cache=cache)
        body = PrepQuery("interactions").to_xml()
        plan = cache.plan_for(body, plugin._build_plan)
        bare = Bare()
        assert cache.lookup_result(bare, plan) is None
        cache.store_result(bare, plan, XmlElement("prep-result"))
        assert cache.lookup_result(bare, plan) is None  # nothing was stored


class TestRouterInvalidation:
    def make_router(self, n=3):
        stores = {f"s{i}": MemoryBackend() for i in range(n)}
        return StoreRouter(stores), stores

    def test_router_put_advances_owner_generation(self):
        router, stores = self.make_router()
        before = router.generations()
        owner = router.put(ipa(1))
        after = router.generations()
        assert after[owner] > before[owner]
        assert all(
            after[name] == before[name] for name in stores if name != owner
        )

    def test_group_broadcast_advances_every_member(self):
        router, _ = self.make_router()
        before = router.generations()
        router.put(ga(1))
        after = router.generations()
        assert all(after[name] > before[name] for name in after)

    def test_federated_caches_and_invalidates_on_cross_store_writes(self):
        router, _ = self.make_router()
        router.put_many([ipa(i) for i in range(6)])
        fed = FederatedQueryClient(router)
        keys1 = fed.interaction_keys()
        keys2 = fed.interaction_keys()
        counts1 = fed.counts()
        counts2 = fed.counts()
        assert keys1 == keys2 and counts1 == counts2
        assert fed.cache_hits == 2
        router.put(ipa(17))
        keys3 = fed.interaction_keys()
        assert len(keys3) == len(keys1) + 1
        assert fed.counts().interaction_passertions == 7

    def test_member_store_query_cache_sees_router_writes(self):
        router, stores = self.make_router()
        plugin = QueryPlugIn()
        body = PrepQuery("interactions").to_xml()
        owner = router.put(ipa(1))
        first = plugin.handle(body, stores[owner])
        assert len(list(first.iter_elements())) == 1
        # route more until the same owner takes another interaction
        i = 2
        while True:
            if router.owner_of(key(i)) == owner:
                router.put(ipa(i))
                break
            i += 1
        second = plugin.handle(body, stores[owner])
        assert len(list(second.iter_elements())) == 2

    def test_generation_vector_freshness(self):
        router, _ = self.make_router()
        v1 = router.generation_vector()
        assert v1.fresh(router.generation_vector())
        router.put(ipa(3))
        assert not v1.fresh(router.generation_vector())


class TestQueryClient:
    def test_every_query_calls_the_store(self):
        bus = MessageBus()
        backend = MemoryBackend()
        fill(backend)
        bus.register(PReServActor(backend))
        client = ProvenanceQueryClient(bus)
        client.counts()
        client.counts()
        assert client.calls == 2


# -- property test: interleaved writes and queries never serve stale --------

write_ops = st.lists(
    st.tuples(
        st.sampled_from(["put", "put_many", "group", "query"]),
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=0, max_value=len(all_query_bodies()) - 1),
    ),
    min_size=1,
    max_size=30,
)


@given(ops=write_ops)
@settings(max_examples=40, deadline=None)
def test_property_interleaved_writes_never_stale(ops):
    backend = MemoryBackend()
    cached = QueryPlugIn()
    reference = QueryPlugIn(enable_cache=False)
    bodies = all_query_bodies()
    next_fresh = 1000
    for op, i, qi in ops:
        if op == "put":
            backend.put(ipa(next_fresh))
            next_fresh += 1
        elif op == "put_many":
            backend.put_many(
                [ipa(next_fresh), spa(next_fresh), ga(next_fresh)]
            )
            next_fresh += 1
        elif op == "group":
            backend.put(ga(i % 7, group=f"session-{i % 3}"))
        body = bodies[qi]
        assert (
            cached.handle(body, backend).serialize()
            == reference.handle(body, backend).serialize()
        )


# -- satellite coverage ------------------------------------------------------


class TestSatellites:
    def test_actor_operations_built_once_and_cached(self):
        class Svc(Actor):
            def op_a(self, payload):
                return payload

            def op_b(self, payload):
                return payload

        svc = Svc("svc")
        assert svc.operations() == ["a", "b"]
        assert svc.operations() is not svc._op_names  # defensive copy
        assert svc.handler("a") == svc.op_a
        with pytest.raises(Exception, match="no operation"):
            svc.handler("missing")

    def test_group_kinds_bulk_accessor(self):
        backend = MemoryBackend()
        fill(backend, n=2)
        kinds = backend.group_kinds()
        assert kinds["session-A"] == "session"
        assert kinds["thread-0"] == "thread"
        subset = backend.group_kinds(["session-A", "ghost"])
        assert subset == {"session-A": "session"}

    def test_ordered_members_cached_view_invalidates(self):
        backend = MemoryBackend()
        backend.put(ga(2, seq=None))
        backend.put(ga(0, seq=None))
        first = backend.group_members("session-A")
        assert first == sorted(first)
        backend.put(ga(1, seq=None))
        assert len(backend.group_members("session-A")) == 3
        # idempotent re-assertion: no change, and caller copies are isolated
        backend.put(ga(1, seq=None))
        view = backend.group_members("session-A")
        view.append("tamper")
        assert len(backend.group_members("session-A")) == 3

    def test_groups_of_cached_view_invalidates(self):
        backend = MemoryBackend()
        backend.put(ga(1))
        assert backend.groups_of(key(1)) == ["session-A"]
        backend.put(ga(1, group="thread-9", kind=GroupKind.THREAD, seq=0))
        assert backend.groups_of(key(1)) == ["session-A", "thread-9"]
        tampered = backend.groups_of(key(1))
        tampered.clear()
        assert backend.groups_of(key(1)) == ["session-A", "thread-9"]

    def test_group_ids_cached_per_kind(self):
        backend = MemoryBackend()
        backend.put(ga(1))
        assert backend.group_ids("session") == ["session-A"]
        backend.put(ga(2, group="session-B"))
        assert backend.group_ids("session") == ["session-A", "session-B"]
        assert backend.group_ids("thread") == []

    def test_frozen_element_serialization_cached_and_locked(self):
        el = XmlElement("result", attrs={"n": "1"})
        el.element("item", "payload & more")
        text = el.serialize()
        el.freeze()
        assert el.frozen
        assert el.to_xml_string() == text
        assert el.serialize() == text
        with pytest.raises(ValueError, match="frozen"):
            el.add(XmlElement("late"))
        # a frozen child splices its cached text into an unfrozen parent
        parent = XmlElement("envelope")
        parent.add(el)
        assert text in parent.serialize()
        # equality ignores the cache: a fresh equal element compares equal
        other = XmlElement("result", attrs={"n": "1"})
        other.element("item", "payload & more")
        assert other == el

    def test_cached_record_query_leaves_store_content_mutable(self):
        # Result documents embed assertion content *by reference*; caching
        # must freeze a copy, never the asserter's live content element.
        backend = MemoryBackend()
        assertion = ipa(1)
        backend.put(assertion)
        plugin = QueryPlugIn()
        k = key(1)
        body = PrepQuery(
            "record",
            {"id": k.interaction_id, "sender": k.sender, "receiver": k.receiver},
        ).to_xml()
        first = plugin.handle(body, backend)
        assert plugin.handle(body, backend) is first  # cache filled and hit
        assert not assertion.content.frozen
        assertion.content.add("still extendable")  # must not raise

    def test_explicit_translator_rejects_cache_flag(self):
        from repro.store.service import MessageTranslator
        from repro.store.plugins import StorePlugIn

        translator = MessageTranslator([StorePlugIn(), QueryPlugIn()])
        with pytest.raises(ValueError, match="enable_query_cache"):
            PReServActor(
                MemoryBackend(), translator=translator, enable_query_cache=False
            )

    def test_element_copy_is_deep_and_unfrozen(self):
        el = XmlElement("a", attrs={"x": "1"})
        el.element("b", "text")
        el.freeze()
        dup = el.copy()
        assert dup == el and dup is not el
        assert not dup.frozen
        dup.add(XmlElement("c"))  # copy is mutable
        assert el.find("c") is None

    def test_lru_map_evicts_oldest(self):
        lru = LruMap(2)
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.get("a") == 1  # refresh a
        lru.put("c", 3)           # evicts b
        assert lru.get("b") is None
        assert lru.get("a") == 1 and lru.get("c") == 3
        assert len(lru) == 2

    def test_generation_vector_of_sorted_names(self):
        a, b = MemoryBackend(), MemoryBackend()
        a.put(ipa(1))
        vec = GenerationVector.of({"b": b, "a": a})
        assert vec.generations == (a.generation, b.generation)
