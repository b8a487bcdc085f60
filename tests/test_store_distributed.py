"""Tests for the distributed PReServ (§7 future work, implemented)."""

from __future__ import annotations

import pytest

from repro.store.backends import MemoryBackend
from repro.store.distributed import (
    CrossLink,
    FederatedQueryClient,
    StoreCloseError,
    StoreRouter,
    consolidate,
    sharded_store_fleet,
)
from repro.figures.synthstore import populate_store

from tests.test_store_backends import ga, ipa, key, spa


def make_router(n=3):
    stores = {f"store-{i}": MemoryBackend() for i in range(n)}
    return StoreRouter(stores), stores


class TestRouting:
    def test_requires_stores(self):
        with pytest.raises(ValueError):
            StoreRouter({})

    def test_placement_deterministic(self):
        router_a, _ = make_router()
        router_b, _ = make_router()
        for i in range(20):
            assert router_a.owner_of(key(i)) == router_b.owner_of(key(i))

    def test_passertion_goes_to_exactly_one_store(self):
        router, stores = make_router()
        owner = router.put(ipa(1))
        holders = [
            name
            for name, s in stores.items()
            if s.interaction_passertions(key(1))
        ]
        assert holders == [owner]

    def test_same_interaction_always_same_store(self):
        """All p-assertions of one interaction co-locate (navigability)."""
        router, stores = make_router()
        from repro.core.passertion import ViewKind

        o1 = router.put(ipa(1, ViewKind.SENDER))
        o2 = router.put(ipa(1, ViewKind.RECEIVER))
        o3 = router.put(spa(1))
        assert o1 == o2 == o3

    def test_distribution_is_spread(self):
        """With enough interactions every store owns some records."""
        router, stores = make_router(3)
        for i in range(60):
            router.put(ipa(i))
        sizes = [len(s.interaction_keys()) for s in stores.values()]
        assert all(size > 0 for size in sizes)
        assert sum(sizes) == 60

    def test_group_assertions_broadcast(self):
        router, stores = make_router()
        router.put(ipa(1))
        router.put(ga(1))
        for s in stores.values():
            assert s.group_members("session-A") == [key(1)]


class _ExplodingStore(MemoryBackend):
    """A member whose close() always fails (a dead fleet worker stand-in)."""

    def close(self) -> None:
        raise RuntimeError("fsync handle already gone")


class TestRouterClose:
    def test_close_is_idempotent(self):
        router, stores = make_router()
        closed = []
        for name, store in stores.items():
            store.close = lambda name=name: closed.append(name)
        router.close()
        router.close()  # second close is a no-op, not a double-close
        assert sorted(closed) == sorted(stores)

    def test_close_attempts_every_member_and_aggregates(self):
        stores = {
            "store-0": _ExplodingStore(),
            "store-1": MemoryBackend(),
            "store-2": _ExplodingStore(),
        }
        survivors = []
        stores["store-1"].close = lambda: survivors.append("store-1")
        router = StoreRouter(stores)
        with pytest.raises(StoreCloseError) as excinfo:
            router.close()
        # The healthy member was still closed despite its siblings failing.
        assert survivors == ["store-1"]
        assert [name for name, _ in excinfo.value.failures] == [
            "store-0",
            "store-2",
        ]
        assert all(
            isinstance(exc, RuntimeError) for _, exc in excinfo.value.failures
        )
        # And the failure does not reopen the router: close stays done.
        router.close()

    def test_on_close_hook_runs_last_even_when_members_fail(self):
        events = []
        stores = {"store-0": _ExplodingStore(), "store-1": MemoryBackend()}
        stores["store-1"].close = lambda: events.append("member")
        router = StoreRouter(stores, on_close=lambda: events.append("hook"))
        with pytest.raises(StoreCloseError):
            router.close()
        assert events == ["member", "hook"]

    def test_failing_on_close_hook_is_aggregated(self):
        def hook():
            raise RuntimeError("fleet teardown failed")

        router = StoreRouter({"store-0": MemoryBackend()}, on_close=hook)
        with pytest.raises(StoreCloseError) as excinfo:
            router.close()
        assert [name for name, _ in excinfo.value.failures] == ["<on_close>"]


class TestCrossLinks:
    def test_other_stores_gain_links(self):
        router, _ = make_router()
        owner = router.put(ipa(1))
        for name in router.store_names:
            links = router.cross_links(name)
            if name == owner:
                assert all(l.interaction_key != key(1) for l in links)
            else:
                assert any(
                    l.interaction_key == key(1) and l.store == owner for l in links
                )

    def test_resolve_navigates_to_owner(self):
        router, _ = make_router()
        owner = router.put(ipa(1))
        for name in router.store_names:
            assert router.resolve(name, key(1)) == owner

    def test_resolve_unknown_key_raises(self):
        router, _ = make_router()
        with pytest.raises(KeyError, match="cross-link"):
            router.resolve(router.store_names[0], key(99))

    def test_links_survive_a_reopen(self, tmp_path):
        router = sharded_store_fleet(tmp_path, members=3)
        router.put_many([ipa(i) for i in range(12)])
        owner = router.owner_of(key(1))
        non_owner = next(n for n in router.store_names if n != owner)
        router.close()
        reopened = sharded_store_fleet(tmp_path, members=3)
        try:
            assert CrossLink(key(1), owner) in reopened.cross_links(non_owner)
            assert reopened.resolve(non_owner, key(1)) == owner
        finally:
            reopened.close()


class TestFederatedQuery:
    def test_union_of_interaction_keys(self):
        router, _ = make_router()
        for i in range(10):
            router.put(ipa(i))
        fed = FederatedQueryClient(router)
        assert fed.interaction_keys() == [key(i) for i in range(10)]

    def test_targeted_lookups_hit_owner(self):
        router, _ = make_router()
        router.put(ipa(4))
        router.put(spa(4))
        fed = FederatedQueryClient(router)
        assert len(fed.interaction_passertions(key(4))) == 1
        assert len(fed.actor_state_passertions(key(4), state_type="script")) == 1

    def test_counts_deduplicate_group_broadcast(self):
        router, _ = make_router(3)
        router.put(ipa(1))
        router.put(ga(1))
        counts = FederatedQueryClient(router).counts()
        assert counts.interaction_passertions == 1
        assert counts.group_assertions == 1  # not 3
        assert counts.interaction_records == 1


class TestConsolidation:
    def test_merge_preserves_everything(self):
        from repro.app.experiment import Experiment, ExperimentConfig

        # A realistic corpus via the synthetic generator on one store...
        exp = Experiment(ExperimentConfig())
        single = MemoryBackend()
        populate_store(single, 40, script_for=exp.script_for)
        # ...replayed through a 3-store router.
        router, _ = make_router(3)
        for assertion in single.all_assertions():
            router.put(assertion)

        target = MemoryBackend()
        moved_p, moved_g = consolidate(router, target)
        want = single.counts()
        got = target.counts()
        assert got.interaction_passertions == want.interaction_passertions
        assert got.actor_state_passertions == want.actor_state_passertions
        assert got.group_assertions == want.group_assertions
        assert got.interaction_records == want.interaction_records
        assert moved_p == want.interaction_passertions + want.actor_state_passertions
        assert moved_g == want.group_assertions

    def test_consolidated_store_answers_queries(self):
        router, _ = make_router()
        for i in range(6):
            router.put(ipa(i))
            router.put(spa(i))
            router.put(ga(i))
        target = MemoryBackend()
        consolidate(router, target)
        assert target.group_members("session-A") == [key(i) for i in range(6)]
        assert len(target.actor_state_passertions(key(3))) == 1
