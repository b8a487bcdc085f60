"""Replica-set semantics of the router and federated reads (in-process).

The write-ack matrix under test (see README's failure-semantics table):
an R-replicated p-assertion write acks only when all R copies persist; a
member-down partial commit journals the missing share and raises
:class:`~repro.store.distributed.PartialCommitError`; a retried in-doubt
batch converges (duplicate rejections are skipped at R > 1); federated
reads fail over inside the replica set and never double-count replicas.

Everything here runs against in-process ``MemoryBackend`` members with a
simulated-outage wrapper, so the replication logic is tested at memory
speed; the process-fleet (socket + SIGKILL) variants live in
``test_fleet_supervisor.py``.
"""

from __future__ import annotations

import pytest

from repro.soa.envelope import Fault
from repro.store.backends import MemoryBackend
from repro.store.distributed import (
    FederatedQueryClient,
    PartialCommitError,
    StoreRouter,
    consolidate,
)
from repro.store.interface import DuplicateAssertionError

from tests.test_store_backends import ga, ipa, key, spa


class FlakyStore(MemoryBackend):
    """A member with a switchable simulated outage (the transport's shape).

    While ``down``, every remote-meaningful operation raises the
    transport's member-down signature,
    ``Fault("worker-unavailable", ...)`` — exactly what an
    :class:`~repro.fleet.remote.RemoteStore` surfaces when its worker
    process is gone.
    """

    def __init__(self, name: str = "?"):
        super().__init__()
        self.flaky_name = name
        self.down = False

    def _guard(self):
        if self.down:
            raise Fault(
                "worker-unavailable",
                f"simulated outage of {self.flaky_name!r}",
                detail={"worker": self.flaky_name, "attempts": "1"},
            )

    def put(self, assertion):
        self._guard()
        return super().put(assertion)

    def put_many(self, assertions):
        self._guard()
        return super().put_many(assertions)

    def interaction_keys(self):
        self._guard()
        return super().interaction_keys()

    def interaction_passertions(self, key, view=None):
        self._guard()
        return super().interaction_passertions(key, view)

    def actor_state_passertions(self, key, view=None, state_type=None):
        self._guard()
        return super().actor_state_passertions(key, view, state_type)

    def group_members(self, group_id):
        self._guard()
        return super().group_members(group_id)

    def counts(self):
        self._guard()
        return super().counts()

    @property
    def generation(self):
        self._guard()
        return super().generation


def make_replicated(n=4, replicas=2):
    stores = {f"store-{i:02d}": FlakyStore(f"store-{i:02d}") for i in range(n)}
    return StoreRouter(stores, replicas=replicas), stores


def put_one(router, assertion):
    return router.put(assertion)


def put_batch_of_one(router, assertion):
    return router.put_many([assertion])[0]


#: the router's two entry points for a single write, which must agree.
WRITE_ONE = [
    pytest.param(put_one, id="put"),
    pytest.param(put_batch_of_one, id="put_many"),
]


class TestReplicaPlacement:
    def test_replica_count_validated(self):
        stores = {f"s{i}": MemoryBackend() for i in range(2)}
        with pytest.raises(ValueError):
            StoreRouter(dict(stores), replicas=0)
        with pytest.raises(ValueError):
            StoreRouter(dict(stores), replicas=3)

    def test_replica_set_shape(self):
        router, _ = make_replicated(n=4, replicas=2)
        for i in range(30):
            rs = router.replica_set(key(i))
            assert len(rs) == 2
            assert len(set(rs)) == 2
            assert rs[0] == router.owner_of(key(i))

    def test_successor_placement_is_ring_adjacent(self):
        router, _ = make_replicated(n=4, replicas=3)
        names = router.store_names
        for i in range(30):
            rs = router.replica_set(key(i))
            start = names.index(rs[0])
            assert rs == [names[(start + j) % 4] for j in range(3)]

    def test_replicas_default_preserves_owner_only(self):
        router, stores = make_replicated(n=3, replicas=1)
        owner = router.put(ipa(1))
        holders = [
            name for name, s in stores.items()
            if s.interaction_passertions(key(1))
        ]
        assert holders == [owner]


class TestReplicatedWrites:
    def test_put_writes_all_replicas(self):
        router, stores = make_replicated()
        router.put(ipa(1))
        rs = router.replica_set(key(1))
        for name, store in stores.items():
            held = bool(store.interaction_passertions(key(1)))
            assert held == (name in rs)

    def test_put_many_matches_put_loop_placement(self):
        router_a, stores_a = make_replicated()
        router_b, stores_b = make_replicated()
        batch = [ipa(i) for i in range(12)] + [ga(0), spa(3)]
        for a in batch:
            router_a.put(a)
        labels = router_b.put_many(batch)
        from repro.core.passertion import GroupAssertion

        assert labels == [
            "*"
            if isinstance(a, GroupAssertion)
            else router_b.replica_set(a.interaction_key)[0]
            for a in batch
        ]
        for name in stores_a:
            assert stores_a[name].counts() == stores_b[name].counts()
        assert router_a.records_routed == router_b.records_routed

    def test_partial_commit_raises_and_journals(self):
        router, stores = make_replicated()
        target = ipa(1)
        rs = router.replica_set(key(1))
        stores[rs[1]].down = True
        with pytest.raises(PartialCommitError) as excinfo:
            router.put(target)
        assert excinfo.value.committed == [rs[0]]
        assert excinfo.value.missing == [rs[1]]
        assert router.pending_repairs() == {rs[1]: 1}
        assert rs[1] in router.degraded_members
        # The live replica holds the share; the write was still NOT acked.
        assert stores[rs[0]].interaction_passertions(key(1))

    def test_repair_flushes_journal_after_restore(self):
        router, stores = make_replicated()
        rs = router.replica_set(key(1))
        stores[rs[1]].down = True
        with pytest.raises(PartialCommitError):
            router.put(ipa(1))
        stores[rs[1]].down = False
        router.mark_restored(rs[1])
        pushed = router.repair(rs[1])
        assert pushed == 1
        assert router.pending_repairs() == {}
        assert stores[rs[1]].interaction_passertions(key(1))

    def test_retry_converges_after_restore(self):
        """The acked-write guarantee: retrying an in-doubt batch acks it."""
        router, stores = make_replicated()
        batch = [ipa(i) for i in range(8)]
        victim = router.replica_set(key(0))[1]
        stores[victim].down = True
        with pytest.raises(PartialCommitError):
            router.put_many(batch)
        stores[victim].down = False
        router.mark_restored(victim)
        labels = router.put_many(batch)  # duplicate-skip convergence
        assert len(labels) == 8
        for a in batch:
            for member in router.replica_set(a.interaction_key):
                held = stores[member].interaction_passertions(a.interaction_key)
                assert [p for p in held if p.store_key == a.store_key]

    def test_degraded_member_is_journaled_without_dialing(self):
        router, stores = make_replicated()
        rs = router.replica_set(key(5))
        router.mark_degraded(rs[0])
        with pytest.raises(PartialCommitError):
            router.put(ipa(5))
        assert router.pending_repairs() == {rs[0]: 1}
        # The degraded store was never dialed (no outage simulated, but
        # also no data written to it).
        assert not stores[rs[0]].interaction_passertions(key(5))

    @pytest.mark.parametrize("write", WRITE_ONE)
    def test_broadcast_acks_above_replication_floor(self, write):
        """A group assertion acks while >= R live members hold it."""
        router, stores = make_replicated(n=4, replicas=2)
        stores["store-03"].down = True
        label = write(router, ga(1))  # 3 of 4 committed, floor is 2: acked
        assert label == "*"
        assert router.pending_repairs() == {"store-03": 1}
        assert router.records_routed == 1
        assert "store-03" in router.degraded_members

    @pytest.mark.parametrize("write", WRITE_ONE)
    def test_broadcast_below_replication_floor_is_not_acked(self, write):
        router, stores = make_replicated(n=4, replicas=3)
        for name in ("store-01", "store-02"):
            stores[name].down = True
        with pytest.raises(PartialCommitError) as excinfo:
            write(router, ga(1))  # 2 of 4 committed, floor is 3
        assert excinfo.value.committed == ["store-00", "store-03"]
        assert excinfo.value.missing == ["store-01", "store-02"]
        assert router.records_routed == 0
        assert router.pending_repairs() == {"store-01": 1, "store-02": 1}

    @pytest.mark.parametrize("write", WRITE_ONE)
    def test_r1_member_down_journals_and_propagates(self, write):
        """At R=1 the transport fault propagates unchanged, after the
        owner's share is journaled and the owner marked degraded."""
        router, stores = make_replicated(n=3, replicas=1)
        owner = router.owner_of(key(1))
        stores[owner].down = True
        with pytest.raises(Fault) as excinfo:
            write(router, ipa(1))
        assert excinfo.value.code == "worker-unavailable"
        assert router.pending_repairs() == {owner: 1}
        assert router.degraded_members == [owner]
        assert router.records_routed == 0

    def test_r1_duplicate_still_propagates(self):
        """At R=1 duplicates are a client error, not a retry artifact."""
        router, _ = make_replicated(n=3, replicas=1)
        router.put(ipa(1))
        with pytest.raises(DuplicateAssertionError):
            router.put(ipa(1))


class TestFailoverReads:
    def test_read_fails_over_to_live_replica(self):
        router, stores = make_replicated()
        router.put(ipa(1))
        queries = FederatedQueryClient(router)
        rs = router.replica_set(key(1))
        stores[rs[0]].down = True
        held = queries.interaction_passertions(key(1))
        assert len(held) == 1
        assert queries.failovers == 1
        assert rs[0] in router.degraded_members

    def test_all_replicas_down_raises_with_detail(self):
        router, stores = make_replicated()
        router.put(ipa(1))
        queries = FederatedQueryClient(router)
        for name in router.replica_set(key(1)):
            stores[name].down = True
        with pytest.raises(Fault) as excinfo:
            queries.interaction_passertions(key(1))
        assert excinfo.value.code == "worker-unavailable"
        assert "replicas" in excinfo.value.detail

    def test_group_reads_use_any_live_member(self):
        router, stores = make_replicated()
        router.put(ipa(1))
        router.put(ga(1))
        queries = FederatedQueryClient(router)
        stores[router.store_names[0]].down = True
        assert queries.group_members("session-A") == [key(1)]

    def test_counts_do_not_double_count_replicas(self):
        router, _ = make_replicated(n=4, replicas=2)
        for i in range(10):
            router.put(ipa(i))
        router.put(ga(0))
        queries = FederatedQueryClient(router)
        counts = queries.counts()
        assert counts.interaction_passertions == 10
        assert counts.group_assertions == 1
        assert counts.interaction_records == 10

    def test_keys_union_survives_one_down_member(self):
        router, stores = make_replicated(n=4, replicas=2)
        for i in range(20):
            router.put(ipa(i))
        queries = FederatedQueryClient(router)
        stores["store-01"].down = True
        keys = queries.interaction_keys()
        assert len(keys) == 20

    def test_cross_links_survive_one_down_member(self):
        router, stores = make_replicated(n=4, replicas=2)
        for i in range(20):
            router.put(ipa(i))
        stores["store-01"].down = True
        links = router.cross_links("store-00")
        assert {link.interaction_key for link in links} == {
            key(i) for i in range(20) if router.owner_of(key(i)) != "store-00"
        }

    def test_keys_union_refuses_when_replica_set_fully_dead(self):
        router, stores = make_replicated(n=3, replicas=1)
        for i in range(10):
            router.put(ipa(i))
        queries = FederatedQueryClient(router)
        stores["store-01"].down = True  # R=1: that member's keys are gone
        with pytest.raises(Fault) as excinfo:
            queries.interaction_keys()
        assert excinfo.value.code == "worker-unavailable"

    def test_suspect_member_needs_freshness_probe(self):
        router, stores = make_replicated()
        router.put(ipa(1))
        rs = router.replica_set(key(1))
        router.generations()  # record the freshness floor
        router.mark_degraded(rs[0])
        router.mark_restored(rs[0])
        assert rs[0] in router.suspect_members
        # The member answers with its real (>= floor) generation: cleared.
        assert router.confirm_fresh(rs[0])
        assert rs[0] not in router.suspect_members

    def test_stale_suspect_member_stays_demoted(self):
        router, stores = make_replicated()
        router.put(ipa(1))
        rs = router.replica_set(key(1))
        router.generations()
        router.mark_degraded(rs[0])
        router.mark_restored(rs[0])
        # Simulate a rejoined-but-behind replica: raise its floor past
        # anything it can report.
        router._gen_floor[rs[0]] = 10_000
        assert not router.confirm_fresh(rs[0])
        assert rs[0] in router.suspect_members
        # Reads still answer — from the fresh peer.
        queries = FederatedQueryClient(router)
        assert queries.interaction_passertions(key(1))


class TestDownMemberCaching:
    def test_generations_reports_none_for_down_members(self):
        router, stores = make_replicated()
        stores["store-02"].down = True
        gens = router.generations()
        assert gens["store-02"] is None
        assert all(
            isinstance(g, int) for n, g in gens.items() if n != "store-02"
        )
        assert "store-02" in router.degraded_members

    def test_down_member_poisons_the_generation_vector(self):
        """No cached federated merge may revalidate during an outage."""
        router, stores = make_replicated()
        stores["store-02"].down = True
        v1 = router.generation_vector()
        v2 = router.generation_vector()
        assert not v1.fresh(v2)

    def test_vector_is_stable_again_once_all_members_answer(self):
        router, stores = make_replicated()
        v1 = router.generation_vector()
        assert v1.fresh(router.generation_vector())


class TestReplicatedConsolidate:
    def test_consolidate_dedupes_replicas(self):
        router, _ = make_replicated(n=4, replicas=2)
        for i in range(10):
            router.put(ipa(i))
        router.put(ga(0))
        target = MemoryBackend()
        moved_p, moved_g = consolidate(router, target)
        assert moved_p == 10
        assert moved_g == 1
        assert target.counts().interaction_passertions == 10
