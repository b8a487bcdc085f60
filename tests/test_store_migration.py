"""Online migration: live rebalance, crash windows, zero acked-write loss.

The migration engine's contract, pinned down:

* a live ``add_member``/``decommission`` moves ~1/N of the keys and no
  read goes missing before, during, or after the stream;
* concurrent writers never lose an acked write, whichever of cutover or
  rollback the migration ends in (the dual-commit invariant);
* every crash window — during stream, during tail-drain, between
  cutover and ack — either rolls back cleanly or stays committed, and a
  re-run resumes via duplicate-skip;
* consolidation and counts stay correct over rebalanced (hence
  physically duplicated) fleets;
* the placement epoch poisons federated query caches at the flip.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.passertion import (
    GroupAssertion,
    GroupKind,
    InteractionKey,
    InteractionPAssertion,
    ViewKind,
)
from repro.soa.xmldoc import XmlElement
from repro.store.backends import KVLogBackend, MemoryBackend
from repro.store.distributed import (
    FederatedQueryClient,
    FederatedStoreAdapter,
    StoreRouter,
    consolidate,
    sharded_store_fleet,
)
from repro.store.migration import (
    MigrationError,
    migrate_keys,
    rebalance,
)
from repro.store.placement import PlacementSpec


def key(i: int) -> InteractionKey:
    return InteractionKey(f"mig-{i:04d}", "client", f"svc-{i % 3}")


def ipa(i: int, rev: int = 0) -> InteractionPAssertion:
    content = XmlElement("doc")
    content.add(f"message {i} rev {rev}")
    return InteractionPAssertion(
        interaction_key=key(i),
        view=ViewKind.SENDER,
        asserter="client",
        local_id=f"i-{i}-{rev}",
        operation="invoke",
        content=content,
    )


def ga(i: int, group: str = "session-A") -> GroupAssertion:
    return GroupAssertion(
        group_id=group, kind=GroupKind.SESSION, member=key(i), asserter="client"
    )


def make_router(n=3, replicas=1, mode="ring"):
    stores = {f"store-{i:02d}": MemoryBackend() for i in range(n)}
    placement = PlacementSpec(
        members=tuple(stores), replicas=replicas, mode=mode
    )
    return StoreRouter(stores, placement=placement), stores


def seed(router, n=80):
    written = []
    for i in range(n):
        assertion = ipa(i)
        router.put(assertion)
        written.append(assertion)
    return written


def assert_all_readable(router, written):
    fed = FederatedQueryClient(router)
    for assertion in written:
        stored = fed.interaction_passertions(assertion.interaction_key)
        assert any(
            s.local_id == assertion.local_id for s in stored
        ), f"lost {assertion.interaction_key}"


class TestMigrateKeys:
    """The key-scoped streaming primitive."""

    def test_streams_selected_keys_only(self):
        source, dest = MemoryBackend(), MemoryBackend()
        for i in range(20):
            source.put(ipa(i))
        wanted = [key(i) for i in range(5)]
        applied, skipped, cursor = migrate_keys(source, dest, wanted)
        assert applied == 5
        assert skipped == 0
        for i in range(5):
            assert dest.interaction_passertions(key(i))
        for i in range(5, 20):
            assert not dest.interaction_passertions(key(i))

    def test_rerun_is_free_via_duplicate_skip(self):
        source, dest = MemoryBackend(), MemoryBackend()
        for i in range(10):
            source.put(ipa(i))
        migrate_keys(source, dest)
        applied, skipped, _ = migrate_keys(source, dest)
        assert applied == 0
        assert skipped == 10

    def test_cursor_resumes_suffix_only(self):
        source, dest = MemoryBackend(), MemoryBackend()
        for i in range(6):
            source.put(ipa(i))
        _, _, cursor = migrate_keys(source, dest)
        for i in range(6, 9):
            source.put(ipa(i))
        applied, skipped, _ = migrate_keys(source, dest, after=cursor)
        assert applied == 3
        assert skipped == 0

    def test_stream_stops_at_the_watermark_it_started_from(self, tmp_path):
        """A writer racing the stream cannot keep one call going (here it
        lands a record for every one-record page pulled); the returned
        cursor drains the rest."""
        source = KVLogBackend(tmp_path / "source.kv", sync=False)
        dest = MemoryBackend()
        for i in range(4):
            source.put(ipa(i))
        scan = source.scan_suffix
        racing = iter(range(100, 200))

        def scan_while_writing(after=0, limit=1024):
            source.put(ipa(next(racing)))
            return scan(after=after, limit=limit)

        source.scan_suffix = scan_while_writing
        try:
            applied, skipped, cursor = migrate_keys(source, dest, page=1)
            assert skipped == 0 and 4 <= applied <= 5
            source.scan_suffix = scan
            migrate_keys(source, dest, after=cursor)
            assert dest.counts() == source.counts()
        finally:
            source.close()

    def test_groups_only_when_asked(self):
        source, dest = MemoryBackend(), MemoryBackend()
        source.put(ipa(0))
        source.put(ga(0))
        migrate_keys(source, dest)
        assert not dest.group_members("session-A")
        migrate_keys(source, dest, include_groups=True)
        assert dest.group_members("session-A")


class TestLiveRebalance:
    def test_add_member_moves_about_one_over_n(self):
        router, _ = make_router(4)
        written = seed(router, 200)
        report = router.add_member("store-04", MemoryBackend())
        assert 0 < report.moved_fraction < 1 / 5 + 0.12
        assert router.placement.epoch == 1
        assert "store-04" in router.store_names
        assert_all_readable(router, written)

    def test_moved_records_byte_identical_on_new_owner(self):
        router, stores = make_router(3)
        written = seed(router, 120)
        originals = {
            a.interaction_key: a.to_xml().serialize() for a in written
        }
        new_store = MemoryBackend()
        router.add_member("store-03", new_store)
        moved_here = [
            a for a in written if router.owner_of(a.interaction_key) == "store-03"
        ]
        assert moved_here, "the new member must own some keys"
        for assertion in moved_here:
            replayed = new_store.interaction_passertions(
                assertion.interaction_key
            )
            assert [r.to_xml().serialize() for r in replayed] == [
                originals[assertion.interaction_key]
            ]

    def test_new_member_receives_broadcast_groups(self):
        router, _ = make_router(3)
        seed(router, 30)
        for i in range(30):
            router.put(ga(i))
        new_store = MemoryBackend()
        router.add_member("store-03", new_store)
        assert len(new_store.group_members("session-A")) == 30

    def test_decommission_moves_only_that_members_share(self):
        router, stores = make_router(4)
        written = seed(router, 200)
        victim_share = sum(
            1 for a in written if router.owner_of(a.interaction_key) == "store-03"
        )
        report = router.decommission("store-03")
        assert "store-03" not in router.store_names
        assert report.moved_keys == pytest.approx(victim_share, abs=2)
        assert_all_readable(router, written)

    def test_decommission_below_replicas_raises_before_moving(self):
        router, _ = make_router(2, replicas=2)
        seed(router, 20)
        with pytest.raises(ValueError):
            router.decommission("store-01")
        assert router.placement.epoch == 0  # nothing began

    def test_rebalance_with_replicas_preserves_replica_sets(self):
        router, stores = make_router(3, replicas=2)
        written = seed(router, 90)
        router.add_member("store-03", MemoryBackend())
        for assertion in written:
            replica_set = router.replica_set(assertion.interaction_key)
            assert len(replica_set) == 2
            for name in replica_set:
                held = router.store(name).interaction_passertions(
                    assertion.interaction_key
                )
                assert any(h.local_id == assertion.local_id for h in held)

    def test_concurrent_writer_loses_nothing(self):
        """A writer thread hammers puts while the migration streams; every
        write it acked must be readable after the cutover."""
        router, _ = make_router(3)
        seed(router, 60)
        acked: list = []
        stop = threading.Event()

        def writer():
            i = 1000
            while not stop.is_set() and i < 1600:
                assertion = ipa(i)
                router.put(assertion)
                acked.append(assertion)
                i += 1

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            report = router.add_member("store-03", MemoryBackend())
        finally:
            stop.set()
            thread.join()
        assert router.placement.epoch == 1
        assert_all_readable(router, acked)
        # dual-commit: anything acked during the window is on its
        # POST-cutover replica set, not just wherever the stream left it
        for assertion in acked:
            owner = router.owner_of(assertion.interaction_key)
            held = router.store(owner).interaction_passertions(
                assertion.interaction_key
            )
            assert any(h.local_id == assertion.local_id for h in held)

    def test_writes_at_phase_boundaries_survive(self):
        """Deterministic version of the concurrent test: writes injected
        at each protocol boundary (post-begin, post-stream, post-tail) are
        exactly the dual-commit windows."""
        router, _ = make_router(3)
        seed(router, 40)
        injected: list = []
        counter = iter(range(2000, 2100))

        def on_phase(phase):
            if phase in ("begin", "stream", "tail"):
                assertion = ipa(next(counter))
                router.put(assertion)
                injected.append((phase, assertion))

        router.add_member("store-03", MemoryBackend(), on_phase=on_phase)
        assert {phase for phase, _ in injected} == {"begin", "stream", "tail"}
        for _phase, assertion in injected:
            owner = router.owner_of(assertion.interaction_key)
            held = router.store(owner).interaction_passertions(
                assertion.interaction_key
            )
            assert any(h.local_id == assertion.local_id for h in held), (
                f"write injected at {_phase!r} missing from post-cutover "
                f"owner {owner!r}"
            )

    def test_dual_commit_leg_after_cutover_skips_its_own_record(self):
        """Whether a share skips duplicates is decided when the write is
        planned: a dual-commit leg that starts only after the cutover
        still converges on the copy the stream put on the new owner."""
        stores = {f"store-{i:02d}": MemoryBackend() for i in range(3)}
        router = StoreRouter(stores, fanout_workers=1)
        ring = PlacementSpec(members=tuple(stores), mode="ring")
        i = next(
            i
            for i in range(500)
            if router.owner_of(key(i)) < ring.owner_of(key(i))
        )
        old, new = router.owner_of(key(i)), ring.owner_of(key(i))
        router.placement.begin_transition(ring)
        record = ipa(i)
        stores[new].put(record)  # the stream got there first
        real_put_many = stores[old].put_many

        def cut_over_first(assertions):
            router.placement.commit_transition()
            return real_put_many(assertions)

        # Width 1 runs the old owner's leg, then the new owner's.
        stores[old].put_many = cut_over_first
        assert router.put(record) == old
        assert not router.placement.in_transition
        for name in (old, new):
            held = stores[name].interaction_passertions(key(i))
            assert [h.local_id for h in held] == [record.local_id]

    def test_broadcast_to_a_joining_member_skips_its_own_record(self):
        """At R=1 a broadcast planned while a member is joining lands on
        the joiner even when the migration stream already put the group
        assertion there: a store takes the re-assertion as a no-op."""
        router, _ = make_router(3)
        joiner = MemoryBackend()
        membership = ga(0)

        def on_phase(phase):
            if phase == "begin":
                joiner.put(membership)  # the stream got there first
                assert router.put(membership) == "*"

        router.add_member("store-03", joiner, on_phase=on_phase)
        for name in router.store_names:
            held = router.store(name).group_members("session-A")
            assert held == [key(0)], name

    def test_batch_planned_across_a_membership_change(self):
        """``put_many`` keys its shares by the members its plan names, so
        a live add_member between two planned assertions strands none."""
        router, _ = make_router(3)
        grown = router.placement.current.with_members(
            router.store_names + ["store-03"]
        )
        stay = next(
            i
            for i in range(500)
            if router.owner_of(key(i)) == grown.owner_of(key(i))
        )
        written = [ipa(stay), ipa(stay + 1)]

        def batch():
            yield written[0]
            router.add_member("store-03", MemoryBackend())
            yield written[1]

        router.put_many(batch())
        assert router.store_names[-1] == "store-03"
        assert_all_readable(router, written)


class TestCrashWindows:
    """Scripted failures at every protocol boundary."""

    @pytest.mark.parametrize("crash_at", ["begin", "stream", "tail"])
    def test_pre_cutover_crash_rolls_back(self, crash_at):
        router, _ = make_router(3)
        written = seed(router, 60)
        before = {a.interaction_key: router.owner_of(a.interaction_key) for a in written}

        def on_phase(phase):
            if phase == crash_at:
                raise RuntimeError(f"injected crash at {phase}")

        with pytest.raises(MigrationError) as err:
            router.add_member("store-03", MemoryBackend(), on_phase=on_phase)
        assert not err.value.committed
        # rolled back: membership, routing and placement all unchanged
        assert "store-03" not in router.store_names
        assert router.placement.members == tuple(sorted(before and router.store_names))
        assert not router.placement.in_transition
        for assertion in written:
            assert router.owner_of(assertion.interaction_key) == before[
                assertion.interaction_key
            ]
        assert_all_readable(router, written)
        # the abort still bumped the epoch: caches must not revalidate
        assert router.placement.epoch == 1

    def test_acked_writes_survive_rollback(self):
        """Writes acked mid-migration dual-committed to the union set, so
        the rollback (back to the CURRENT rule) still covers them."""
        router, _ = make_router(3)
        seed(router, 40)
        mid_writes: list = []

        def on_phase(phase):
            if phase == "stream":
                for i in range(3000, 3010):
                    assertion = ipa(i)
                    router.put(assertion)
                    mid_writes.append(assertion)
            if phase == "tail":
                raise RuntimeError("injected crash before cutover")

        with pytest.raises(MigrationError):
            router.add_member("store-03", MemoryBackend(), on_phase=on_phase)
        assert_all_readable(router, mid_writes)
        for assertion in mid_writes:
            owner = router.owner_of(assertion.interaction_key)
            held = router.store(owner).interaction_passertions(
                assertion.interaction_key
            )
            assert any(h.local_id == assertion.local_id for h in held)

    def test_crashed_migration_resumes_on_rerun(self):
        router, _ = make_router(3)
        written = seed(router, 60)
        armed = {"crash": True}

        def on_phase(phase):
            if phase == "stream" and armed["crash"]:
                armed["crash"] = False
                raise RuntimeError("first attempt dies mid-stream")

        with pytest.raises(MigrationError):
            router.add_member("store-03", MemoryBackend(), on_phase=on_phase)
        # second attempt re-streams (duplicate-skip eats the overlap)
        report = router.add_member(
            "store-03", MemoryBackend(), on_phase=on_phase
        )
        assert router.placement.epoch == 2  # abort bump + cutover bump
        assert "store-03" in router.store_names
        assert_all_readable(router, written)
        assert report.moved_keys > 0

    def test_crash_between_cutover_and_ack_stays_committed(self):
        """A failure AFTER commit_transition leaves the new placement in
        force — the flip is atomic and one-way, and the new member stays
        registered (deregistering it would strand its routed keys)."""
        router, _ = make_router(3)
        written = seed(router, 60)

        def on_phase(phase):
            if phase == "cutover":
                raise RuntimeError("driver dies before acking the caller")

        with pytest.raises(MigrationError) as err:
            router.add_member("store-03", MemoryBackend(), on_phase=on_phase)
        assert err.value.committed
        assert "store-03" in router.store_names
        assert "store-03" in router.placement.members
        assert router.placement.epoch == 1
        assert_all_readable(router, written)

    def test_decommission_crash_after_cutover_still_drops_member(self):
        router, _ = make_router(4)
        written = seed(router, 60)

        def on_phase(phase):
            if phase == "cutover":
                raise RuntimeError("driver dies before acking the caller")

        with pytest.raises(MigrationError) as err:
            router.decommission("store-03", on_phase=on_phase)
        assert err.value.committed
        assert "store-03" not in router.store_names
        assert "store-03" not in router.placement.members
        assert_all_readable(router, written)

    def test_migration_participants_reported_during_transition(self):
        router, _ = make_router(3)
        seed(router, 30)
        observed: dict = {}

        def on_phase(phase):
            if phase == "stream":
                observed["participants"] = router.migration_participants()

        router.add_member("store-03", MemoryBackend(), on_phase=on_phase)
        assert "store-03" in observed["participants"]
        assert set(observed["participants"]) >= {"store-00", "store-03"}
        assert router.migration_participants() == []  # idle again


class TestCachePoisoning:
    def test_epoch_invalidates_generation_vector(self):
        router, _ = make_router(3)
        seed(router, 30)
        before = router.generation_vector()
        assert before.fresh(router.generation_vector())
        router.add_member("store-03", MemoryBackend())
        after = router.generation_vector()
        assert not before.fresh(after)
        assert after.epoch == 1

    def test_vector_never_fresh_while_migrating(self):
        router, _ = make_router(3)
        seed(router, 30)
        vectors: list = []

        def on_phase(phase):
            if phase in ("begin", "stream"):
                vectors.append(router.generation_vector())

        router.add_member("store-03", MemoryBackend(), on_phase=on_phase)
        assert len(vectors) == 2
        assert not vectors[0].fresh(vectors[1])  # per-observation nonce

    def test_federated_merge_reflects_new_member_immediately(self):
        router, _ = make_router(3)
        written = seed(router, 60)
        fed = FederatedQueryClient(router)
        assert len(fed.interaction_keys()) == len(
            {a.interaction_key for a in written}
        )
        router.add_member("store-03", MemoryBackend())
        extra = ipa(9000)
        router.put(extra)
        assert extra.interaction_key in fed.interaction_keys()


class TestConsolidateAfterRebalance:
    def test_counts_survive_rebalance(self):
        """Rebalance physically duplicates moved keys on append-only
        members; the federated counts must still see each record once."""
        router, _ = make_router(3)
        written = seed(router, 90)
        fed = FederatedQueryClient(router)
        before = fed.counts()
        router.add_member("store-03", MemoryBackend())
        after = fed.counts()
        assert after == before

    def test_consolidate_dedupes_after_rebalance(self):
        router, _ = make_router(3)
        written = seed(router, 60)
        for i in range(10):
            router.put(ga(i))
        router.add_member("store-03", MemoryBackend())
        target = MemoryBackend()
        moved_p, moved_g = consolidate(router, target)
        assert moved_p == len(written)
        assert moved_g == 10
        counts = target.counts()
        assert counts.interaction_passertions == len(written)

    def test_consolidate_still_strict_on_pristine_fleet(self):
        router, stores = make_router(3, mode="modulo")
        seed(router, 20)
        # corrupt the invariant: copy a record onto a second member
        sample = stores["store-00"].all_assertions()
        donor = next(
            a for a in sample if not isinstance(a, GroupAssertion)
        )
        stores["store-01"].put(donor)
        with pytest.raises(RuntimeError, match="routing invariant"):
            consolidate(router, MemoryBackend())


class TestFleetFactoryMigration:
    """sharded_store_fleet wiring: factory-built member add/retire."""

    def test_inprocess_add_worker_and_reopen(self, tmp_path):
        root = tmp_path / "fleet"
        router = sharded_store_fleet(root, members=3, placement="ring")
        written = seed(router, 90)
        name, report = router.add_worker()
        assert name == "store-03"
        assert (root / "store-03").exists()
        assert report.moved_keys > 0
        assert_all_readable(router, written)
        router.close()
        reopened = sharded_store_fleet(root, members=4, placement="ring")
        assert_all_readable(reopened, written)
        reopened.close()

    def test_inprocess_decommission_retires_directory(self, tmp_path):
        root = tmp_path / "fleet"
        router = sharded_store_fleet(root, members=3, placement="ring")
        written = seed(router, 60)
        router.decommission("store-01")
        assert not (root / "store-01").exists()
        assert (root / "retired-store-01").exists()
        assert_all_readable(router, written)
        router.close()
        # reopen sees 2 member dirs and the recorded 2-member placement
        reopened = sharded_store_fleet(root, members=2, placement="ring")
        assert sorted(reopened.store_names) == ["store-00", "store-02"]
        assert_all_readable(reopened, written)
        reopened.close()

    def test_reopen_with_wrong_placement_mode_fails_loudly(self, tmp_path):
        from repro.store.placement import PlacementMismatchError

        root = tmp_path / "fleet"
        router = sharded_store_fleet(root, members=2, placement="ring")
        seed(router, 10)
        router.close()
        with pytest.raises(PlacementMismatchError):
            sharded_store_fleet(root, members=2, placement="modulo")

    def test_reopen_with_wrong_replicas_fails_loudly(self, tmp_path):
        from repro.store.placement import PlacementMismatchError

        root = tmp_path / "fleet"
        router = sharded_store_fleet(root, members=3, replicas=2)
        router.close()
        with pytest.raises(PlacementMismatchError):
            sharded_store_fleet(root, members=3, replicas=1)

    def test_failed_add_worker_retires_debris(self, tmp_path):
        root = tmp_path / "fleet"
        router = sharded_store_fleet(root, members=2, placement="ring")
        seed(router, 40)

        def on_phase(phase):
            if phase == "stream":
                raise RuntimeError("injected crash")

        with pytest.raises(MigrationError):
            router.add_worker(on_phase=on_phase)
        assert "store-02" not in router.store_names
        assert not (root / "store-02").exists()
        assert (root / "retired-store-02").exists()
        # retry allocates a fresh slot and succeeds
        name, _report = router.add_worker()
        assert name == "store-02"
        router.close()

    def test_legacy_modulo_fleet_unchanged(self, tmp_path):
        """The default placement is still the paper's modulo rule, and a
        modulo fleet routes identically to the pre-placement router."""
        from repro.store.distributed import _hash_to_bucket

        router = sharded_store_fleet(tmp_path / "fleet", members=3)
        names = sorted(router.store_names)
        for i in range(50):
            assert router.owner_of(key(i)) == names[_hash_to_bucket(key(i), 3)]
        router.close()


class TestProcessFleetMigration:
    """The same protocol over real worker processes (slow: ~1 s/worker)."""

    def test_live_grow_and_shrink_over_sockets(self, tmp_path):
        root = tmp_path / "fleet"
        router = sharded_store_fleet(
            root, members=2, placement="ring", transport="process"
        )
        try:
            written = seed(router, 40)
            name, report = router.add_worker()
            assert name == "store-02"
            assert report.moved_keys > 0
            assert router.placement.epoch == 1
            assert_all_readable(router, written)
            router.decommission("store-00")
            assert (root / "retired-store-00").exists()
            assert_all_readable(router, written)
        finally:
            router.close()
        # the survivors reopen (process layout == in-process layout)
        reopened = sharded_store_fleet(root, members=2, placement="ring")
        assert sorted(reopened.store_names) == ["store-01", "store-02"]
        assert_all_readable(reopened, written)
        reopened.close()

    def test_new_worker_dies_mid_stream_rolls_back_then_retry_succeeds(
        self, tmp_path
    ):
        """The crash-sim acceptance: the migration's destination worker is
        SIGKILLed while the stream runs.  The migration must roll back
        with every acked write intact, and a retry (on a fresh worker)
        must complete."""
        root = tmp_path / "fleet"
        router = sharded_store_fleet(
            root, members=2, placement="ring", transport="process"
        )
        try:
            written = seed(router, 40)
            old_members = set(router.placement.members)

            def kill_new_worker(phase):
                if phase == "begin":
                    (joining,) = (
                        set(router.migration_participants()) - old_members
                    )
                    router.fleet.kill(joining)

            with pytest.raises(MigrationError) as err:
                router.add_worker(on_phase=kill_new_worker)
            assert not err.value.committed
            # rolled back: placement and membership unchanged, epoch bumped
            assert set(router.placement.members) == old_members
            assert sorted(router.store_names) == sorted(old_members)
            assert not router.placement.in_transition
            assert router.placement.epoch == 1
            assert_all_readable(router, written)
            # the dead worker's debris is retired, its slot freed
            assert (root / "retired-store-02").exists()
            # retry on a fresh worker completes and loses nothing
            name, report = router.add_worker()
            assert name == "store-02"
            assert report.moved_keys > 0
            assert_all_readable(router, written)
        finally:
            router.close()


class TestFederatedStoreAdapter:
    def test_adapter_serves_store_interface_over_fleet(self):
        router, _ = make_router(3)
        adapter = FederatedStoreAdapter(router)
        written = []
        for i in range(30):
            assertion = ipa(i)
            adapter.put(assertion)
            written.append(assertion)
        assert adapter.put_many([ipa(i) for i in range(30, 40)]) == 10
        assert len(adapter.interaction_keys()) == 40
        for assertion in written:
            assert any(
                s.local_id == assertion.local_id
                for s in adapter.interaction_passertions(assertion.interaction_key)
            )
        counts = adapter.counts()
        assert counts.interaction_passertions == 40

    def test_adapter_generation_token_tracks_epoch(self):
        router, _ = make_router(3)
        adapter = FederatedStoreAdapter(router)
        adapter.put(ipa(0))
        token = adapter.generation_token()
        assert token.fresh(adapter.generation_token())
        router.add_member("store-03", MemoryBackend())
        assert not token.fresh(adapter.generation_token())
