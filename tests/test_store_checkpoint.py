"""Index checkpoints: snapshot container, O(tail) reopen, truncation.

Covers the :mod:`repro.store.checkpoint` container format and fallback
ladder, the backends' snapshot-then-tail ``_replay``, retention-gated
log-prefix truncation, the :class:`~repro.store.interface.ResyncCapable`
protocol, and the maintenance scheduler's checkpoint policy.  The
crash-window simulations live alongside the other durability drills in
``tests/test_store_crash_recovery.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.soa.xmldoc import XmlElement
from repro.store import make_backend
from repro.store.backends import FileSystemBackend, KVLogBackend, MemoryBackend
from repro.store.checkpoint import (
    CheckpointStats,
    SnapshotError,
    list_snapshots,
    load_index_checkpoint,
    load_latest_snapshot,
    pack_entries,
    prune_snapshots,
    read_snapshot,
    snapshot_dir_for,
    sweep_snapshot_debris,
    truncatable_watermark,
    unpack_entries,
    write_snapshot,
)
from repro.store.interface import ResyncCapable, StoreIndex
from repro.store.maintenance import CompactionScheduler

from tests.test_store_backends import ga, ipa, key, spa


def fill(store, n=6):
    for i in range(n):
        store.put(ipa(i))
    store.put_many([spa(i) for i in range(n)] + [ga(0)])


def state(store):
    return (
        store.counts(),
        store.interaction_keys(),
        store.group_ids(),
        store.generation,
        store.sequence_watermark(),
        store.scan_suffix(after=0, limit=10_000),
    )


def make_store(kind: str, root, **kwargs):
    if kind == "filesystem":
        return FileSystemBackend(root / "fs", sync=False, **kwargs)
    return KVLogBackend(root / "kv", sync=False, **kwargs)


#: the backends the reopen-equivalence contract covers.
GRID = ["kvlog", "filesystem"]


# ---------------------------------------------------------------------------
# The snapshot container
# ---------------------------------------------------------------------------

class TestSnapshotContainer:
    def test_write_read_round_trip(self, tmp_path):
        path = write_snapshot(
            tmp_path, 42, b"payload bytes", meta={"records": 3}
        )
        snap = read_snapshot(path)
        assert snap.watermark == 42
        assert snap.payload == b"payload bytes"
        assert snap.codec == "gzip"
        assert snap.meta == {"records": 3}
        assert list_snapshots(tmp_path) == [path]

    def test_watermark_stamped_names_sort_in_watermark_order(self, tmp_path):
        for wm in (7, 100, 3):
            write_snapshot(tmp_path, wm, b"x", retain=10)
        assert [read_snapshot(p).watermark for p in list_snapshots(tmp_path)] == [
            3,
            7,
            100,
        ]

    def test_invalid_arguments_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_snapshot(tmp_path, -1, b"x")
        with pytest.raises(ValueError):
            write_snapshot(tmp_path, 1, b"x", retain=0)
        with pytest.raises(ValueError):
            prune_snapshots(tmp_path, retain=0)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda blob: b"NOTSNAP\n" + blob[8:],           # bad magic
            lambda blob: blob[:6],                           # torn before header
            lambda blob: blob[:-4],                          # torn payload
            lambda blob: blob + b"overhang",                 # oversized payload
            lambda blob: blob[:-4] + bytes(4),               # CRC mismatch
        ],
    )
    def test_damaged_container_raises_snapshot_error(self, tmp_path, damage):
        path = write_snapshot(tmp_path, 5, b"p" * 64)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(SnapshotError):
            read_snapshot(path)

    def test_loader_skips_corrupt_newest(self, tmp_path):
        write_snapshot(tmp_path, 10, b"older", retain=10)
        newest = write_snapshot(tmp_path, 20, b"newer", retain=10)
        newest.write_bytes(b"garbage")
        snap = load_latest_snapshot(tmp_path)
        assert snap is not None and snap.watermark == 10
        newest.unlink()
        (tmp_path / "snapshot-0000000000000010.psnap").write_bytes(b"also bad")
        assert load_latest_snapshot(tmp_path) is None

    def test_write_prunes_beyond_retain_and_sweeps_debris(self, tmp_path):
        (tmp_path / "snapshot-0000000000000001.psnap.tmp").write_bytes(b"torn")
        for wm in (1, 2, 3):
            write_snapshot(tmp_path, wm, b"x", retain=2)
        assert [read_snapshot(p).watermark for p in list_snapshots(tmp_path)] == [
            2,
            3,
        ]
        assert not list(tmp_path.glob("*.psnap.tmp"))
        (tmp_path / "junk.psnap.tmp").write_bytes(b"torn")
        assert sweep_snapshot_debris(tmp_path) == 1

    def test_truncation_gated_on_full_retention_set(self, tmp_path):
        # One snapshot < retain: nothing is truncatable yet.
        write_snapshot(tmp_path, 10, b"a", retain=2)
        assert truncatable_watermark(tmp_path, retain=2) == 0
        # Two snapshots: only history below the *older* one may go.
        write_snapshot(tmp_path, 20, b"b", retain=2)
        assert truncatable_watermark(tmp_path, retain=2) == 10
        # A corrupt rung does not count toward the retention set.
        newest = write_snapshot(tmp_path, 30, b"c", retain=2)
        newest.write_bytes(b"rot")
        assert truncatable_watermark(tmp_path, retain=2) == 0

    def test_pack_unpack_entries_round_trip_and_damage(self):
        payload = pack_entries([3, 5, 9], b"index-blob")
        assert unpack_entries(payload) == ([3, 5, 9], b"index-blob")
        with pytest.raises(SnapshotError):
            unpack_entries(b"\x01")
        with pytest.raises(SnapshotError):
            unpack_entries(payload[:12])  # promises 3 seqs, truncated


class TestStoreIndexSerialization:
    def test_serialize_restore_round_trip(self, tmp_path):
        store = make_store("kvlog", tmp_path)
        fill(store)
        blob = store._index.serialize()
        index = StoreIndex()
        restored = index.restore(blob)
        assert len(restored) == store._index.record_count
        assert index.counts() == store._index.counts()
        assert index.interaction_keys() == store._index.interaction_keys()
        assert index.generation == store._index.generation
        store.close()

    def test_restore_refuses_non_empty_index_and_bad_tag(self, tmp_path):
        store = make_store("kvlog", tmp_path)
        fill(store)
        blob = store._index.serialize()
        store.close()
        index = StoreIndex()
        index.restore(blob)
        with pytest.raises(ValueError):
            index.restore(blob)  # non-empty target
        import pickle

        bad = pickle.dumps(("store-index/999", []))
        with pytest.raises(ValueError):
            StoreIndex().restore(bad)


# ---------------------------------------------------------------------------
# Backend checkpoint + reopen
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", GRID)
class TestCheckpointedReopen:
    def test_snapshot_then_tail_reopen_matches_full_state(self, tmp_path, kind):
        store = make_store(kind, tmp_path)
        fill(store, n=8)
        store.checkpoint()
        # Tail past the watermark: replayed from the log at reopen.
        store.put_many([ipa(i) for i in range(100, 106)])
        expected = state(store)
        store.close()
        reopened = make_store(kind, tmp_path)
        assert state(reopened) == expected
        stats = reopened.checkpoint_stats
        assert stats.recovery_mode == "snapshot+tail"
        assert stats.tail_records == 6
        assert stats.snapshot_records > 0
        assert stats.open_s >= 0.0
        reopened.close()

    def test_no_snapshot_means_full_replay(self, tmp_path, kind):
        store = make_store(kind, tmp_path)
        fill(store)
        store.close()
        reopened = make_store(kind, tmp_path)
        assert reopened.checkpoint_stats.recovery_mode == "full-replay"
        assert reopened.checkpoint_stats.last_watermark == 0
        reopened.close()

    def test_second_checkpoint_truncates_and_reopen_still_complete(
        self, tmp_path, kind
    ):
        store = make_store(kind, tmp_path)
        fill(store, n=8)
        store.checkpoint()  # first: no truncation yet (retention gate)
        assert store.checkpoint_stats.bytes_truncated == 0
        store.put_many([ipa(i) for i in range(200, 208)])
        store.checkpoint()  # second: prefix below snapshot 1 is droppable
        assert store.checkpoint_stats.bytes_truncated > 0
        store.put(ipa(300))
        expected = state(store)
        store.close()
        reopened = make_store(kind, tmp_path)
        assert state(reopened) == expected
        # Writes keep flowing after a truncated reopen.
        reopened.put(ipa(301))
        assert key(301) in reopened.interaction_keys()
        reopened.close()

    def test_corrupt_newest_snapshot_falls_back_to_older(self, tmp_path, kind):
        store = make_store(kind, tmp_path)
        fill(store, n=8)
        store.checkpoint()
        store.put_many([ipa(i) for i in range(400, 404)])
        store.checkpoint()
        expected = state(store)
        snaps = list_snapshots(store._ckpt_dir)
        store.close()
        snaps[-1].write_bytes(b"bitrot")
        reopened = make_store(kind, tmp_path)
        assert state(reopened) == expected
        assert reopened.checkpoint_stats.recovery_mode == "snapshot+tail"
        reopened.close()

    def test_all_snapshots_corrupt_means_full_replay_of_tail(self, tmp_path, kind):
        # Only the *first* checkpoint (no truncation) — the log still holds
        # everything, so rotting every snapshot must fall back cleanly.
        store = make_store(kind, tmp_path)
        fill(store, n=8)
        store.checkpoint()
        expected = state(store)
        snaps = list_snapshots(store._ckpt_dir)
        store.close()
        for snap in snaps:
            snap.write_bytes(b"rot")
        reopened = make_store(kind, tmp_path)
        assert state(reopened) == expected
        assert reopened.checkpoint_stats.recovery_mode == "full-replay"
        reopened.close()

    def test_checkpoint_concurrent_writer_safe(self, tmp_path, kind):
        import threading

        store = make_store(kind, tmp_path)
        fill(store, n=4)
        errors = []

        def writer():
            try:
                for i in range(500, 540):
                    store.put(ipa(i))
            except Exception as exc:  # pragma: no cover - failure capture
                errors.append(exc)

        thread = threading.Thread(target=writer)
        thread.start()
        store.checkpoint()
        store.checkpoint()
        thread.join()
        assert not errors
        expected = state(store)
        store.close()
        reopened = make_store(kind, tmp_path)
        assert state(reopened) == expected
        reopened.close()


@pytest.mark.parametrize("kind", GRID)
@settings(max_examples=8, deadline=None)
@given(plan=st.lists(st.integers(min_value=-1, max_value=30), max_size=14))
def test_property_checkpoint_reopen_equals_full_replay(tmp_path_factory, kind, plan):
    """Reopen-from-checkpoint ≡ full-replay reopen, byte for byte.

    ``plan`` interleaves writes (non-negative: put that record id) and
    checkpoints (-1) into a checkpointed store, while a twin store
    receives the identical write stream and never checkpoints.  After
    closing and reopening both, every index-visible query and the resync
    stream must be identical.
    """
    root = tmp_path_factory.mktemp("ckpt-prop")
    ckpt = make_store(kind, root / "a")
    twin = make_store(kind, root / "b")
    seen = set()
    for op in plan:
        if op < 0:
            ckpt.checkpoint()
            continue
        if op in seen:
            continue  # duplicate assertions are rejected by contract
        seen.add(op)
        ckpt.put(ipa(op))
        twin.put(ipa(op))
    ckpt.put_many([spa(1000), ga(0)])
    twin.put_many([spa(1000), ga(0)])
    ckpt.close()
    twin.close()
    ckpt = make_store(kind, root / "a")
    twin = make_store(kind, root / "b")
    assert state(ckpt) == state(twin)
    ckpt.close()
    twin.close()


# ---------------------------------------------------------------------------
# ResyncCapable protocol
# ---------------------------------------------------------------------------

class TestResyncCapableProtocol:
    def test_backends_conform(self, tmp_path):
        fs = FileSystemBackend(tmp_path / "fs")
        kv = KVLogBackend(tmp_path / "kv", sync=False)
        try:
            assert isinstance(fs, ResyncCapable)
            assert isinstance(kv, ResyncCapable)
        finally:
            fs.close()
            kv.close()

    def test_memory_backend_does_not_conform(self):
        assert not isinstance(MemoryBackend(), ResyncCapable)

    def test_remote_store_conforms_structurally(self):
        from repro.fleet.remote import RemoteStore

        assert issubclass(RemoteStore, ResyncCapable)

    def test_scan_suffix_serves_index_state_after_truncation(self, tmp_path):
        store = make_store("kvlog", tmp_path)
        fill(store, n=8)
        full = store.scan_suffix(after=0, limit=10_000)
        store.checkpoint()
        store.put(ipa(700))
        store.checkpoint()  # truncates the covered prefix
        assert store.checkpoint_stats.bytes_truncated > 0
        # The resync stream still reaches back past the truncation point.
        after_truncate = store.scan_suffix(after=0, limit=10_000)
        assert after_truncate[: len(full)] == full
        # And the cursor form pages exactly like before (``after`` is a
        # resume cursor: inclusive, the next cursor is last seq + 1).
        mid = full[len(full) // 2][0]
        assert store.scan_suffix(after=mid) == [
            e for e in after_truncate if e[0] >= mid
        ]
        store.close()


# ---------------------------------------------------------------------------
# Scheduler checkpoint policy
# ---------------------------------------------------------------------------

class TestSchedulerCheckpointPolicy:
    def test_tick_runs_checkpoint_when_tail_exceeds_bound(self, tmp_path):
        store = make_store("kvlog", tmp_path, checkpoint_bytes=1)
        scheduler = CompactionScheduler(min_reclaim_bytes=1)
        scheduler.register(store, name="kv")
        try:
            fill(store, n=8)
            assert store.checkpoint_candidates()
            event = scheduler.tick(force=True)
            assert event is not None and event.kind == "checkpoint"
            assert store.checkpoint_stats.snapshots_taken == 1
            # Tail is now covered: the candidate disappears until new writes.
            assert store.checkpoint_candidates() == []
            stats = scheduler.stats()
            assert stats.checkpoints_run == 1
            assert stats.compactions_run == 0
            # Second round: writes → candidate returns → truncation counts.
            store.put_many([ipa(i) for i in range(800, 808)])
            event = scheduler.tick(force=True)
            assert event is not None and event.kind == "checkpoint"
            assert event.reclaimed > 0
            assert scheduler.stats().checkpoint_bytes_truncated > 0
        finally:
            scheduler.stop()
            store.close()

    def test_unarmed_store_publishes_no_checkpoint_candidates(self, tmp_path):
        store = make_store("kvlog", tmp_path)
        try:
            fill(store)
            assert store.checkpoint_candidates() == []
        finally:
            store.close()

    def test_checkpoint_refused_with_in_doubt_writes(self, tmp_path):
        store = make_store("kvlog", tmp_path)
        fill(store)
        # Simulate an index/persist divergence (an in-doubt write): the
        # checkpoint must refuse rather than launder it into a snapshot.
        store._entries.pop()
        with pytest.raises(SnapshotError):
            store.checkpoint()
        store.close()


# ---------------------------------------------------------------------------
# Factory plumbing + fleet admin surface
# ---------------------------------------------------------------------------

class TestFactoryAndFleetSurface:
    def test_make_backend_threads_checkpoint_bytes(self, tmp_path):
        store = make_backend(
            "kvlog", tmp_path / "kv", sync=False, checkpoint_bytes=4096
        )
        try:
            assert store.checkpoint_bytes == 4096
        finally:
            store.close()

    def test_memory_backend_rejects_checkpoint_bytes(self):
        with pytest.raises(ValueError, match="checkpoint_bytes"):
            make_backend("memory", checkpoint_bytes=4096)

    def test_worker_admin_checkpoint_ops(self, tmp_path):
        from repro.fleet.worker import FleetWorkerActor
        from repro.soa.envelope import Fault

        backend = make_store("kvlog", tmp_path)
        actor = FleetWorkerActor(backend, endpoint="w0")
        try:
            fill(backend)
            result = actor.op_admin(XmlElement("admin", {"op": "checkpoint"}))
            assert result.attrs["snapshot"].endswith(".psnap")
            stats = actor.op_admin(
                XmlElement("admin", {"op": "checkpoint-stats"})
            )
            assert stats.attrs["snapshots"] == "1"
            # A fresh directory replays an empty log: still "full-replay".
            assert stats.attrs["recovery-mode"] == "full-replay"
            assert int(stats.attrs["watermark"]) == backend.sequence_watermark()
        finally:
            backend.close()

    def test_worker_admin_checkpoint_rejected_without_support(self):
        from repro.fleet.worker import FleetWorkerActor
        from repro.soa.envelope import Fault

        actor = FleetWorkerActor(MemoryBackend(), endpoint="w0")
        for op in ("checkpoint", "checkpoint-stats"):
            with pytest.raises(Fault):
                actor.op_admin(XmlElement("admin", {"op": op}))

    def test_checkpoint_stats_wire_round_trip(self):
        stats = CheckpointStats(
            snapshots_taken=2,
            last_watermark=17,
            recovery_mode="snapshot+tail",
            tail_records=3,
        )
        wire = stats.as_wire()
        assert wire["snapshots"] == "2"
        assert wire["watermark"] == "17"
        assert wire["recovery-mode"] == "snapshot+tail"
        assert wire["tail-records"] == "3"
        assert all(isinstance(v, str) for v in wire.values())
