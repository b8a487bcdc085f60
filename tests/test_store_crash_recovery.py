"""Crash-recovery and durability tests for the persistent backends.

Simulated crashes (kill before rename, partial trailing write, stray
debris) must never lose a committed segment and never prevent the store
from reopening; fsync discipline and the ``sync=False`` opt-outs are
asserted by counting the actual fsync calls.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.store.backends import FileSystemBackend, KVLogBackend, MemoryBackend
from repro.store.checkpoint import list_snapshots, snapshot_dir_for
from repro.store.interface import DuplicateAssertionError
from repro.store.kvlog import CorruptRecordError, KVLog

from tests.test_store_backends import ga, ipa, key, spa


def fill(store, n=6):
    for i in range(n):
        store.put(ipa(i))
    store.put_many([spa(i) for i in range(n)] + [ga(0)])


def state(store):
    return (store.counts(), store.interaction_keys(), store.group_ids())


class TestFileSystemReplayRobustness:
    def test_stray_files_are_ignored(self, tmp_path):
        store = FileSystemBackend(tmp_path / "fs")
        fill(store)
        expected = state(store)
        store.close()
        # Debris a crash, an editor, or an operator can leave behind.
        (tmp_path / "fs" / "README.xml").write_text("<notes>not ours</notes>")
        (tmp_path / "fs" / "backup-00000001.xml").write_text("<old/>")
        (tmp_path / "fs" / "notes.txt").write_text("unrelated")
        reopened = FileSystemBackend(tmp_path / "fs")
        assert state(reopened) == expected
        reopened.close()

    def test_leftover_tmp_from_crash_before_rename_is_ignored(self, tmp_path):
        store = FileSystemBackend(tmp_path / "fs")
        fill(store)
        expected = state(store)
        next_name = f"{store._seq:08d}"
        store.close()
        # Crash before os.replace: the tmp file exists, the .xml does not.
        (tmp_path / "fs" / f"{next_name}.tmp").write_text("<segment count='3'><trunca")
        reopened = FileSystemBackend(tmp_path / "fs")
        assert state(reopened) == expected
        # The store keeps accepting writes at the interrupted sequence.
        reopened.put(ipa(90))
        reopened.close()
        final = FileSystemBackend(tmp_path / "fs")
        assert key(90) in final.interaction_keys()
        final.close()

    @pytest.mark.parametrize("tail", ["", "<segment count='2'><pa", "\x00\x00\x00"])
    def test_torn_trailing_file_is_tolerated(self, tmp_path, tail):
        store = FileSystemBackend(tmp_path / "fs")
        fill(store)
        expected = state(store)
        next_name = f"{store._seq:08d}.xml"
        store.close()
        # Crash mid-write after the rename was already visible (or a torn
        # page): the *trailing* segment is unparsable.
        (tmp_path / "fs" / next_name).write_text(tail)
        reopened = FileSystemBackend(tmp_path / "fs")
        assert state(reopened) == expected
        reopened.close()

    def test_mid_sequence_corruption_refuses_to_replay(self, tmp_path):
        store = FileSystemBackend(tmp_path / "fs")
        fill(store)
        store.close()
        segments = sorted((tmp_path / "fs").glob("*.xml"))
        assert len(segments) >= 2
        segments[0].write_text("<segment count='1'><torn")  # not the last one
        with pytest.raises(CorruptRecordError, match="mid-sequence"):
            FileSystemBackend(tmp_path / "fs")

    def test_committed_segments_survive_torn_tail(self, tmp_path):
        """The crash-recovery contract end to end: everything acknowledged
        before the crash replays; the torn tail never blocks reopening."""
        store = FileSystemBackend(tmp_path / "fs", segment_size=4)
        store.put_many([ipa(i) for i in range(8)])  # two committed segments
        store.put(ipa(50))
        expected = state(store)
        next_name = f"{store._seq:08d}.xml"
        store.close()
        (tmp_path / "fs" / next_name).write_text("<segment coun")  # torn write
        reopened = FileSystemBackend(tmp_path / "fs", segment_size=4)
        assert state(reopened) == expected
        reopened.close()


class TestFsyncDiscipline:
    @pytest.fixture
    def fsync_counter(self, monkeypatch):
        calls = []
        real = os.fsync

        def counting(fd):
            calls.append(fd)
            return real(fd)

        monkeypatch.setattr(os, "fsync", counting)
        return calls

    def test_filesystem_write_fsyncs_file_and_directory(
        self, tmp_path, fsync_counter
    ):
        store = FileSystemBackend(tmp_path / "fs")
        fsync_counter.clear()
        store.put(ipa(1))
        # One fsync for the segment file, one for the directory entry.
        assert len(fsync_counter) == 2
        store.close()

    def test_filesystem_sync_false_skips_fsync(self, tmp_path, fsync_counter):
        store = FileSystemBackend(tmp_path / "fs", sync=False)
        fsync_counter.clear()
        store.put(ipa(1))
        store.put_many([ipa(2), ipa(3)])
        assert fsync_counter == []
        store.close()
        reopened = FileSystemBackend(tmp_path / "fs", sync=False)
        assert reopened.counts().interaction_passertions == 3
        reopened.close()

    def test_kvlog_compact_fsyncs_replacement_and_directory(
        self, tmp_path, fsync_counter
    ):
        log = KVLog(tmp_path / "db")
        for i in range(10):
            log.put(b"hot", b"v%d" % i)
        fsync_counter.clear()
        log.compact()
        # The rewritten log file and its directory, before/after the rename.
        assert len(fsync_counter) == 2
        assert log.get(b"hot") == b"v9"
        log.close()

    def test_kvlog_creation_fsyncs_directory_entry(self, tmp_path, fsync_counter):
        fsync_counter.clear()
        log = KVLog(tmp_path / "fresh.db")
        assert len(fsync_counter) == 1  # the new file's directory entry
        fsync_counter.clear()
        log.close()
        reopened = KVLog(tmp_path / "fresh.db")  # existing file: no dir fsync
        assert fsync_counter == []
        reopened.close()

    def test_kvlog_compact_sync_false_skips_fsync(self, tmp_path, fsync_counter):
        log = KVLog(tmp_path / "db", sync=False)
        for i in range(10):
            log.put(b"hot", b"v%d" % i)
        fsync_counter.clear()
        log.compact()
        assert fsync_counter == []
        log.close()

    def test_compact_crash_before_rename_leaves_old_log(self, tmp_path, monkeypatch):
        log = KVLog(tmp_path / "db")
        for i in range(10):
            log.put(b"k%d" % i, b"v%d" % i)
        expected = dict(log.items())

        def crash(*args, **kwargs):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(OSError, match="simulated crash"):
            log.compact()
        monkeypatch.undo()
        # No temp debris, and the *live* log keeps serving reads and writes
        # — a failed compaction must not leave the handle half-closed.
        assert list(tmp_path.glob("*.compact")) == []
        assert dict(log.items()) == expected
        log.put(b"after", b"crash")
        assert log.get(b"after") == b"crash"
        log.close()
        with KVLog(tmp_path / "db") as reopened:
            expected[b"after"] = b"crash"
            assert dict(reopened.items()) == expected

    def test_compact_dir_sync_failure_still_switches_to_new_file(
        self, tmp_path, monkeypatch
    ):
        import repro.store.kvlog as kvlog_mod

        log = KVLog(tmp_path / "db")
        for i in range(10):
            log.put(b"hot", b"v%d" % i)

        def failing_dir_sync(path):
            raise OSError("simulated EIO on directory sync")

        monkeypatch.setattr(kvlog_mod, "fsync_dir", failing_dir_sync)
        with pytest.raises(OSError, match="EIO"):
            log.compact()
        monkeypatch.undo()
        # The rename already happened, so the handle must now be on the
        # compacted file — writes after the failure must reach disk, not
        # the unlinked pre-compaction inode.
        log.put(b"after", b"failure")
        log.close()
        with KVLog(tmp_path / "db") as reopened:
            assert reopened.get(b"hot") == b"v9"
            assert reopened.get(b"after") == b"failure"

    def test_new_store_directory_chain_is_fsynced(self, tmp_path, fsync_counter):
        fsync_counter.clear()
        store = FileSystemBackend(tmp_path / "deep" / "nested" / "fs")
        # Two created directory levels + the fs root itself, each fsynced
        # into its parent (exact count depends on the chain length; what
        # matters is that creation is not fsync-free).
        assert len(fsync_counter) >= 3
        store.close()
        fsync_counter.clear()
        unsynced = FileSystemBackend(tmp_path / "other" / "fs", sync=False)
        assert fsync_counter == []
        unsynced.close()


class TestPutManyErrorChaining:
    class ExplodingPersist(MemoryBackend):
        def __init__(self):
            super().__init__()
            self.explode = False

        def _persist_many(self, assertions):
            if self.explode:
                raise RuntimeError("backend persist failed")

    def test_index_error_not_masked_by_persist_error(self):
        store = self.ExplodingPersist()
        store.put(ipa(1))
        store.explode = True
        # The duplicate stops the batch *and* the prefix persist fails: the
        # caller must still see the duplicate, with the persist failure
        # chained as its cause.
        with pytest.raises(DuplicateAssertionError) as excinfo:
            store.put_many([ipa(2), ipa(1), ipa(3)])
        assert isinstance(excinfo.value.__cause__, RuntimeError)
        assert "persist failed" in str(excinfo.value.__cause__)

    def test_index_error_alone_still_propagates(self):
        store = self.ExplodingPersist()
        store.put(ipa(1))
        with pytest.raises(DuplicateAssertionError) as excinfo:
            store.put_many([ipa(2), ipa(1)])
        assert excinfo.value.__cause__ is None

    def test_persist_error_alone_still_propagates(self):
        store = self.ExplodingPersist()
        store.explode = True
        with pytest.raises(RuntimeError, match="persist failed"):
            store.put_many([ipa(1), ipa(2)])


# -- dead-byte accounting invariant ------------------------------------------

_ops = st.lists(
    st.tuples(
        st.sampled_from(["put", "put_many", "delete", "compact"]),
        st.lists(
            st.tuples(
                st.binary(min_size=1, max_size=5),
                st.binary(min_size=0, max_size=16),
            ),
            min_size=1,
            max_size=6,
        ),
    ),
    max_size=30,
)


@given(ops=_ops)
@settings(max_examples=40, deadline=None)
def test_property_dead_bytes_identical_after_reopen(tmp_path_factory, ops):
    """The in-process dead-byte counter equals the one a reopen recomputes,
    whatever mix of put/put_many/delete/compact produced the log."""
    path = tmp_path_factory.mktemp("deadbytes") / "db"
    with KVLog(path, sync=False) as log:
        for op, pairs in ops:
            if op == "put":
                log.put(*pairs[0])
            elif op == "put_many":
                log.put_many(pairs)
            elif op == "compact":
                log.compact()
            else:
                log.delete(pairs[0][0])
        live_counter = log.dead_bytes
        live_items = dict(log.items())
    with KVLog(path, sync=False) as reopened:
        assert reopened.dead_bytes == live_counter
        assert dict(reopened.items()) == live_items


class TestCheckpointCrashWindows:
    """Crash simulations for every window of the checkpoint protocol.

    The protocol is: write ``snapshot-*.psnap.tmp`` → fsync → rename →
    fsync dir → truncate the covered log prefix.  A crash in
    any window must reopen to the exact pre-crash committed state —
    never a lost record, never a duplicate, never a refused open.
    """

    @staticmethod
    def full_state(store):
        return (
            store.counts(),
            store.interaction_keys(),
            store.group_ids(),
            store.sequence_watermark(),
            store.scan_suffix(after=0, limit=10_000),
        )

    def test_crash_before_snapshot_rename_leaves_swept_debris(self, tmp_path):
        # Window: tmp snapshot written, crash before os.replace.  The
        # .psnap.tmp debris must be swept at open and never loaded.
        path = tmp_path / "kv.db"
        store = KVLogBackend(path, sync=False)
        fill(store)
        expected = self.full_state(store)
        store.close()
        ckpt_dir = snapshot_dir_for(path)
        ckpt_dir.mkdir(parents=True, exist_ok=True)
        debris = ckpt_dir / "snapshot-0000000000000099.psnap.tmp"
        debris.write_bytes(b"PSNAP1\n\x00\x00\x00\x08torn hea")
        reopened = KVLogBackend(path, sync=False)
        assert self.full_state(reopened) == expected
        assert reopened.checkpoint_stats.recovery_mode == "full-replay"
        assert not debris.exists()
        reopened.close()

    def test_crash_after_snapshot_before_truncation(self, tmp_path, monkeypatch):
        # Window: the snapshot is durable (renamed) but the crash lands
        # before the covered prefix is truncated.  Reopen must use the
        # snapshot and replay the *whole* remaining log tail without
        # duplicating the records the snapshot already covers.
        path = tmp_path / "kv.db"
        store = KVLogBackend(path, sync=False, checkpoint_retain=1)
        fill(store)
        monkeypatch.setattr(KVLogBackend, "_truncate_below", lambda self, wm: 0)
        store.checkpoint()
        store.put(ipa(90))  # post-snapshot tail
        expected = self.full_state(store)
        store.close()
        reopened = KVLogBackend(path, sync=False)
        assert self.full_state(reopened) == expected
        assert reopened.checkpoint_stats.recovery_mode == "snapshot+tail"
        assert reopened.checkpoint_stats.tail_records == 1
        reopened.close()

    def test_torn_snapshot_falls_back_to_full_replay(self, tmp_path):
        # Window: a torn page corrupts the only (renamed) snapshot.  The
        # fallback ladder must reject it and replay the full log — which
        # is intact, because truncation is retention-gated and a corrupt
        # rung never counts toward the retention set.
        path = tmp_path / "kv.db"
        store = KVLogBackend(path, sync=False)  # default retain=2
        fill(store)
        store.checkpoint()
        expected = self.full_state(store)
        store.close()
        (snapshot,) = list_snapshots(snapshot_dir_for(path))
        data = snapshot.read_bytes()
        snapshot.write_bytes(data[: len(data) // 2])
        reopened = KVLogBackend(path, sync=False)
        assert self.full_state(reopened) == expected
        assert reopened.checkpoint_stats.recovery_mode == "full-replay"
        reopened.close()

    def test_filesystem_backend_snapshot_crash_windows(self, tmp_path):
        # The directory-layout backend shares the mixin: debris sweep and
        # corrupt-snapshot fallback hold there too.
        root = tmp_path / "fs"
        store = FileSystemBackend(root, sync=False)
        fill(store)
        store.checkpoint()
        expected = self.full_state(store)
        store.close()
        ckpt_dir = snapshot_dir_for(root)
        (ckpt_dir / "snapshot-0000000000000042.psnap.tmp").write_bytes(b"junk")
        (snapshot,) = list_snapshots(ckpt_dir)
        snapshot.write_bytes(snapshot.read_bytes()[:16])
        reopened = FileSystemBackend(root, sync=False)
        assert self.full_state(reopened) == expected
        assert reopened.checkpoint_stats.recovery_mode == "full-replay"
        assert not list(ckpt_dir.glob("*.psnap.tmp"))
        reopened.close()


def test_kvlog_backend_survives_torn_batch_after_fsync_fixes(tmp_path):
    """Regression guard: the KVLog backend's own crash story still holds
    with the compaction fsyncs in place."""
    path = tmp_path / "kv.db"
    store = KVLogBackend(path)
    store.put_many([ipa(1), ipa(2), ipa(3)])
    store.compact()
    store.close()
    data = path.read_bytes()
    path.write_bytes(data[:-9])  # tear the last record
    reopened = KVLogBackend(path)
    assert reopened.counts().interaction_passertions == 2
    reopened.put(ipa(3))
    reopened.close()
    final = KVLogBackend(path)
    assert final.counts().interaction_passertions == 3
    final.close()
