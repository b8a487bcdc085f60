"""Tests for the hash-partitioned ShardedKVLog and the sharded backend.

The acceptance bar: a sharded log is indistinguishable from a single
:class:`KVLog` fed the same operations — same scan order and content
(byte-identical replay), same dict semantics, same crash-recovery
guarantees — while its files, compaction, and dead-byte accounting work
per shard.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.store.backends import KVLogBackend
from repro.store.interface import interaction_scope
from repro.store.kvlog import KVLog
from repro.store.sharding import ShardedKVLog, pipe_partition

from tests.test_store_backends import ga, ipa, key, spa


class TestBasicParity:
    def test_put_get_delete_overwrite(self, tmp_path):
        with ShardedKVLog(tmp_path / "db", shards=4) as log:
            log.put(b"k", b"v1")
            assert log.get(b"k") == b"v1"
            log.put(b"k", b"v2")
            assert log.get(b"k") == b"v2"
            assert len(log) == 1
            assert log.delete(b"k") is True
            assert log.get(b"k") is None
            assert log.delete(b"k") is False

    def test_missing_key_and_empty_value(self, tmp_path):
        with ShardedKVLog(tmp_path / "db", shards=2) as log:
            assert log.get(b"ghost") is None
            log.put(b"k", b"")
            assert log.get(b"k") == b""

    def test_empty_key_rejected(self, tmp_path):
        with ShardedKVLog(tmp_path / "db", shards=2) as log:
            with pytest.raises(ValueError):
                log.put(b"", b"v")
            with pytest.raises(ValueError):
                log.put_many([(b"ok", b"v"), (b"", b"v")])

    def test_contains_len_keys_items(self, tmp_path):
        with ShardedKVLog(tmp_path / "db", shards=4) as log:
            log.put(b"b", b"2")
            log.put(b"a", b"1")
            assert b"a" in log and b"c" not in log
            assert len(log) == 2
            assert list(log.keys()) == [b"a", b"b"]
            assert list(log.items()) == [(b"a", b"1"), (b"b", b"2")]

    def test_closed_log_rejects_ops(self, tmp_path):
        log = ShardedKVLog(tmp_path / "db", shards=2)
        log.close()
        log.close()  # idempotent
        with pytest.raises(ValueError):
            log.put(b"k", b"v")

    def test_empty_batch_is_noop(self, tmp_path):
        with ShardedKVLog(tmp_path / "db", shards=4) as log:
            assert log.put_many([]) == 0
            assert len(log) == 0

    def test_invalid_shard_count(self, tmp_path):
        with pytest.raises(ValueError):
            ShardedKVLog(tmp_path / "db", shards=0)


class TestLayout:
    def test_shard_files_created(self, tmp_path):
        with ShardedKVLog(tmp_path / "db", shards=4) as log:
            log.put_many([(b"k%d" % i, b"v") for i in range(40)])
        names = sorted(p.name for p in (tmp_path / "db").iterdir())
        assert names == ["log.00.kv", "log.01.kv", "log.02.kv", "log.03.kv"]

    def test_reopen_with_other_shard_count_refused(self, tmp_path):
        with ShardedKVLog(tmp_path / "db", shards=4) as log:
            log.put(b"k", b"v")
        with pytest.raises(ValueError, match="shard files"):
            ShardedKVLog(tmp_path / "db", shards=2)

    def test_records_spread_across_shards(self, tmp_path):
        with ShardedKVLog(tmp_path / "db", shards=4) as log:
            log.put_many([(b"key-%04d" % i, b"v" * 20) for i in range(200)])
            sizes = log.shard_file_sizes()
        assert sum(1 for s in sizes if s > 0) == 4  # every shard took work

    def test_partition_extractor_groups_keys(self, tmp_path):
        with ShardedKVLog(
            tmp_path / "db", shards=4, partition=pipe_partition
        ) as log:
            for i in range(32):
                log.put(b"sess-a|%04d" % i, b"v")
            target = log.shard_of(b"sess-a|0000")
            assert all(
                log.shard_of(b"sess-a|%04d" % i) == target for i in range(32)
            )
            sizes = log.shard_file_sizes()
        assert sum(1 for s in sizes if s > 0) == 1  # affine keys, one shard


class TestScanOrder:
    def test_scan_matches_single_log_explicit(self, tmp_path):
        single = KVLog(tmp_path / "one.kv")
        sharded = ShardedKVLog(tmp_path / "many", shards=4)
        for log in (single, sharded):
            log.put(b"a", b"1")
            log.put(b"b", b"2")
            log.put_many([(b"c", b"3"), (b"a", b"4"), (b"d", b"5")])
            log.delete(b"b")
            log.put(b"e", b"6")
        assert list(sharded.scan()) == list(single.scan())
        assert list(sharded.scan()) == [
            (b"c", b"3"),
            (b"a", b"4"),
            (b"d", b"5"),
            (b"e", b"6"),
        ]
        single.close()
        sharded.close()

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["put", "put_many", "delete"]),
                st.lists(
                    st.tuples(
                        st.binary(min_size=1, max_size=6),
                        st.binary(min_size=0, max_size=24),
                    ),
                    min_size=1,
                    max_size=8,
                ),
            ),
            max_size=25,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_property_replay_byte_identical_across_shard_counts(
        self, tmp_path_factory, ops
    ):
        """Same puts => same scan() order/content for shards in {1, 4}."""
        root = tmp_path_factory.mktemp("shards")
        single = KVLog(root / "one.kv", sync=False)
        logs = {
            1: ShardedKVLog(root / "s1", shards=1, sync=False),
            4: ShardedKVLog(root / "s4", shards=4, sync=False),
        }
        for op, pairs in ops:
            if op == "put":
                k, v = pairs[0]
                single.put(k, v)
                for log in logs.values():
                    log.put(k, v)
            elif op == "put_many":
                single.put_many(pairs)
                for log in logs.values():
                    log.put_many(pairs)
            else:
                k = pairs[0][0]
                expected = single.delete(k)
                for log in logs.values():
                    assert log.delete(k) == expected
        reference = list(single.scan())
        for n, log in logs.items():
            assert list(log.scan()) == reference, f"shards={n} diverged"
            assert list(log.items()) == list(single.items())
        single.close()
        for log in logs.values():
            log.close()
        # And the same equality must hold after reopen (replay path).
        with KVLog(root / "one.kv", sync=False) as single:
            reference = list(single.scan())
            for n in (1, 4):
                with ShardedKVLog(root / f"s{n}", shards=n, sync=False) as log:
                    assert list(log.scan()) == reference


class TestStreamingScan:
    def test_merge_holds_at_most_one_pending_record_per_shard(
        self, tmp_path, monkeypatch
    ):
        """Memory bound: the k-way merge must stream, not materialize.

        Counts records pulled from the per-shard streams but not yet
        yielded by the merge; the high-water mark must stay at one pending
        record per shard (plus the record in flight) — a materializing
        merge would hold all of them.
        """
        shards, records = 4, 600
        with ShardedKVLog(tmp_path / "db", shards=shards, sync=False) as log:
            log.put_many([(b"k-%05d" % i, b"v%d" % i) for i in range(records)])
            outstanding = {"now": 0, "max": 0}
            real_scan = KVLog.scan

            def counting_scan(self):
                for pair in real_scan(self):
                    outstanding["now"] += 1
                    outstanding["max"] = max(
                        outstanding["max"], outstanding["now"]
                    )
                    yield pair

            monkeypatch.setattr(KVLog, "scan", counting_scan)
            seen = 0
            for _key, _value in log.scan():
                outstanding["now"] -= 1
                seen += 1
            monkeypatch.undo()
            assert seen == records
            assert outstanding["max"] <= shards + 1, (
                f"merge held {outstanding['max']} records at once — "
                f"it materialized instead of streaming"
            )

    def test_scan_is_lazy_and_consumable_incrementally(self, tmp_path):
        with ShardedKVLog(tmp_path / "db", shards=2, sync=False) as log:
            log.put_many([(b"k%d" % i, b"v") for i in range(10)])
            stream = log.scan()
            first = next(stream)
            assert first == (b"k0", b"v")
            # Abandoning the stream mid-way must be safe (no locks held).
            del stream
            assert len(list(log.scan())) == 10

    def test_out_of_order_shard_file_detected(self, tmp_path):
        """A shard whose seq prefixes regress must fail loudly, not mis-merge."""
        import struct

        root = tmp_path / "db"
        with ShardedKVLog(root, shards=1, sync=False) as log:
            log.put(b"a", b"1")
            log.put(b"b", b"2")
        # Corrupt the shard out-of-band: swap the two records' seq prefixes
        # so the log's physical order no longer matches sequence order.
        shard = root / "log.00.kv"
        with KVLog(shard, sync=False) as raw:
            raw.put(b"a", struct.pack(">Q", 5) + b"1")
            raw.put(b"b", struct.pack(">Q", 3) + b"2")
        with ShardedKVLog(root, shards=1, sync=False) as log:
            with pytest.raises(Exception, match="sequence"):
                list(log.scan())


class TestConcurrency:
    def test_concurrent_put_many_loses_nothing(self, tmp_path):
        log = ShardedKVLog(tmp_path / "db", shards=4, partition=pipe_partition)
        clients, batches, per_batch = 4, 10, 8
        errors = []

        def client(c: int) -> None:
            try:
                for b in range(batches):
                    log.put_many(
                        [
                            (b"client-%d|%06d" % (c, b * per_batch + r), b"v%d" % c)
                            for r in range(per_batch)
                        ]
                    )
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(c,)) for c in range(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(log) == clients * batches * per_batch
        scanned = list(log.scan())
        assert len(scanned) == len(log)
        # Per-client order is preserved even though clients interleave.
        for c in range(clients):
            mine = [k for k, _ in scanned if k.startswith(b"client-%d|" % c)]
            assert mine == sorted(mine)
        log.close()
        # Reopen: everything survives, sequence counter stays consistent.
        with ShardedKVLog(
            tmp_path / "db", shards=4, partition=pipe_partition
        ) as reopened:
            assert len(reopened) == clients * batches * per_batch
            reopened.put(b"client-0|after", b"new")
            assert list(reopened.scan())[-1] == (b"client-0|after", b"new")


class TestCrashRecovery:
    def test_torn_tail_in_one_shard_only_loses_that_tail(self, tmp_path):
        with ShardedKVLog(tmp_path / "db", shards=4) as log:
            log.put_many([(b"k%02d" % i, b"value-%02d" % i) for i in range(40)])
            survivors = dict(log.items())
        # Simulate a crash mid-append on one shard file.
        shard_files = sorted((tmp_path / "db").glob("log.*.kv"))
        torn = shard_files[2]
        with open(torn, "ab") as f:
            f.write(b"\x07garbage-torn-tail")
        with ShardedKVLog(tmp_path / "db", shards=4) as log:
            assert dict(log.items()) == survivors  # committed data intact
            log.put(b"new-key", b"new-value")  # and appends stay well-formed
        with ShardedKVLog(tmp_path / "db", shards=4) as log:
            assert log.get(b"new-key") == b"new-value"

    def test_truncated_shard_drops_only_its_records(self, tmp_path):
        with ShardedKVLog(tmp_path / "db", shards=4) as log:
            log.put_many([(b"k%02d" % i, b"value-%02d" % i) for i in range(40)])
            per_shard = {}
            for i in range(40):
                per_shard.setdefault(log.shard_of(b"k%02d" % i), []).append(i)
        shard_files = sorted((tmp_path / "db").glob("log.*.kv"))
        torn_index = 1
        data = shard_files[torn_index].read_bytes()
        shard_files[torn_index].write_bytes(data[: len(data) - 7])  # tear last record
        with ShardedKVLog(tmp_path / "db", shards=4) as log:
            lost = per_shard[torn_index][-1]
            assert log.get(b"k%02d" % lost) is None
            kept = [i for i in range(40) if i != lost]
            assert all(log.get(b"k%02d" % i) is not None for i in kept)


class TestMaintenance:
    def test_compact_per_shard_preserves_scan_order(self, tmp_path):
        with ShardedKVLog(tmp_path / "db", shards=4) as log:
            for round_ in range(5):
                log.put_many([(b"k%02d" % i, b"r%d" % round_) for i in range(20)])
            log.delete(b"k03")
            before = list(log.scan())
            assert log.dead_bytes > 0
            size_before = log.file_size()
            log.compact()
            assert log.dead_bytes == 0
            assert log.file_size() < size_before
            assert list(log.scan()) == before
        with ShardedKVLog(tmp_path / "db", shards=4) as log:
            assert list(log.scan()) == before

    def test_compact_single_shard(self, tmp_path):
        with ShardedKVLog(tmp_path / "db", shards=2) as log:
            for i in range(30):
                log.put(b"key-%d" % (i % 6), b"v%d" % i)
            target = log.shard_of(b"key-0")
            other = 1 - target
            sizes_before = log.shard_file_sizes()
            log.compact(shard=target)
            sizes_after = log.shard_file_sizes()
            assert sizes_after[target] <= sizes_before[target]
            assert sizes_after[other] == sizes_before[other]

    def test_dead_bytes_survive_reopen(self, tmp_path):
        with ShardedKVLog(tmp_path / "db", shards=4) as log:
            log.put_many([(b"k%d" % i, b"v" * 10) for i in range(20)])
            log.put_many([(b"k%d" % i, b"w" * 10) for i in range(10)])  # overwrite
            log.delete(b"k15")
            live_dead = log.dead_bytes
        with ShardedKVLog(tmp_path / "db", shards=4) as log:
            assert log.dead_bytes == live_dead

    def test_backend_shard_generations_move_with_writes(self, tmp_path):
        store = KVLogBackend(tmp_path / "kv4", shards=4)
        before = store.shard_generations()
        store.put(ipa(1))
        target = store.scope_shard(interaction_scope(key(1)))
        after = store.shard_generations()
        assert after[target] == before[target] + 1
        assert all(after[i] == before[i] for i in range(4) if i != target)
        store.close()


class TestShardedBackend:
    def assertions(self, n=12):
        out = []
        for i in range(n):
            out.append(ipa(i))
            out.append(spa(i))
            if i % 3 == 0:
                out.append(ga(i))
        return out

    def state(self, store):
        return (
            store.counts(),
            store.interaction_keys(),
            [
                getattr(a, "store_key", None) or (a.group_id, a.member)
                for a in store.all_assertions()
            ],
            store.group_ids(),
        )

    def test_sharded_backend_matches_single_log_backend(self, tmp_path):
        sharded = KVLogBackend(tmp_path / "kv4", shards=4)
        single = KVLogBackend(tmp_path / "kv1.db")
        batch = self.assertions()
        for store in (sharded, single):
            for a in batch[:5]:
                store.put(a)
            store.put_many(batch[5:])
        assert self.state(sharded) == self.state(single)
        sharded.close()
        single.close()
        # Replay after reopen rebuilds identical indexes in identical order.
        sharded = KVLogBackend(tmp_path / "kv4", shards=4)
        single = KVLogBackend(tmp_path / "kv1.db")
        assert self.state(sharded) == self.state(single)
        sharded.close()
        single.close()

    def test_sharded_backend_compact_and_reopen(self, tmp_path):
        store = KVLogBackend(tmp_path / "kv4", shards=4)
        store.put_many(self.assertions())
        before = self.state(store)
        store.compact()
        assert self.state(store) == before
        store.close()
        reopened = KVLogBackend(tmp_path / "kv4", shards=4)
        assert self.state(reopened) == before
        reopened.close()

    def test_generation_token_is_shard_granular(self, tmp_path):
        store = KVLogBackend(tmp_path / "kv4", shards=4)
        store.put(ipa(0))
        scope = interaction_scope(key(0))
        home = store.scope_shard(scope)
        token = store.generation_token(scope)
        other = next(
            i
            for i in range(1, 200)
            if store.scope_shard(interaction_scope(key(i))) != home
        )
        store.put(ipa(other))  # lands in a different shard
        assert store.generation_token(scope) == token
        same = next(
            i
            for i in range(1, 200)
            if store.scope_shard(interaction_scope(key(i))) == home and i != 0
        )
        store.put(ipa(same))  # lands in the scope's shard
        assert store.generation_token(scope) != token
        store.close()

    def test_unsharded_backend_token_is_whole_store(self, tmp_path):
        store = KVLogBackend(tmp_path / "kv1.db")
        store.put(ipa(0))
        scope = interaction_scope(key(0))
        token = store.generation_token(scope)
        store.put(ipa(1))
        assert store.generation_token(scope) != token  # scalar generation
        assert store.shard_generations() == (store.generation,)
        store.close()

    def test_invalid_shard_count_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            KVLogBackend(tmp_path / "kv", shards=0)

    def test_partial_init_crash_never_blocks_reopen(self, tmp_path):
        # Simulate a crash during first-time initialization: only some of
        # the (still empty) shard files were created.
        root = tmp_path / "db"
        root.mkdir()
        (root / "log.00.kv").touch()
        (root / "log.01.kv").touch()
        with ShardedKVLog(root, shards=4) as log:  # correct count reopens
            log.put(b"k", b"v")
        # The reverse debris (extra empty files) is trimmed, not fatal.
        root2 = tmp_path / "db2"
        root2.mkdir()
        for i in range(6):
            (root2 / f"log.{i:02d}.kv").touch()
        with ShardedKVLog(root2, shards=4) as log:
            log.put(b"k", b"v")
        assert sorted(p.name for p in root2.iterdir()) == [
            f"log.{i:02d}.kv" for i in range(4)
        ]
        # But once any shard holds data, the count mismatch stays fatal.
        with pytest.raises(ValueError, match="with\\s+data"):
            ShardedKVLog(tmp_path / "db", shards=2)

    def test_scoped_token_expires_even_when_persist_fails(self, tmp_path, monkeypatch):
        from repro.store.interface import interaction_scope as scope_of
        from repro.store.sharding import ShardedKVLog as _SL

        backend = KVLogBackend(tmp_path / "kv4", shards=4)
        backend.put(ipa(1))
        scope = scope_of(key(1))
        token = backend.generation_token(scope)
        same = next(
            i
            for i in range(2, 300)
            if backend.scope_shard(scope_of(key(i)))
            == backend.scope_shard(scope)
        )

        def exploding_put_many(self, pairs):
            raise OSError("disk full")

        monkeypatch.setattr(_SL, "put_many", exploding_put_many)
        with pytest.raises(OSError, match="disk full"):
            backend.put(ipa(same))  # indexed, but persist fails
        monkeypatch.undo()
        # The assertion is visible to queries, so the scoped token must
        # have moved — a cached result from before would now be stale.
        assert backend.generation_token(scope) != token
        backend.close()

    def test_scoped_token_expires_when_key_resolution_fails(
        self, tmp_path, monkeypatch
    ):
        import repro.store.backends as backends_mod
        from repro.store.interface import interaction_scope as scope_of

        backend = KVLogBackend(tmp_path / "kv4", shards=4)
        backend.put(ipa(1))
        scope = scope_of(key(1))
        token = backend.generation_token(scope)

        def exploding_scope(assertion):
            raise UnicodeEncodeError("utf-8", "x", 0, 1, "simulated")

        monkeypatch.setattr(backends_mod, "_assertion_scope", exploding_scope)
        with pytest.raises(UnicodeEncodeError):
            backend.put(ipa(2))  # indexed, but its shard is unresolvable
        monkeypatch.undo()
        # The shard of the indexed-but-unkeyed write is unknown, so every
        # shard's scoped results must expire.
        assert backend.generation_token(scope) != token
        backend.close()

    def test_layout_mismatch_reported_clearly(self, tmp_path):
        sharded = KVLogBackend(tmp_path / "store", shards=4)
        sharded.put(ipa(1))
        sharded.close()
        with pytest.raises(ValueError, match="sharded store directory"):
            KVLogBackend(tmp_path / "store")  # shards=1 against a directory
        single = KVLogBackend(tmp_path / "single")
        single.put(ipa(1))
        single.close()
        with pytest.raises(ValueError, match="single-log store file"):
            KVLogBackend(tmp_path / "single", shards=4)


class TestConfigThreading:
    """The shard knob reaches every deployment surface."""

    def test_make_backend_factory(self, tmp_path):
        from repro.store import make_backend
        from repro.store.backends import FileSystemBackend, MemoryBackend

        assert isinstance(make_backend("memory"), MemoryBackend)
        fs = make_backend("filesystem", tmp_path / "fs", sync=False)
        assert isinstance(fs, FileSystemBackend)
        fs.close()
        kv = make_backend("kvlog", tmp_path / "kv", shards=4)
        assert isinstance(kv, KVLogBackend) and kv.shards == 4
        kv.put(ipa(1))
        kv.close()
        with pytest.raises(ValueError, match="requires a path"):
            make_backend("kvlog")
        with pytest.raises(ValueError, match="unknown store backend"):
            make_backend("cloud")
        # Layout knobs must never be silently ignored.
        with pytest.raises(ValueError, match="only supported by the 'kvlog'"):
            make_backend("filesystem", tmp_path / "fs2", shards=4)
        with pytest.raises(ValueError, match="only supported by the 'kvlog'"):
            make_backend("memory", shards=4)
        with pytest.raises(ValueError, match="only supported by the 'filesystem'"):
            make_backend("kvlog", tmp_path / "kv3", segment_size=64)

    def test_actor_with_store_and_shard_generations(self, tmp_path):
        from repro.store.service import PReServActor

        actor = PReServActor.with_store("kvlog", tmp_path / "kv", shards=4)
        assert isinstance(actor.backend, KVLogBackend)
        actor.backend.put_many([ipa(1), ipa(2), spa(1)])
        gens = actor.store_shard_generations()
        assert len(gens) == 4 and sum(gens) > 0
        scope = interaction_scope(key(1))
        assert actor.store_generation_token(scope) == (
            actor.backend.generation_token(scope)
        )
        actor.backend.close()

    def test_actor_with_store_unsharded_token(self, tmp_path):
        from repro.store.service import PReServActor

        actor = PReServActor.with_store("memory")
        actor.backend.put_many([ipa(1)])
        assert actor.store_shard_generations() == (actor.backend.generation,)
        assert actor.store_generation_token() == actor.backend.generation

    def test_sharded_store_fleet(self, tmp_path):
        from repro.store.distributed import sharded_store_fleet

        router = sharded_store_fleet(tmp_path / "fleet", members=2, shards=4)
        batch = [ipa(i) for i in range(12)] + [ga(2)]
        router.put_many(batch)
        total = sum(
            router.store(name).counts().interaction_passertions
            for name in router.store_names
        )
        assert total == 12
        for name in router.store_names:
            store = router.store(name)
            assert isinstance(store, KVLogBackend) and store.shards == 4
            store.close()
        # Reopening a member store replays everything it took.
        reopened = KVLogBackend(tmp_path / "fleet" / "store-00", shards=4)
        assert reopened.counts().group_assertions == 1  # broadcast membership
        reopened.close()
        # Reopening the fleet with the wrong shard count hits the layout
        # guard instead of silently serving fresh empty stores.
        with pytest.raises(ValueError, match="sharded store directory"):
            sharded_store_fleet(tmp_path / "fleet", members=2, shards=1)

    def test_experiment_config_store_shards(self, tmp_path):
        from repro.app.experiment import ExperimentConfig, _make_backend

        config = ExperimentConfig(
            store_backend="kvlog", store_path=tmp_path / "kv", store_shards=2
        )
        backend = _make_backend(config)
        assert isinstance(backend, KVLogBackend) and backend.shards == 2
        backend.close()
