"""Tests for the background compaction subsystem.

Covers the scheduler's picking/rate-limiting/lifecycle contracts, the
two-phase KVLog compaction running against live writers, FS segment
folding with its crash windows, and the auto_compact wiring through
factory/actor/fleet.
"""

from __future__ import annotations

import threading

import pytest

from repro.store import CompactionScheduler, make_backend
from repro.store.backends import FileSystemBackend
from repro.store.kvlog import KVLog
from repro.store.maintenance import CompactionEvent
from repro.store.service import PReServActor

from tests.test_store_backends import ga, ipa, key, spa


class FakeStore:
    """Scriptable reclaim-protocol store for scheduler unit tests."""

    def __init__(self, candidates=()):
        self.candidates = list(candidates)
        self.reclaimed = []

    def reclaim_candidates(self):
        return list(self.candidates)

    def reclaim(self, target):
        self.reclaimed.append(target)
        # Compacting clears this target's pressure, like the real stores.
        self.candidates = [c for c in self.candidates if c[0] != target]
        return 1000


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestSchedulerCore:
    def test_register_rejects_non_protocol_objects(self):
        scheduler = CompactionScheduler()
        with pytest.raises(TypeError, match="reclaim protocol"):
            scheduler.register(object())

    def test_register_rejects_duplicate_names(self):
        scheduler = CompactionScheduler()
        scheduler.register(FakeStore(), "a")
        with pytest.raises(ValueError, match="already registered"):
            scheduler.register(FakeStore(), "a")

    def test_tick_picks_single_worst_target_across_stores(self):
        scheduler = CompactionScheduler(min_score=0.1, min_reclaim_bytes=1)
        a = FakeStore([("a0", 0.3, 100, 100), ("a1", 0.6, 100, 100)])
        b = FakeStore([("b0", 0.9, 100, 100)])
        scheduler.register(a, "a")
        scheduler.register(b, "b")
        event = scheduler.tick()
        assert isinstance(event, CompactionEvent)
        assert (event.store, event.target) == ("b", "b0")
        assert a.reclaimed == [] and b.reclaimed == ["b0"]
        # Next tick moves to the next-worst target, one per tick.
        assert scheduler.tick().target == "a1"
        assert scheduler.tick().target == "a0"
        assert scheduler.tick() is None

    def test_thresholds_filter_candidates(self):
        scheduler = CompactionScheduler(min_score=0.5, min_reclaim_bytes=500)
        store = FakeStore(
            [("low-score", 0.4, 10_000, 10_000), ("low-bytes", 0.9, 100, 100)]
        )
        scheduler.register(store)
        assert scheduler.tick() is None
        assert store.reclaimed == []

    def test_min_interval_rate_limits_and_force_bypasses(self):
        clock = FakeClock()
        scheduler = CompactionScheduler(
            min_score=0.1, min_reclaim_bytes=1, min_interval_s=10.0, clock=clock
        )
        store = FakeStore(
            [("t0", 0.9, 100, 100), ("t1", 0.8, 100, 100), ("t2", 0.7, 100, 100)]
        )
        scheduler.register(store)
        assert scheduler.tick().target == "t0"
        assert scheduler.tick() is None  # inside the interval
        assert scheduler.stats().skipped_rate_limited == 1
        assert scheduler.tick(force=True).target == "t1"  # force ignores it
        clock.now += 11.0
        assert scheduler.tick().target == "t2"

    def test_max_bytes_per_s_extends_the_delay(self):
        clock = FakeClock()
        scheduler = CompactionScheduler(
            min_score=0.1,
            min_reclaim_bytes=1,
            max_bytes_per_s=100.0,
            clock=clock,
        )
        store = FakeStore([("big", 0.9, 1000, 1000), ("next", 0.8, 100, 100)])
        scheduler.register(store)
        assert scheduler.tick().target == "big"
        clock.now += 5.0  # 1000 bytes at 100 B/s needs 10 s
        assert scheduler.tick() is None
        clock.now += 6.0
        assert scheduler.tick().target == "next"

    def test_stats_accumulate_and_snapshot(self):
        scheduler = CompactionScheduler(min_score=0.1, min_reclaim_bytes=1)
        scheduler.register(FakeStore([("t", 0.9, 100, 100)]), "s")
        scheduler.tick()
        stats = scheduler.stats()
        assert stats.compactions_run == 1
        assert stats.bytes_reclaimed == 1000
        assert stats.per_store["s"] == (1, 1000)
        assert stats.last_event.target == "t"
        # The snapshot is detached from the live counters.
        scheduler.register(FakeStore([("u", 0.9, 100, 100)]), "s2")
        scheduler.tick()
        assert stats.compactions_run == 1

    def test_background_thread_reclaims_and_errors_are_recorded(self):
        class Exploding(FakeStore):
            def reclaim(self, target):
                raise RuntimeError("boom")

        scheduler = CompactionScheduler(
            poll_interval_s=0.001, min_score=0.1, min_reclaim_bytes=1
        )
        good = FakeStore([("ok", 0.5, 100, 100)])
        bad = Exploding([("bad", 0.9, 100, 100)])
        scheduler.register(good, "good")
        scheduler.register(bad, "bad")
        done = threading.Event()

        original = good.reclaim

        def observed(target):
            result = original(target)
            done.set()
            return result

        good.reclaim = observed
        with scheduler:
            assert scheduler.running
            assert done.wait(timeout=5.0)
        assert not scheduler.running
        stats = scheduler.stats()
        # The bad store's failure was swallowed and surfaced in the stats,
        # and its cooldown let the good store be reached despite its lower
        # score — one sick store cannot starve its siblings' maintenance.
        assert stats.errors >= 1
        assert "boom" in stats.last_error
        assert good.reclaimed == ["ok"]

    def test_start_stop_idempotent(self):
        scheduler = CompactionScheduler()
        scheduler.start()
        scheduler.start()
        scheduler.stop()
        scheduler.stop()
        assert not scheduler.running

    def test_drain_runs_until_no_pressure(self, tmp_path):
        log = KVLog(tmp_path / "db", sync=False)
        for i in range(200):
            log.put(b"hot", b"v%d" % i)
        scheduler = CompactionScheduler(min_score=0.1, min_reclaim_bytes=1)
        scheduler.register(log)
        assert scheduler.drain() >= 1
        assert log.dead_bytes == 0
        assert log.get(b"hot") == b"v199"
        log.close()


class TestTwoPhaseCompaction:
    def test_writers_during_compaction_never_lose_data(self, tmp_path):
        """Concurrent puts/deletes race a compaction loop; every committed
        write survives, in memory and across reopen."""
        log = KVLog(tmp_path / "db", sync=False)
        log.put_many([(b"seed-%03d" % i, b"s%d" % i) for i in range(50)])
        stop = threading.Event()
        failures = []

        def writer():
            i = 0
            try:
                while not stop.is_set():
                    log.put(b"hot-%02d" % (i % 10), b"w%05d" % i)
                    if i % 7 == 0:
                        log.delete(b"seed-%03d" % (i % 50))
                        log.put(b"seed-%03d" % (i % 50), b"r%05d" % i)
                    i += 1
            except BaseException as exc:
                failures.append(exc)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(20):
                log.compact()
        finally:
            stop.set()
            thread.join()
        assert not failures
        live = dict(log.scan())
        assert set(b"seed-%03d" % i for i in range(50)) <= set(live)
        log.close()
        with KVLog(tmp_path / "db", sync=False) as reopened:
            assert dict(reopened.scan()) == live

    def test_readers_concurrent_with_compaction_see_exact_live_set(
        self, tmp_path
    ):
        """Satellite: scan() racing background compaction always yields
        exactly the live record set."""
        log = KVLog(tmp_path / "db", sync=False)
        for round_ in range(5):
            log.put_many([(b"k%03d" % i, b"r%d" % round_) for i in range(100)])
        expected = dict(log.scan())
        scheduler = CompactionScheduler(
            poll_interval_s=0.0005, min_score=0.01, min_reclaim_bytes=1
        )
        scheduler.register(log)
        failures = []

        def reader():
            try:
                for _ in range(30):
                    assert dict(log.scan()) == expected
            except BaseException as exc:
                failures.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(3)]
        with scheduler:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not failures
        assert dict(log.scan()) == expected
        log.close()

    def test_compact_swap_is_never_observable_as_closed(self, tmp_path):
        """Regression: the phase-two handle swap must not make a racing
        _check_open see a transiently closed log."""
        log = KVLog(tmp_path / "db", sync=False)
        for i in range(100):
            log.put(b"k%02d" % (i % 20), b"v%d" % i)
        stop = threading.Event()
        failures = []

        def hammer():
            i = 0
            try:
                while not stop.is_set():
                    log.put(b"hammer", b"h%d" % i)
                    log.get(b"k00")
                    i += 1
            except BaseException as exc:
                failures.append(exc)

        thread = threading.Thread(target=hammer)
        thread.start()
        try:
            for _ in range(50):
                log.compact()
        finally:
            stop.set()
            thread.join()
        assert not failures
        log.close()


class TestCrashDebrisSweep:
    def test_stale_compact_file_is_swept_on_open(self, tmp_path):
        log = KVLog(tmp_path / "db")
        for i in range(10):
            log.put(b"k%d" % i, b"v%d" % i)
        expected = dict(log.items())
        log.close()
        # Crash mid-compaction: a partial rewrite was left beside the log.
        debris = tmp_path / "db.compact"
        debris.write_bytes(b"\x00\x01partial rewrite")
        reopened = KVLog(tmp_path / "db")
        assert not debris.exists()
        assert dict(reopened.items()) == expected
        reopened.close()

    def test_stale_fs_tmp_is_swept_on_open(self, tmp_path):
        store = FileSystemBackend(tmp_path / "fs")
        store.put(ipa(1))
        store.close()
        ours = tmp_path / "fs" / "00000009.tmp"
        ours.write_text("<segment count='2'><torn")
        theirs = tmp_path / "fs" / "notes.tmp"
        theirs.write_text("not ours")
        reopened = FileSystemBackend(tmp_path / "fs")
        assert not ours.exists()
        assert theirs.exists()  # non-numeric stems are not ours to delete
        assert reopened.interaction_keys() == [key(1)]
        reopened.close()


def fs_state(store):
    return (
        store.counts(),
        store.interaction_keys(),
        [
            getattr(a, "store_key", None) or (a.group_id, a.member)
            for a in store.all_assertions()
        ],
        store.group_ids(),
    )


class TestSegmentFolding:
    def test_fold_preserves_state_and_replay_order(self, tmp_path):
        store = FileSystemBackend(tmp_path / "fs", segment_size=4)
        for i in range(10):
            store.put(ipa(i))
        store.put(ga(0))
        expected = fs_state(store)
        folded_total = 0
        while True:
            folded, _reclaimed = store.fold_segments()
            if folded == 0:
                break
            folded_total += folded
        assert folded_total == 11
        assert fs_state(store) == expected
        # 11 singles at segment_size=4 fold into ceil(11/4) = 3 segments.
        assert len(list((tmp_path / "fs").glob("*.xml"))) == 3
        store.close()
        reopened = FileSystemBackend(tmp_path / "fs", segment_size=4)
        assert fs_state(reopened) == expected
        # The store keeps accepting writes at the right sequence.
        reopened.put(ipa(90))
        assert key(90) in reopened.interaction_keys()
        reopened.close()

    def test_only_contiguous_runs_fold(self, tmp_path):
        store = FileSystemBackend(tmp_path / "fs", segment_size=64)
        store.put(ipa(0))
        store.put(ipa(1))
        store.put_many([spa(i) for i in range(3)])  # a batch segment gap
        store.put(ipa(2))
        store.put(ipa(3))
        runs = store.fold_candidates()
        assert [[seq for seq, _ in run] for run in runs] == [[0, 1], [5, 6]]
        expected = fs_state(store)
        assert store.fold_segments()[0] == 2
        assert store.fold_segments()[0] == 2
        assert store.fold_segments() == (0, 0)
        assert fs_state(store) == expected
        store.close()
        reopened = FileSystemBackend(tmp_path / "fs", segment_size=64)
        assert fs_state(reopened) == expected
        reopened.close()

    def test_fold_crash_window_replays_without_double_indexing(self, tmp_path):
        """Kill between the fold's rename and its source deletes: the folded
        segment and its sources coexist; replay dedupes and sweeps."""
        store = FileSystemBackend(tmp_path / "fs", segment_size=8)
        for i in range(6):
            store.put(ipa(i))
        expected = fs_state(store)
        sources = {
            p.name: p.read_text(encoding="utf-8")
            for p in sorted((tmp_path / "fs").glob("*.xml"))
        }
        assert store.fold_segments()[0] == 6
        store.close()
        # Resurrect all the deleted source files (crash before any unlink
        # became durable) — the worst version of the window.
        for name, text in sources.items():
            if name != "00000000.xml":  # the folded segment replaced this one
                (tmp_path / "fs" / name).write_text(text, encoding="utf-8")
        reopened = FileSystemBackend(tmp_path / "fs", segment_size=8)
        assert fs_state(reopened) == expected
        # The debris was swept: only the folded segment remains.
        assert [p.name for p in sorted((tmp_path / "fs").glob("*.xml"))] == [
            "00000000.xml"
        ]
        reopened.close()

    def test_fold_crash_window_partial_deletes(self, tmp_path):
        """Same window, but some sources were already deleted."""
        store = FileSystemBackend(tmp_path / "fs", segment_size=8)
        for i in range(5):
            store.put(ipa(i))
        expected = fs_state(store)
        survivor = (tmp_path / "fs" / "00000003.xml").read_text(encoding="utf-8")
        assert store.fold_segments()[0] == 5
        store.close()
        (tmp_path / "fs" / "00000003.xml").write_text(survivor, encoding="utf-8")
        reopened = FileSystemBackend(tmp_path / "fs", segment_size=8)
        assert fs_state(reopened) == expected
        assert not (tmp_path / "fs" / "00000003.xml").exists()
        reopened.close()

    def test_fold_concurrent_with_ingest(self, tmp_path):
        """The scheduler folds while the ingest path keeps appending."""
        store = FileSystemBackend(tmp_path / "fs", segment_size=8, sync=False)
        for i in range(16):
            store.put(ipa(i))
        scheduler = CompactionScheduler(
            poll_interval_s=0.0005, min_score=0.01, min_reclaim_bytes=1
        )
        scheduler.register(store)
        with scheduler:
            for i in range(16, 48):
                store.put(ipa(i))
        scheduler.drain()
        expected = fs_state(store)
        assert store.counts().interaction_passertions == 48
        store.close()
        reopened = FileSystemBackend(tmp_path / "fs", segment_size=8, sync=False)
        assert fs_state(reopened) == expected
        reopened.close()


class TestAutoCompactWiring:
    def test_make_backend_attaches_and_close_stops(self, tmp_path):
        backend = make_backend(
            "kvlog", tmp_path / "kv", sync=False, auto_compact=True
        )
        assert isinstance(backend.maintenance, CompactionScheduler)
        assert backend.maintenance.running
        backend.close()
        assert not backend.maintenance.running

    def test_make_backend_accepts_shared_scheduler(self, tmp_path):
        scheduler = CompactionScheduler()
        a = make_backend("kvlog", tmp_path / "a.kv", sync=False, auto_compact=scheduler)
        b = make_backend(
            "filesystem", tmp_path / "fs", sync=False, auto_compact=scheduler
        )
        assert a.maintenance is scheduler and b.maintenance is scheduler
        assert len(scheduler.registered()) == 2
        a.close()
        assert not scheduler.running
        b.close()

    def test_memory_backend_rejects_auto_compact(self):
        with pytest.raises(ValueError, match="auto_compact"):
            make_backend("memory", auto_compact=True)

    def test_actor_with_store_and_maintenance_stats(self, tmp_path):
        actor = PReServActor.with_store(
            "kvlog", str(tmp_path / "kv"), sync=False, auto_compact=True
        )
        assert actor.maintenance_stats() is not None
        actor.close()
        assert not actor.backend.maintenance.running
        plain = PReServActor.with_store("memory")
        assert plain.maintenance_stats() is None
        plain.close()

    def test_fleet_shares_one_scheduler(self, tmp_path):
        from repro.store.distributed import sharded_store_fleet

        router = sharded_store_fleet(
            tmp_path / "fleet", members=2, sync=False, auto_compact=True
        )
        schedulers = {
            id(router.store(name).maintenance) for name in router.store_names
        }
        assert len(schedulers) == 1
        scheduler = router.store(router.store_names[0]).maintenance
        assert scheduler.running
        assert sorted(scheduler.registered()) == router.store_names
        router.close()
        assert not scheduler.running

    def test_experiment_config_threads_auto_compact(self, tmp_path):
        from repro.app.experiment import ExperimentConfig, _make_backend

        config = ExperimentConfig(
            store_backend="kvlog",
            store_path=tmp_path / "kv",
            store_auto_compact=True,
        )
        backend = _make_backend(config)
        assert backend.maintenance is not None and backend.maintenance.running
        backend.close()
        assert not backend.maintenance.running


class TestQueriesDuringBackgroundCompaction:
    def test_actor_queries_race_fs_folding_and_stay_exact(self, tmp_path):
        """Satellite: query results through the actor never waver while the
        scheduler folds segments underneath.  (The KVLog backend is
        append-only with unique keys, so its reclamation pressure comes
        from the log layer — covered by the KVLog reader test; the
        file-system backend builds fold pressure through the actor's own
        single-put path, making it the end-to-end case.)"""
        scheduler = CompactionScheduler(
            poll_interval_s=0.0005, min_score=0.01, min_reclaim_bytes=1
        )
        backend = FileSystemBackend(tmp_path / "fs", segment_size=8, sync=False)
        scheduler.register(backend)
        backend.maintenance = scheduler
        actor = PReServActor(backend)
        for i in range(40):
            backend.put(ipa(i))
        for i in range(10):
            backend.put(ga(i % 5, group=f"g-{i % 5}"))
        expected_counts = backend.counts()
        expected_keys = backend.interaction_keys()
        failures = []

        import time as _time

        deadline = _time.monotonic() + 5.0

        def reader():
            try:
                # Query until folds have demonstrably happened underneath
                # (or the deadline gives up and the assertion below fails).
                while (
                    scheduler.stats().compactions_run < 2
                    and _time.monotonic() < deadline
                ):
                    assert backend.counts() == expected_counts
                    assert backend.interaction_keys() == expected_keys
                    assert backend.interaction_passertions(key(7))
            except BaseException as exc:
                failures.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(2)]
        with scheduler:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not failures
        assert scheduler.stats().compactions_run >= 1
        # The folds changed nothing a query (or its cache) can observe.
        assert backend.counts() == expected_counts
        state = fs_state(backend)
        actor.close()
        reopened = FileSystemBackend(tmp_path / "fs", segment_size=8, sync=False)
        assert fs_state(reopened) == state
        reopened.close()
