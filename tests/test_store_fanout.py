"""Scatter-gather fan-out: the executor, router parity, hedged reads.

Three layers under test:

* :class:`repro.store.fanout.FanoutExecutor` in isolation — deterministic
  target-order gather, per-target error capture, deadlines, the
  width-1 serial baseline, hedging (win / failover / fatal) and stats;
* the router's *parity contract* — a fan-out router and a width-1
  (``fanout_workers=1``) router produce byte-identical observable state
  for every single-member failure: the same
  :class:`~repro.store.distributed.PartialCommitError` fields, the same
  repair journal, the same store contents.  Covered both in-process
  (:class:`FlakyStore` outages) and over the process transport with a
  scripted :class:`~repro.fleet.faults.FaultRule` crash;
* the thread-safety of the router's shared bookkeeping, hammered from
  many threads at once, and the hedged federated read path under one
  deliberately slow member.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.client import ProvenanceQueryClient
from repro.core.passertion import ViewKind
from repro.soa.bus import MessageBus
from repro.soa.envelope import Fault
from repro.store.backends import MemoryBackend
from repro.store.distributed import (
    FederatedQueryClient,
    PartialCommitError,
    StoreRouter,
)
from repro.store.fanout import (
    FanoutExecutor,
    FanoutTimeout,
    HedgeOutcome,
)
from repro.store.service import PReServActor

from tests.test_store_backends import ga, ipa, key, spa
from tests.test_store_replication import FlakyStore, make_replicated


class TestFanoutExecutor:
    def test_scatter_gathers_in_target_order(self):
        ex = FanoutExecutor(4)
        try:
            # Later targets finish first; the gather order must not care.
            delays = {"a": 0.03, "b": 0.02, "c": 0.0}
            results = ex.scatter(
                ["a", "b", "c"],
                lambda t: (time.sleep(delays[t]), t.upper())[1],
            )
            assert [r.target for r in results] == ["a", "b", "c"]
            assert [r.value for r in results] == ["A", "B", "C"]
            assert all(r.ok for r in results)
        finally:
            ex.close()

    def test_scatter_captures_per_target_errors(self):
        ex = FanoutExecutor(4)
        try:
            def fn(t):
                if t == "bad":
                    raise ValueError(t)
                return t
            results = ex.scatter(["ok", "bad", "fine"], fn)
            assert results[0].ok and results[2].ok
            assert not results[1].ok
            assert isinstance(results[1].error, ValueError)
        finally:
            ex.close()

    def test_scatter_runs_concurrently(self):
        ex = FanoutExecutor(4)
        try:
            gate = threading.Barrier(3, timeout=5)
            ex.scatter(["a", "b", "c"], lambda t: gate.wait())
            assert ex.stats.peak_concurrency >= 3
        finally:
            ex.close()

    def test_width_one_runs_legs_serially_in_order(self):
        with pytest.raises(ValueError):
            FanoutExecutor(0)
        ex = FanoutExecutor(1)
        try:
            seen = []
            results = ex.scatter(
                ["x", "y", "z"], lambda t: seen.append(t) or t
            )
            assert [r.value for r in results] == ["x", "y", "z"]
            assert seen == ["x", "y", "z"]
            assert ex.stats.peak_concurrency == 1
        finally:
            ex.close()

    def test_scatter_deadline_reports_timeout(self):
        ex = FanoutExecutor(2)
        try:
            results = ex.scatter(
                ["slow", "fast"],
                lambda t: time.sleep(5) if t == "slow" else t,
                deadline_s=0.05,
            )
            assert isinstance(results[0].error, FanoutTimeout)
            assert results[1].ok
        finally:
            ex.close()

    def test_scatter_after_close_raises(self):
        ex = FanoutExecutor(2)
        ex.close()
        ex.close()  # idempotent
        with pytest.raises(RuntimeError):
            ex.scatter(["a", "b"], lambda t: t)

    def test_hedged_fast_preferred_wins_without_hedging(self):
        ex = FanoutExecutor(2)
        try:
            outcome = ex.hedged(["p", "q"], lambda t: t, hedge_after_s=0.2)
            assert isinstance(outcome, HedgeOutcome)
            assert outcome.winner == 0 and outcome.value == "p"
            assert outcome.hedges_fired == 0
            assert ex.stats.hedge_wins == 0
        finally:
            ex.close()

    def test_hedged_slow_preferred_loses_to_hedge(self):
        ex = FanoutExecutor(2)
        try:
            def fn(t):
                if t == "slow":
                    time.sleep(0.5)
                return t
            outcome = ex.hedged(["slow", "fast"], fn, hedge_after_s=0.02)
            assert outcome.winner == 1 and outcome.value == "fast"
            assert outcome.hedges_fired == 1
            assert ex.stats.hedges_fired == 1
            assert ex.stats.hedge_wins == 1
        finally:
            ex.close()

    def test_hedged_retryable_failure_fails_over_immediately(self):
        ex = FanoutExecutor(2)
        try:
            started = time.monotonic()
            def fn(t):
                if t == "down":
                    raise Fault("worker-unavailable", "down")
                return t
            outcome = ex.hedged(
                ["down", "up"],
                fn,
                hedge_after_s=5.0,  # the failover must not wait for this
                retryable=lambda exc: isinstance(exc, Fault),
            )
            assert outcome.winner == 1 and outcome.value == "up"
            assert outcome.hedges_fired == 0  # failover, not a hedge
            assert time.monotonic() - started < 2.0
            assert isinstance(outcome.errors[0], Fault)
        finally:
            ex.close()

    def test_hedged_fatal_error_ends_the_race(self):
        ex = FanoutExecutor(2)
        try:
            def fn(t):
                raise ValueError(t)
            outcome = ex.hedged(
                ["a", "b"],
                fn,
                hedge_after_s=5.0,
                retryable=lambda exc: isinstance(exc, Fault),
            )
            assert outcome.winner is None
            assert isinstance(outcome.fatal, ValueError)
        finally:
            ex.close()

    def test_hedged_all_candidates_fail(self):
        ex = FanoutExecutor(2)
        try:
            def fn(t):
                raise Fault("worker-unavailable", t)
            outcome = ex.hedged(
                ["a", "b"],
                fn,
                hedge_after_s=5.0,
                retryable=lambda exc: isinstance(exc, Fault),
            )
            assert outcome.winner is None and outcome.fatal is None
            assert sorted(outcome.errors) == [0, 1]
        finally:
            ex.close()


class TestRouterLockHammer:
    """Satellite (a): the shared bookkeeping survives concurrent mutation."""

    def test_degraded_marks_from_many_threads(self):
        router, stores = make_replicated(n=4, replicas=2)
        names = router.store_names
        errors = []
        stop = threading.Event()

        def toggler(name):
            try:
                for _ in range(300):
                    router.mark_degraded(name)
                    router.mark_restored(name)
                    router.confirm_fresh(name)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def reader():
            try:
                while not stop.is_set():
                    router.degraded_members
                    router.suspect_members
                    router.pending_repairs()
                    router.generation_vector()
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=toggler, args=(name,)) for name in names
        ]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads[: len(names)]:
            t.join(timeout=30)
        stop.set()
        for t in threads[len(names):]:
            t.join(timeout=30)
        assert not errors, f"concurrent bookkeeping raised: {errors!r}"
        # Every member ended its last iteration confirm_fresh()-ed clean.
        assert router.degraded_members == []
        assert router.suspect_members == []
        router.close()


def _observable_state(router, stores, exc):
    """Everything the parity contract pins, in comparable form."""
    return {
        "committed": sorted(exc.committed),
        "missing": sorted(exc.missing),
        "cause_keys": sorted(exc.causes),
        "cause_codes": {
            name: getattr(cause, "code", type(cause).__name__)
            for name, cause in exc.causes.items()
        },
        "degraded": router.degraded_members,
        "journal": {
            name: sorted(map(repr, table))
            for name, table in router._pending.items()
            if table
        },
        "contents": {
            name: (store.counts() if not store.down else None)
            for name, store in stores.items()
        },
    }


class TestSequentialParity:
    """Satellite (c): fan-out and width-1 routers are indistinguishable."""

    BATCH = [ipa(i) for i in range(12)] + [spa(3), ga(5)]

    @pytest.mark.parametrize("victim", ["store-00", "store-01", "store-02"])
    def test_put_many_partial_commit_is_identical(self, victim):
        outcomes = {}
        for mode, workers in (("seq", 1), ("par", None)):
            stores = {
                f"store-{i:02d}": FlakyStore(f"store-{i:02d}")
                for i in range(3)
            }
            router = StoreRouter(
                dict(stores), replicas=2, fanout_workers=workers
            )
            stores[victim].down = True
            with pytest.raises(PartialCommitError) as info:
                router.put_many(list(self.BATCH))
            stores[victim].down = False
            outcomes[mode] = _observable_state(router, stores, info.value)
            router.close()
        assert outcomes["seq"] == outcomes["par"]

    @pytest.mark.parametrize("victim", ["store-00", "store-01", "store-02"])
    def test_single_put_partial_commit_is_identical(self, victim):
        probe = ipa(0)
        outcomes = {}
        for mode, workers in (("seq", 1), ("par", None)):
            stores = {
                f"store-{i:02d}": FlakyStore(f"store-{i:02d}")
                for i in range(3)
            }
            router = StoreRouter(
                dict(stores), replicas=2, fanout_workers=workers
            )
            stores[victim].down = True
            if victim in router.write_set(probe.interaction_key):
                with pytest.raises(PartialCommitError) as info:
                    router.put(probe)
                exc = info.value
            else:
                router.put(probe)
                exc = PartialCommitError("none", [], [], {})
            stores[victim].down = False
            outcomes[mode] = _observable_state(router, stores, exc)
            router.close()
        assert outcomes["seq"] == outcomes["par"]

    def test_retry_after_partial_commit_converges_identically(self):
        for mode, workers in (("seq", 1), ("par", None)):
            router, stores = make_replicated(n=3, replicas=2)
            router.fanout.close()
            router.fanout = FanoutExecutor(
                1 if workers == 1 else 3, name="store-fanout"
            )
            stores["store-01"].down = True
            with pytest.raises(PartialCommitError):
                router.put_many(list(self.BATCH))
            stores["store-01"].down = False
            router.mark_restored("store-01")
            # The retry skips duplicates on the replicas that committed
            # and heals the journal via repair — same count either way.
            assert len(router.put_many(list(self.BATCH))) == len(self.BATCH)
            router.repair()
            assert router.pending_repairs() == {}
            router.close()


class TestProcessTransportParity:
    """The parity contract over real worker processes + scripted crashes."""

    @pytest.mark.parametrize("victim", ["store-00", "store-01", "store-02"])
    def test_put_many_with_worker_crash_matches_sequential(
        self, victim, tmp_path
    ):
        from repro.fleet.faults import FaultRule
        from repro.store.distributed import sharded_store_fleet

        batch = [ipa(i) for i in range(12)]
        outcomes = {}
        for mode, workers in (("seq", 1), ("par", None)):
            router = sharded_store_fleet(
                tmp_path / f"{mode}-{victim}",
                members=3,
                transport="process",
                replicas=2,
                fanout_workers=workers,
                fault_rules={
                    victim: (FaultRule("commit", "die", after=0, count=1),)
                },
            )
            try:
                with pytest.raises(PartialCommitError) as info:
                    router.put_many(list(batch))
                exc = info.value
                outcomes[mode] = {
                    "committed": sorted(exc.committed),
                    "missing": sorted(exc.missing),
                    "cause_keys": sorted(exc.causes),
                    "degraded": router.degraded_members,
                    "journal": router.pending_repairs(),
                }
            finally:
                router.close()
        assert outcomes["seq"] == outcomes["par"]
        assert outcomes["par"]["missing"] == [victim]


class _SlowStore(MemoryBackend):
    """A live member whose per-key reads stall (a slow disk, not a crash)."""

    def __init__(self, stall_s: float = 0.0):
        super().__init__()
        self.stall_s = stall_s

    def interaction_passertions(self, key, view=None):
        if self.stall_s:
            time.sleep(self.stall_s)
        return super().interaction_passertions(key, view)


class TestHedgedReads:
    def _fleet(self, stall_s):
        stores = {
            "store-00": _SlowStore(stall_s=stall_s),
            "store-01": _SlowStore(),
            "store-02": _SlowStore(),
        }
        return StoreRouter(dict(stores), replicas=2), stores

    def test_hedge_bounds_reads_under_one_slow_member(self):
        router, _ = self._fleet(stall_s=0.25)
        try:
            batch = [ipa(i) for i in range(8)]
            router.put_many(batch)
            client = FederatedQueryClient(router, hedge_after_s=0.02)
            slow_keys = [
                a.interaction_key
                for a in batch
                if router.read_set(a.interaction_key)[0] == "store-00"
            ]
            assert slow_keys, "placement gave the slow member no keys"
            started = time.monotonic()
            for k in slow_keys:
                found = client.interaction_passertions(k)
                assert [p.store_key for p in found] == [
                    p.store_key
                    for p in router.store("store-01").interaction_passertions(k)
                    or router.store("store-02").interaction_passertions(k)
                ] or found
            elapsed = time.monotonic() - started
            # Every slow-owned read was rescued by its replica peer well
            # under the 250ms stall; generous bound for CI noise.
            assert elapsed < 0.25 * len(slow_keys)
            assert router.fanout.stats.hedge_wins > 0
            # A slow member is not a dead member: nothing was degraded.
            assert router.degraded_members == []
        finally:
            router.close()

    def test_no_hedge_unless_the_client_sets_one(self):
        router, _ = self._fleet(stall_s=0.05)
        try:
            batch = [ipa(i) for i in range(6)]
            router.put_many(batch)
            for client in (
                FederatedQueryClient(router),
                FederatedQueryClient(router, hedge_after_s=0),
            ):
                for a in batch:
                    assert client.interaction_passertions(a.interaction_key)
            assert router.fanout.stats.hedges_fired == 0
        finally:
            router.close()

    def test_hedge_survives_worker_death_mid_race(self):
        """Failure-matrix row: the preferred replica dies (not stalls) —
        the race fails over immediately and the read still answers."""
        router, stores = self._fleet(stall_s=0.0)
        try:
            batch = [ipa(i) for i in range(8)]
            router.put_many(batch)
            flaky = FlakyStore("store-00")
            for a in batch:
                if "store-00" in router.write_set(a.interaction_key):
                    flaky.put(a)
            router._stores["store-00"] = flaky
            flaky.down = True
            client = FederatedQueryClient(router, hedge_after_s=0.02)
            for a in batch:
                assert client.interaction_passertions(a.interaction_key)
            assert "store-00" in router.degraded_members
            assert client.failovers > 0
        finally:
            router.close()


class TestPassertionCounts:
    """Satellite (b): both per-key counts in one round trip, every layer."""

    def _seeded(self):
        store = MemoryBackend()
        for i in range(6):
            store.put(ipa(i))
            store.put(ipa(i, view=ViewKind.RECEIVER))
        store.put(spa(0))
        store.put(spa(0, state_type="env"))
        return store

    def test_backend_default_matches_the_two_queries(self):
        store = self._seeded()
        inter, state = store.passertion_counts(key(0))
        assert inter == len(store.interaction_passertions(key(0)))
        assert state == len(store.actor_state_passertions(key(0)))
        assert (inter, state) == (2, 2)
        assert store.passertion_counts(key(5)) == (2, 0)

    def test_query_port_round_trip(self):
        bus = MessageBus()
        bus.register(PReServActor(self._seeded()))
        client = ProvenanceQueryClient(bus)
        assert client.passertion_counts(key(0)) == (2, 2)
        assert client.passertion_counts(key(3)) == (2, 0)
        assert client.calls == 2

    def test_federated_counts_uses_one_round_trip_per_key(self):
        router, stores = make_replicated(n=3, replicas=2)
        batch = [ipa(i) for i in range(9)] + [spa(1), spa(4)]
        router.put_many(batch)
        client = FederatedQueryClient(router)
        counts = client.counts()
        # Replicated totals count each record once, not once per replica.
        assert counts.interaction_passertions == 9
        assert counts.actor_state_passertions == 2
        # Same totals with a member down (reads fail over per key).
        stores["store-01"].down = True
        client2 = FederatedQueryClient(router)
        counts2 = client2.counts()
        assert counts2.interaction_passertions == 9
        assert counts2.actor_state_passertions == 2
        router.close()
