"""Self-healing fleet: supervised restart, resync, and the crash drill.

The acceptance scenario for the replicated fleet: a process fleet under a
:class:`~repro.fleet.supervisor.FleetSupervisor` takes concurrent writes
and reads while one worker is SIGKILLed — zero acknowledged writes may be
lost (verified byte-identically on every replica), reads must answer
throughout, and the supervisor must restore full replication on its own.

Process-spawn tests are slow (~1 s per worker); everything that does not
need a real process lives in ``test_store_replication.py`` instead.
"""

from __future__ import annotations

import dataclasses
import time
import types

import pytest

from repro.fleet.faults import FAULT_EXIT_CODE, FaultRule
from repro.fleet.manager import FleetError, ProcessFleet
from repro.fleet.supervisor import FleetSupervisor
from repro.store.backends import KVLogBackend
from repro.store.distributed import (
    FederatedQueryClient,
    PartialCommitError,
    sharded_store_fleet,
)
from repro.soa.envelope import Fault
from repro.store.placement import PlacementSpec

from tests.test_store_backends import ga, ipa, key


def wait_until(predicate, timeout_s=60.0, interval_s=0.05, message="condition"):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval_s)
    raise AssertionError(f"timed out waiting for {message}")


def put_with_retry(router, batch, timeout_s=60.0):
    """Ack ``batch`` even across an outage (the drill's writer contract)."""
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            return router.put_many(batch)
        except (PartialCommitError, Fault):
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.05)


class TestSupervisedRestart:
    def test_kill_restart_resync_restore(self, tmp_path):
        router = sharded_store_fleet(
            tmp_path / "fleet",
            members=2,
            transport="process",
            replicas=2,
        )
        fleet = router.fleet
        try:
            with FleetSupervisor(
                fleet, router=router, probe_interval_s=0.1
            ) as supervisor:
                before = [ipa(i) for i in range(6)]
                router.put_many(before)
                # Let the supervisor record healthy watermarks first.
                wait_until(
                    lambda: supervisor.status()["store-00"]["watermark"]
                    is not None,
                    message="a healthy watermark probe",
                )
                fleet.kill("store-00")
                # Writes during the outage: journaled + retried until the
                # supervisor restores the member (R=2 needs both copies).
                during = [ipa(i) for i in range(6, 12)]
                put_with_retry(router, during)
                wait_until(
                    lambda: supervisor.status()["store-00"]["state"]
                    == "healthy"
                    and not router.degraded_members
                    and not router.pending_repairs(),
                    message="supervised recovery",
                )
                events = [e for _, w, e, _ in supervisor.events if w == "store-00"]
                assert "died" in events
                assert "restarted" in events
                assert "resynced" in events
                assert "restored" in events
                assert events.index("died") < events.index("restored")
                # Every acked record is on every member of its replica set
                # (members == replicas == 2: both stores hold everything).
                for assertion in before + during:
                    for member in router.replica_set(assertion.interaction_key):
                        held = router.store(member).interaction_passertions(
                            assertion.interaction_key
                        )
                        assert [
                            p for p in held if p.store_key == assertion.store_key
                        ], f"{assertion.store_key} missing on {member}"
                assert supervisor.status()["store-00"]["restarts"] == 1
        finally:
            router.close()

    def test_flapping_worker_hits_backoff_cap_and_quarantines(self, tmp_path):
        # Fault-plan hits count per process, so a die-at-start rule is
        # injected into the worker's config only after the healthy spawn:
        # every supervised restart then crashes on arrival.
        fleet = ProcessFleet(tmp_path / "fleet", members=2)
        handle = fleet.handle("store-00")
        handle.config = dataclasses.replace(
            handle.config,
            fault_rules=(FaultRule("worker-start", "die", count=-1),),
        )
        try:
            supervisor = FleetSupervisor(
                fleet,
                probe_interval_s=0.05,
                backoff_s=0.05,
                backoff_max_s=0.2,
                flap_limit=2,
                restart_timeout_s=15.0,
            )
            with supervisor:
                fleet.kill("store-00")
                wait_until(
                    lambda: supervisor.quarantined == ["store-00"],
                    message="quarantine after the flap cap",
                )
            status = supervisor.status()["store-00"]
            assert status["state"] == "quarantined"
            assert status["attempts"] == supervisor.flap_limit
            failures = [
                e for _, w, e, _ in supervisor.events
                if w == "store-00" and e == "restart-failed"
            ]
            assert len(failures) == supervisor.flap_limit
            loud = [
                detail
                for _, w, e, detail in supervisor.events
                if w == "store-00" and e == "quarantined"
            ]
            assert loud and "flap cap" in loud[0]
            # The scripted deaths carry the fault exit code, and the
            # healthy sibling was never touched.
            assert fleet.handle("store-00").process.exitcode in (
                FAULT_EXIT_CODE,
                None,
            )
            assert fleet.handle("store-01").alive
        finally:
            fleet.close(raise_errors=False)

    def test_quarantine_can_be_lifted_manually(self, tmp_path):
        fleet = ProcessFleet(tmp_path / "fleet", members=1)
        handle = fleet.handle("store-00")
        healthy_config = handle.config
        handle.config = dataclasses.replace(
            handle.config,
            fault_rules=(FaultRule("worker-start", "die", count=-1),),
        )
        try:
            supervisor = FleetSupervisor(
                fleet,
                probe_interval_s=0.05,
                backoff_s=0.05,
                flap_limit=2,
                restart_timeout_s=15.0,
            )
            with supervisor:
                fleet.kill("store-00")
                wait_until(
                    lambda: supervisor.quarantined == ["store-00"],
                    message="quarantine",
                )
                # Operator intervention: fix the config (drop the scripted
                # crash), then give the worker its restarts back.
                fleet.handle("store-00").config = healthy_config
                supervisor.lift_quarantine("store-00")
                wait_until(
                    lambda: supervisor.status()["store-00"]["state"]
                    == "healthy",
                    message="recovery after lifting quarantine",
                )
        finally:
            fleet.close(raise_errors=False)

    def test_restart_races_compaction_scheduler(self, tmp_path):
        """A killed auto-compacting worker reopens its store cleanly."""
        router = sharded_store_fleet(
            tmp_path / "fleet",
            members=2,
            transport="process",
            replicas=2,
            auto_compact=True,
        )
        fleet = router.fleet
        try:
            with FleetSupervisor(
                fleet, router=router, probe_interval_s=0.1
            ) as supervisor:
                router.put_many([ipa(i) for i in range(10)])
                fleet.kill("store-01")
                put_with_retry(router, [ipa(i) for i in range(10, 20)])
                wait_until(
                    lambda: supervisor.status()["store-01"]["state"]
                    == "healthy"
                    and not router.degraded_members,
                    message="recovery with auto-compaction",
                )
                queries = FederatedQueryClient(router)
                counts = queries.counts()
                assert counts.interaction_passertions == 20
        finally:
            router.close()


class TestCrashDrill:
    def test_availability_drill_loses_nothing(self, tmp_path):
        """The PR's acceptance drill: R=2, 4 workers, kill one mid-stream."""
        from repro.figures.fleet import run_availability_drill

        report = run_availability_drill(
            tmp_path,
            workers=4,
            replicas=2,
            batches=12,
            records_per_batch=3,
            kill_after_batches=4,
        )
        assert report.read_failures == 0
        assert report.read_error_rate == 0.0
        assert report.verified_records == report.acked_records == 36
        assert report.reads > 0
        # Bounded recovery: probe + backoff + spawn + resync, with slack
        # for a loaded CI host.
        assert 0.0 < report.recovery_s < 30.0


class TestQuarantineDeferral:
    """Quarantine must not wedge an in-flight migration (no processes:
    the restart ladder is driven directly against a stub fleet)."""

    class _StubFleet:
        worker_names = ["store-00", "store-01"]

        def handle(self, name):  # pragma: no cover - not reached
            raise AssertionError("handle() not expected in this drill")

        def restart(self, name, health_timeout_s=None):
            raise FleetError(f"worker {name!r} keeps dying")

    @staticmethod
    def _make_router(in_transition):
        from repro.store.backends import MemoryBackend
        from repro.store.distributed import StoreRouter
        from repro.store.placement import PlacementSpec

        router = StoreRouter(
            {"store-00": MemoryBackend(), "store-01": MemoryBackend()},
            placement="ring",
        )
        if in_transition:
            router.placement.begin_transition(
                PlacementSpec(
                    members=("store-00", "store-01", "store-02"), mode="ring"
                )
            )
        return router

    def _exhausted_supervisor(self, router):
        supervisor = FleetSupervisor(
            self._StubFleet(), router=router, flap_limit=2
        )
        supervisor._states["store-00"] = "dead"
        supervisor._attempts["store-00"] = 2  # the flap cap is spent
        return supervisor

    def test_participant_is_deferred_not_quarantined(self):
        router = self._make_router(in_transition=True)
        supervisor = self._exhausted_supervisor(router)
        supervisor._try_restart("store-00")
        assert supervisor.status()["store-00"]["state"] == "dead"
        assert supervisor.quarantined == []
        events = [event for _t, _n, event, _d in supervisor.events]
        assert "quarantine-deferred" in events
        # a deferred worker backs off at the max delay, not forever
        assert supervisor._not_before["store-00"] > 0

    def test_non_participant_quarantines_as_before(self):
        router = self._make_router(in_transition=False)
        supervisor = self._exhausted_supervisor(router)
        supervisor._try_restart("store-00")
        assert supervisor.quarantined == ["store-00"]
        events = [event for _t, _n, event, _d in supervisor.events]
        assert "quarantined" in events

    def test_deferral_ends_when_migration_resolves(self):
        router = self._make_router(in_transition=True)
        supervisor = self._exhausted_supervisor(router)
        supervisor._try_restart("store-00")
        assert supervisor.quarantined == []
        router.placement.abort_transition()
        supervisor._not_before["store-00"] = 0.0  # backoff elapsed
        supervisor._try_restart("store-00")
        assert supervisor.quarantined == ["store-00"]


class TestResyncStream:
    """Rejoin resync is the migration stream from each live peer (no
    processes: in-process stores stand in for the workers, and with no
    router the supervisor places keys R=1 modulo over its worker names)."""

    class _LiveFleet:
        worker_names = ["store-00", "store-01", "store-02"]

        def handle(self, name):
            return types.SimpleNamespace(alive=True)

    def test_resync_streams_the_targets_keys_past_the_cursor(self, tmp_path):
        names = self._LiveFleet.worker_names
        target = "store-00"
        stores = {
            name: KVLogBackend(tmp_path / f"{name}.kv", sync=False)
            for name in names
        }
        supervisor = FleetSupervisor(self._LiveFleet())
        supervisor._remote = stores.__getitem__
        spec = PlacementSpec(members=tuple(names))

        def owned(i):
            return spec.replica_set(key(i)) == [target]

        try:
            early, late = range(0, 12), range(12, 48)
            for i in early:
                stores["store-01"].put(ipa(i))
            supervisor._cursors[target] = {
                "store-01": stores["store-01"].sequence_watermark(),
                "store-02": 0,
            }
            for i in late:
                stores["store-01" if i % 2 else "store-02"].put(ipa(i))
            stores["store-02"].put(ga(13))
            assert any(owned(i) for i in early)
            assert any(owned(i) for i in late)
            assert not all(owned(i) for i in late)

            pushed = supervisor._resync(target)

            expected = {ipa(i).to_xml().serialize() for i in late if owned(i)}
            expected.add(ga(13).to_xml().serialize())
            held = [a.to_xml().serialize() for a in stores[target].all_assertions()]
            assert sorted(held) == sorted(expected)
            assert pushed == len(expected)
            # Nothing new the second time: every p-assertion is skipped as a
            # duplicate; the broadcast group is re-asserted, which a store
            # takes as a no-op.
            counts = stores[target].counts()
            assert supervisor._resync(target) == 1
            assert stores[target].counts() == counts
        finally:
            for store in stores.values():
                store.close()
