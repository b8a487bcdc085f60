"""Tests for the out-of-process store fleet (:mod:`repro.fleet`).

The acceptance contract: a fleet of worker *processes* behind the Envelope
socket transport is indistinguishable — byte for byte — from the same
stores run in-process, except in how it fails: a killed worker surfaces as
``Fault("worker-unavailable")`` to its clients, its siblings keep serving,
and its shard directory reopens to the committed prefix of the acked
stream (the same crash promise every local backend makes).
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import tempfile
import threading
import time
from pathlib import Path

import pytest

from repro.fleet import FleetError, ProcessFleet
from repro.soa.envelope import Fault
from repro.store.backends import KVLogBackend
from repro.store.distributed import (
    FederatedQueryClient,
    sharded_store_fleet,
)

from tests.test_store_backends import ga, ipa, key, spa

#: spawned workers carry this prefix (the orphan-check handle).
WORKER_PREFIX = "preserv-"


def live_workers():
    return [
        p for p in multiprocessing.active_children()
        if p.name.startswith(WORKER_PREFIX)
    ]


def experiment_socket_dirs():
    return set(Path(tempfile.gettempdir()).glob("preserv-exp-*"))


class TestFleetLifecycle:
    def test_member_count_validated_before_spawn(self, tmp_path):
        with pytest.raises(ValueError):
            ProcessFleet(tmp_path, members=0)
        assert not live_workers()

    def test_reopen_with_wrong_member_count_refused(self, tmp_path):
        (tmp_path / "store-00").mkdir()
        with pytest.raises(ValueError, match="members=1"):
            ProcessFleet(tmp_path, members=2)
        assert not live_workers()

    def test_admin_surface_and_teardown(self, tmp_path):
        fleet = ProcessFleet(tmp_path, members=1)
        try:
            (name,) = fleet.worker_names
            store = fleet.store(name)
            pong = store.ping()
            assert pong["endpoint"] == name
            # The whole point of the fleet: the store is another process.
            assert int(pong["pid"]) != multiprocessing.current_process().pid

            g0 = store.generation
            store.put(ipa(1))
            g1 = store.generation
            assert g1 > g0
            assert store.generation == g1  # stable until a write

            assert store.counts().interaction_passertions == 1
            assert store.interaction_keys() == [key(1)]
            with pytest.raises(NotImplementedError):
                store.all_assertions()
            with pytest.raises(Fault) as excinfo:
                store._admin("no-such-admin-op")
            assert excinfo.value.code == "bad-admin"

            with pytest.raises(FleetError, match="still running"):
                fleet.restart(name)
        finally:
            fleet.close()
        fleet.close()  # idempotent
        assert not live_workers()
        assert not fleet.handle(fleet.worker_names[0]).alive


class TestFleetRouter:
    def test_router_and_federated_queries_over_processes(self, tmp_path):
        router = sharded_store_fleet(tmp_path, members=2, transport="process")
        try:
            placements = router.put_many(
                [ipa(i) for i in range(8)]
                + [spa(i) for i in range(8)]
                + [ga(i) for i in range(8)]
            )
            assert len(placements) == 24
            # Group assertions broadcast: every worker answers membership.
            for store in router._stores.values():
                assert store.group_members("session-A") == [
                    key(i) for i in range(8)
                ]
            fed = FederatedQueryClient(router)
            assert fed.interaction_keys() == [key(i) for i in range(8)]
            assert len(fed.interaction_passertions(key(3))) == 1
            counts = fed.counts()
            assert counts.interaction_passertions == 8
            assert counts.actor_state_passertions == 8
            assert counts.group_assertions == 8  # deduplicated, not 16
            # Freshness plumbing crosses the wire too.
            generations = router.generations()
            assert set(generations) == set(router.store_names)
            assert all(g > 0 for g in generations.values())
        finally:
            router.close()
        # close() tore the whole fleet down: workers joined, sockets gone.
        assert not live_workers()
        for handle in router.fleet._handles.values():
            assert not handle.alive
        assert not Path(router.fleet._socket_dir or "/nonexistent").exists()

    def test_results_byte_identical_across_transports(self, tmp_path):
        data = (
            [ipa(i) for i in range(10)]
            + [spa(i) for i in range(10)]
            + [ga(i) for i in range(10)]
        )
        local = sharded_store_fleet(
            tmp_path / "inprocess", members=2, transport="inprocess"
        )
        remote = sharded_store_fleet(
            tmp_path / "process", members=2, transport="process"
        )
        try:
            assert local.put_many(data) == remote.put_many(data)
            fed_local = FederatedQueryClient(local)
            fed_remote = FederatedQueryClient(remote)
            assert fed_local.interaction_keys() == fed_remote.interaction_keys()
            for i in range(10):
                assert [
                    a.to_xml().serialize()
                    for a in fed_local.interaction_passertions(key(i))
                ] == [
                    a.to_xml().serialize()
                    for a in fed_remote.interaction_passertions(key(i))
                ]
                assert [
                    a.to_xml().serialize()
                    for a in fed_local.actor_state_passertions(key(i))
                ] == [
                    a.to_xml().serialize()
                    for a in fed_remote.actor_state_passertions(key(i))
                ]
            assert fed_local.counts() == fed_remote.counts()
            assert (
                fed_local.group_members("session-A")
                == fed_remote.group_members("session-A")
            )
        finally:
            local.close()
            remote.close()
        assert not live_workers()


class TestCrashSim:
    def test_worker_killed_mid_stream(self, tmp_path):
        """Kill a worker mid-``put_many`` stream; the fleet honors the
        crash contract: the writer sees a fault, the survivor keeps
        serving, and the dead shard reopens to the committed prefix."""
        fleet = ProcessFleet(tmp_path, members=2, commit_barrier_s=0.01)
        try:
            victim, survivor = fleet.worker_names
            victim_store = fleet.store(victim)
            acked_batches = []
            faults = []

            def stream() -> None:
                try:
                    for b in itertools.count():
                        batch = [ipa(100 * b + j) for j in range(5)]
                        victim_store.put_many(batch)
                        acked_batches.append(batch)
                except Fault as fault:
                    faults.append(fault)

            writer = threading.Thread(target=stream)
            writer.start()
            deadline = time.monotonic() + 30.0
            while len(acked_batches) < 3 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert len(acked_batches) >= 3, "stream never got going"
            fleet.kill(victim)
            writer.join(timeout=30.0)
            assert not writer.is_alive()
            # The stream died as a fault, not a hang or a socket traceback.
            assert faults and faults[0].code == "worker-unavailable"
            assert not fleet.handle(victim).alive

            # Survivors keep serving reads and writes.
            survivor_store = fleet.store(survivor)
            survivor_store.put(ipa(9001))
            assert key(9001) in survivor_store.interaction_keys()

            # The dead worker's shard reopens offline to a committed
            # prefix that contains every acked record (acks follow
            # commits; the un-acked in-flight batch may or may not have
            # landed).
            acked_keys = {
                a.interaction_key for batch in acked_batches for a in batch
            }
            reopened = KVLogBackend(tmp_path / victim, sync=True)
            try:
                assert acked_keys <= set(reopened.interaction_keys())
            finally:
                reopened.close()

            # restart() respawns on the same shard directory and recovers.
            fleet.restart(victim)
            recovered = fleet.store(victim)
            assert acked_keys <= set(recovered.interaction_keys())
            recovered.put(ipa(9002))
            assert key(9002) in recovered.interaction_keys()
        finally:
            fleet.close()
        assert not live_workers()


class TestExperimentTransport:
    def test_experiment_runs_against_a_worker_process(self, experiment_factory):
        from repro.core.client import ProvenanceQueryClient

        exp = experiment_factory(store_transport="process")
        try:
            assert exp.backend is None
            assert exp.store_worker is not None and exp.store_worker.alive
            result = exp.run()
            assert result.records_submitted > 0
            # The provenance landed in the worker: query it over the same
            # bus proxy the recorder used.
            queries = ProvenanceQueryClient(
                exp.bus, store_endpoint="preserv", client_endpoint="t-reader"
            )
            counts = queries.counts()
            assert counts.interaction_passertions > 0
        finally:
            exp.close()
        assert not exp.store_worker.alive
        assert not live_workers()

    def test_unknown_transport_rejected(self):
        from repro.app.experiment import Experiment, ExperimentConfig

        with pytest.raises(ValueError, match="store_transport"):
            Experiment(ExperimentConfig(store_transport="carrier-pigeon"))

    def test_fault_rules_require_process_transport(self):
        from repro.app.experiment import Experiment, ExperimentConfig
        from repro.fleet.faults import FaultRule

        with pytest.raises(ValueError, match="store_fault_rules"):
            Experiment(
                ExperimentConfig(
                    store_fault_rules=(FaultRule("commit", "die"),)
                )
            )

    def test_scripted_store_crash_reaches_the_experiment(
        self, experiment_factory
    ):
        """`store_fault_rules` scripts a deterministic store crash.

        The worker dies at its first commit point; the experiment's flush
        surfaces that as `Fault("worker-unavailable")` — not a hang, not a
        socket traceback — and the child exits with the fault exit code.
        """
        from repro.fleet.faults import FAULT_EXIT_CODE, FaultRule

        rules = (FaultRule("commit", "die"),)
        exp = experiment_factory(
            store_transport="process", store_fault_rules=rules
        )
        try:
            assert exp.store_worker.config.fault_rules == rules
            with pytest.raises(Fault) as excinfo:
                exp.run()
            assert excinfo.value.code == "worker-unavailable"
            exp.store_worker.process.join(timeout=10.0)
            assert exp.store_worker.process.exitcode == FAULT_EXIT_CODE
        finally:
            exp.close()
        assert not live_workers()

    def test_worker_that_dies_on_startup_leaves_nothing_behind(
        self, experiment_factory, tmp_path
    ):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("a regular file, so the store path cannot exist")
        before = experiment_socket_dirs()
        with pytest.raises(FleetError, match="exited during startup"):
            experiment_factory(
                store_transport="process",
                store_backend="kvlog",
                store_path=blocker / "store",
            )
        assert experiment_socket_dirs() <= before
        assert not live_workers()

    def test_failed_health_check_stops_the_live_worker(
        self, experiment_factory, monkeypatch
    ):
        from repro.fleet.manager import WorkerHandle

        real_wait_healthy = WorkerHandle.wait_healthy

        def serving_then_fail(self, *args, **kwargs):
            # The worker is up and serving when the check gives up.
            real_wait_healthy(self, *args, **kwargs)
            raise FleetError(f"worker {self.name!r} forced health failure")

        monkeypatch.setattr(WorkerHandle, "wait_healthy", serving_then_fail)
        before = experiment_socket_dirs()
        with pytest.raises(FleetError, match="forced health failure"):
            experiment_factory(store_transport="process")
        assert experiment_socket_dirs() <= before
        assert not live_workers()


class TestHealthProbe:
    def test_each_poll_is_one_ping_attempt(self, monkeypatch):
        from repro.fleet.manager import WorkerHandle
        from repro.fleet.worker import WorkerConfig

        # Nothing listens here, so every probe fails to connect.
        address = (
            "unix",
            f"{tempfile.gettempdir()}/preserv-absent-{os.getpid()}.sock",
        )
        handle = WorkerHandle(
            "w", WorkerConfig(endpoint="w", address=address), ctx=None
        )

        class StartingProcess:
            """Alive for five polls, then exits before ever serving."""

            exitcode = 3
            checks = 0

            def is_alive(self):
                self.checks += 1
                return self.checks <= 5

        handle.process = StartingProcess()
        calls = []
        real_call = handle.client.call

        def counting_call(*args, **kwargs):
            calls.append(kwargs)
            return real_call(*args, **kwargs)

        monkeypatch.setattr(handle.client, "call", counting_call)
        try:
            with pytest.raises(FleetError, match="exited during startup"):
                handle.wait_healthy(timeout_s=60.0)
        finally:
            handle.client.close()
        assert len(calls) == 5  # one call per poll
        assert all(kw["operation"] == "ping" for kw in calls)
        assert all(kw["idempotent"] is False for kw in calls)
        assert handle.client.retries == 0  # no retry budget inside a poll
