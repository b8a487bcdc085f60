"""Integration scenarios crossing every layer of the system.

Each test tells one complete story: run real workflows on a persistent
store, survive restarts, answer the survey's provenance questions, and
exercise the §7 extensions against real (not synthetic) provenance.
"""

from __future__ import annotations

import pytest

from repro.app.experiment import Experiment, ExperimentConfig
from repro.core.client import ProvenanceQueryClient
from repro.core.query import build_trace, data_lineage, used_as_input
from repro.core.recorder import Journal, ProvenanceRecorder, RecordingMode
from repro.registry.client import RegistryClient
from repro.store.backends import KVLogBackend, MemoryBackend
from repro.store.curation import export_archive, import_archive
from repro.store.distributed import (
    FederatedQueryClient,
    StoreRouter,
    consolidate,
    sharded_store_fleet,
)
from repro.usecases.comparison import categorise_scripts, compare_sessions
from repro.usecases.semantic import validate_session


class TestPersistentProvenanceLifecycle:
    """Provenance must outlive the application — the store's core promise."""

    def test_run_close_reopen_query(self, small_db, tmp_path):
        store_path = tmp_path / "preserv.db"
        config = ExperimentConfig(
            sample_bytes=1200,
            n_permutations=2,
            record_scripts=True,
            store_backend="kvlog",
            store_path=store_path,
        )
        exp = Experiment(config, db=small_db)
        result = exp.run()
        session = result.session_id
        counts = exp.backend.counts()
        exp.close()

        # A completely new process: reopen the store and reason over it.
        reopened = KVLogBackend(store_path)
        assert reopened.counts() == counts
        trace = build_trace(reopened, session)
        assert trace.undocumented() == []
        lineage = data_lineage(trace, result.run.message_ids["average"])
        assert result.run.message_ids["collate"] in lineage
        reopened.close()

    def test_crashed_run_recovered_from_journal(self, small_db, tmp_path):
        """Async journal on disk + replay: no provenance lost to a crash."""
        journal_path = tmp_path / "journal.log"
        config = ExperimentConfig(
            sample_bytes=1200,
            n_permutations=2,
            record_scripts=True,
            journal_path=journal_path,
        )
        exp = Experiment(config, db=small_db)
        # Run the workflow but "crash" before the flush.
        interceptor_session = exp.new_session()
        from repro.core.instrument import ProvenanceInterceptor

        interceptor = ProvenanceInterceptor(
            recorder=exp.recorder,
            session_id=interceptor_session,
            script_provider=exp.script_for,
            record_scripts=True,
        )
        exp.bus.add_interceptor(interceptor)
        try:
            exp.workflow.run(
                session_id=interceptor_session,
                sample_bytes=config.sample_bytes,
                n_permutations=config.n_permutations,
            )
        finally:
            exp.bus.remove_interceptor(interceptor)
        pending = exp.recorder.pending
        assert pending > 0
        exp.recorder.journal.close()  # crash: nothing flushed

        # Recovery into a fresh store.
        recovered_store = MemoryBackend()
        from repro.soa.bus import MessageBus
        from repro.store.service import PReServActor

        bus = MessageBus()
        bus.register(PReServActor(recovered_store))
        recorder = ProvenanceRecorder(
            bus, mode=RecordingMode.ASYNCHRONOUS, journal=Journal.load(journal_path)
        )
        assert recorder.flush() == pending
        trace = build_trace(recovered_store, interceptor_session)
        assert trace.undocumented() == []


class TestSurveyQuestions:
    """The survey's [11] provenance questions against real runs."""

    def test_was_this_data_item_used_as_input(self, experiment_factory):
        exp = experiment_factory(n_permutations=1)
        result = exp.run()
        trace = build_trace(exp.backend, result.session_id)
        # The encoded sample's digest must appear as an input of the sample
        # measure chain's compression call.
        hits = used_as_input(trace, result.run.encoded_digest)
        sample_chain = [c for c in result.run.chains if c.label == "sample"][0]
        assert sample_chain.compress_id in hits

    def test_which_inputs_produced_this_output(self, experiment_factory):
        exp = experiment_factory(n_permutations=2)
        result = exp.run()
        trace = build_trace(exp.backend, result.session_id)
        lineage = data_lineage(trace, result.run.message_ids["average"])
        # Every measure chain feeds the final average.
        for chain in result.run.chains:
            assert chain.collate_id in lineage

    def test_same_process_question_two_experiments(self, experiment_factory):
        exp = experiment_factory(n_permutations=1, release=1)
        r1 = exp.run()
        r2 = exp.run()
        cat = categorise_scripts(ProvenanceQueryClient(exp.bus))
        assert compare_sessions(cat, r1.session_id, r2.session_id).same_process


class TestDistributedProvenanceWithRealRuns:
    def test_real_run_distributed_and_consolidated(self, experiment_factory):
        exp = experiment_factory(n_permutations=2)
        result = exp.run()
        # Re-route the recorded corpus across three stores.
        router = StoreRouter({f"s{i}": MemoryBackend() for i in range(3)})
        for assertion in exp.backend.all_assertions():
            router.put(assertion)
        fed = FederatedQueryClient(router)
        assert fed.counts().interaction_records == exp.backend.counts().interaction_records
        # Consolidate back and verify the trace is intact.
        merged = MemoryBackend()
        consolidate(router, merged)
        trace = build_trace(merged, result.session_id)
        assert trace.undocumented() == []
        assert data_lineage(trace, result.run.message_ids["average"])

    def test_fleet_mode_records_on_every_replica(self, small_db, tmp_path):
        """``store_members > 1``: the actor serves a 2-member R=2 ring
        fleet through the federated adapter, and the fleet reopens."""
        root = tmp_path / "fleet"
        exp = Experiment(
            ExperimentConfig(
                sample_bytes=1200,
                n_permutations=2,
                record_scripts=True,
                store_backend="kvlog",
                store_path=root,
                store_members=2,
                store_replicas=2,
                store_placement="ring",
            ),
            db=small_db,
        )
        try:
            result = exp.run()
            recorded = exp.backend.counts()
            router = exp.store_router
            held = {n: router.store(n).counts() for n in router.store_names}
        finally:
            exp.close()
        assert result.records_flushed > 0
        # R=2 over two members: each holds every record once.
        assert [c.total for c in held.values()] == [result.records_flushed] * 2
        assert recorded.total == result.records_flushed
        reopened = sharded_store_fleet(
            root, members=2, replicas=2, placement="ring"
        )
        try:
            assert FederatedQueryClient(reopened).counts() == recorded
            assert {
                n: reopened.store(n).counts() for n in reopened.store_names
            } == held
        finally:
            reopened.close()

    def test_process_fleet_answers_group_queries(
        self, small_db, tmp_path, monkeypatch
    ):
        """A kvlog fleet of worker processes answers the group queries
        (which need every member's ``group_kinds``) exactly as the same
        fleet does in-process."""
        import itertools

        from repro.app import experiment, workflow

        def group_view(transport):
            # Fresh id counters: both runs assign the same session and
            # message ids, so their answers compare directly.
            monkeypatch.setattr(experiment, "_session_counter", itertools.count(1))
            monkeypatch.setattr(workflow, "_run_counter", itertools.count(1))
            exp = Experiment(
                ExperimentConfig(
                    sample_bytes=600,
                    n_permutations=1,
                    store_backend="kvlog",
                    store_path=tmp_path / transport,
                    store_members=2,
                    store_transport=transport,
                ),
                db=small_db,
            )
            try:
                exp.run()
                client = ProvenanceQueryClient(exp.bus)
                keys = client.interaction_keys()
                return client.group_ids(), {k: client.groups_of(k) for k in keys}
            finally:
                exp.close()

        process_ids, process_groups = group_view("process")
        inprocess_ids, inprocess_groups = group_view("inprocess")
        assert process_ids and all(process_groups.values())
        assert process_ids == inprocess_ids
        assert process_groups == inprocess_groups

    def test_archive_roundtrip_preserves_usecases(self, experiment_factory, tmp_path):
        """Curated provenance still answers UC1 and UC2 after restore."""
        exp = experiment_factory(n_permutations=1, release=1)
        r1 = exp.run()
        exp.encode.reconfigure("dayhoff6", version="2.0")
        r2 = exp.run()
        path = tmp_path / "archive.xml"
        export_archive(exp.backend, path)

        # Restore into a brand-new deployment's store.
        restored_exp = experiment_factory(n_permutations=1)
        import_archive(path, restored_exp.backend)
        cat = categorise_scripts(ProvenanceQueryClient(restored_exp.bus))
        comparison = compare_sessions(cat, r1.session_id, r2.session_id)
        assert comparison.changed_services() == ["encode-by-groups"]

        store = ProvenanceQueryClient(restored_exp.bus, client_endpoint="it-store")
        registry = RegistryClient(restored_exp.bus, client_endpoint="it-registry")
        report = validate_session(store, registry, r1.session_id)
        assert report.valid


class TestScaleSmoke:
    def test_larger_run_all_invariants(self, experiment_factory):
        """A bigger run: every invariant at once."""
        exp = experiment_factory(
            sample_bytes=3000, n_permutations=6, codecs=("gz-like", "gzip")
        )
        result = exp.run()
        counts = exp.backend.counts()
        # 2 + (1 + n) * 3 * codecs + n + 2 interactions.
        n, k = 6, 2
        assert counts.interaction_records == 2 + (1 + n) * 3 * k + n + 2
        trace = build_trace(exp.backend, result.session_id)
        assert trace.undocumented() == []
        for codec in ("gz-like", "gzip"):
            assert 0.0 < result.compressibility(codec) < 1.5
