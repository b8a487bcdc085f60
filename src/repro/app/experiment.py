"""End-to-end experiment assembly.

One object that stands up the whole deployment of Section 6 — database,
message bus, PReServ (chosen backend), Grimoires registry with the
experiment ontology and annotated service descriptions, workflow services,
recorder and interceptor — and runs compressibility experiments on it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Tuple

from repro.app.services import (
    AverageService,
    CollateSampleService,
    CollateSizesService,
    CompressService,
    EncodeByGroupsService,
    MeasureSizeService,
    NucleotideSourceService,
    ShuffleService,
)
from repro.app.workflow import CompressibilityWorkflow, WorkflowRunResult
from repro.bio.refseq import RefSeqDatabase
from repro.core.client import ProvenanceQueryClient
from repro.fleet.faults import FaultRule
from repro.core.instrument import ProvenanceInterceptor
from repro.core.recorder import Journal, ProvenanceRecorder, RecordingMode
from repro.registry.client import RegistryClient
from repro.registry.ontology import (
    T_AA_SEQUENCE,
    T_COMPRESSED,
    T_DATA,
    T_ENCODED,
    T_NT_SEQUENCE,
    T_RESULT,
    T_SAMPLE,
    T_SIZE,
    T_SIZES_TABLE,
    build_experiment_ontology,
)
from repro.registry.service import GrimoiresRegistry
from repro.registry.wsdl import (
    MessagePart,
    OperationDescription,
    PartKey,
    ServiceDescription,
)
from repro.soa.bus import LatencyModel, MessageBus
from repro.store import make_backend
from repro.store.interface import ProvenanceStoreInterface
from repro.store.service import PReServActor

_session_counter = itertools.count(1)


@dataclass
class ExperimentConfig:
    """Knobs for one experiment run."""

    sample_bytes: int = 4000
    n_permutations: int = 3
    grouping: str = "hp2"
    codecs: Tuple[str, ...] = ("gz-like",)
    recording: RecordingMode = RecordingMode.ASYNCHRONOUS
    record_scripts: bool = False
    seed: int = 7
    release: Optional[int] = None
    organism: Optional[str] = None
    store_backend: str = "memory"
    store_path: Optional[Path] = None
    #: where the PReServ store runs: ``"inprocess"`` (an actor on this
    #: process's bus) or ``"process"`` (a :mod:`repro.fleet` worker child
    #: process hosting the same actor, reached over the Envelope socket
    #: transport via a bus-registered proxy — every client keeps using the
    #: bus unchanged).
    store_transport: str = "inprocess"
    #: attach a background compaction scheduler to the persistent backends
    #: (see :mod:`repro.store.maintenance`); stopped by :meth:`Experiment.close`.
    store_auto_compact: bool = False
    #: scripted faults for the store worker (crash-sim scenarios, see
    #: :mod:`repro.fleet.faults`): a tuple of frozen ``FaultRule`` handed
    #: to the worker's :class:`~repro.fleet.worker.WorkerConfig`, so an
    #: experiment can deterministically kill/stall its store at a named
    #: commit point.  Requires ``store_transport="process"`` — there is
    #: no worker to instrument in-process.
    store_fault_rules: Tuple[FaultRule, ...] = ()
    #: number of member stores behind the provenance endpoint.  1 (the
    #: default) is the single-store paper deployment; >1 stands up a
    #: :func:`~repro.store.distributed.sharded_store_fleet` under the
    #: actor via :class:`~repro.store.distributed.FederatedStoreAdapter`
    #: (requires ``store_backend="kvlog"`` and ``store_path``).
    store_members: int = 1
    #: replica sets per interaction when ``store_members > 1``.
    store_replicas: int = 1
    #: placement rule for the fleet: ``"modulo"`` (legacy hash-mod-N,
    #: byte-identical paper figures) or ``"ring"`` (consistent hashing —
    #: the rebalance-capable rule; see :mod:`repro.store.placement`).
    store_placement: str = "modulo"
    journal_path: Optional[Path] = None
    #: virtual-time latency charged per store call (the paper's ~15 ms
    #: retrieve-and-map unit uses the same service).
    store_latency_s: float = 0.015
    #: virtual-time latency charged per registry call.
    registry_latency_s: float = 0.015


@dataclass
class ExperimentResult:
    """One run's outputs plus recording statistics."""

    run: WorkflowRunResult
    session_id: str
    records_submitted: int
    records_flushed: int
    bus_calls: int
    virtual_time_s: float

    def compressibility(self, codec: str) -> float:
        return self.run.compressibility(codec)


def _make_backend(config: ExperimentConfig) -> ProvenanceStoreInterface:
    # Name the config field in the one error a config author hits most;
    # every other misconfiguration is diagnosed by the factory itself.
    if config.store_backend in ("filesystem", "kvlog") and config.store_path is None:
        raise ValueError(
            f"backend {config.store_backend!r} requires config.store_path"
        )
    return make_backend(
        config.store_backend,
        config.store_path,
        auto_compact=config.store_auto_compact,
    )


class Experiment:
    """A deployed instance of the provenance architecture + application."""

    def __init__(self, config: Optional[ExperimentConfig] = None, db: Optional[RefSeqDatabase] = None):
        self.config = config or ExperimentConfig()
        self.db = db or RefSeqDatabase(seed=self.config.seed)
        self.bus = MessageBus()

        # --- provenance store -------------------------------------------
        #: the fleet router when ``store_members > 1`` (live rebalance
        #: entry point: ``experiment.store_router.add_worker()``).
        self.store_router = None
        if self.config.store_members > 1:
            # A fleet behind the actor: the store endpoint is unchanged,
            # but every record lands on its placement-routed member (and
            # the fleet can be rebalanced live via the router).
            from repro.store.distributed import (
                FederatedStoreAdapter,
                sharded_store_fleet,
            )

            if self.config.store_backend != "kvlog":
                raise ValueError(
                    "store_members > 1 requires store_backend='kvlog' "
                    "(fleet members are KVLog-backed stores)"
                )
            if self.config.store_path is None:
                raise ValueError("store_members > 1 requires config.store_path")
            if self.config.store_fault_rules:
                raise ValueError(
                    "store_fault_rules targets the single store worker; "
                    "pass fault_rules to sharded_store_fleet directly for "
                    "fleet crash drills"
                )
            self.store_router = sharded_store_fleet(
                self.config.store_path,
                members=self.config.store_members,
                transport=self.config.store_transport,
                auto_compact=self.config.store_auto_compact,
                replicas=self.config.store_replicas,
                placement=self.config.store_placement,
            )
            self.backend = FederatedStoreAdapter(self.store_router)
            self.preserv = PReServActor(self.backend)
            self.store_worker = None
        elif self.config.store_transport == "inprocess":
            if self.config.store_fault_rules:
                raise ValueError(
                    "store_fault_rules requires store_transport='process'; "
                    "there is no worker process to instrument in-process"
                )
            self.backend: Optional[ProvenanceStoreInterface] = _make_backend(
                self.config
            )
            self.preserv = PReServActor(self.backend)
            self.store_worker = None
        elif self.config.store_transport == "process":
            # The store runs in its own process; the bus sees a proxy under
            # the same endpoint, so every client below works unchanged.
            # ``backend`` is None — there is no in-process store object.
            import tempfile

            from repro.fleet.manager import WorkerHandle
            from repro.fleet.worker import WorkerConfig
            from repro.soa.transport import RemoteEndpoint

            if self.config.store_backend in ("filesystem", "kvlog") and (
                self.config.store_path is None
            ):
                raise ValueError(
                    f"backend {self.config.store_backend!r} requires "
                    f"config.store_path"
                )
            self.backend = None
            self._worker_socket_dir = tempfile.mkdtemp(prefix="preserv-exp-")
            import multiprocessing

            worker_config = WorkerConfig(
                endpoint="preserv",
                address=("unix", f"{self._worker_socket_dir}/preserv.sock"),
                backend=self.config.store_backend,
                path=(
                    str(self.config.store_path)
                    if self.config.store_path is not None
                    else None
                ),
                auto_compact=self.config.store_auto_compact,
                fault_rules=tuple(self.config.store_fault_rules),
            )
            self.store_worker = WorkerHandle(
                "preserv", worker_config, multiprocessing.get_context("spawn")
            )
            try:
                self.store_worker.spawn()
                self.store_worker.wait_healthy()
            except BaseException:
                # A worker that missed its health check may still be
                # running; neither it nor its socket dir may outlive us.
                self._stop_store_worker()
                raise
            self.preserv = RemoteEndpoint(
                self.store_worker.client,
                "preserv",
                description="PReServ provenance store (worker process)",
                operations=("record", "query", "ping", "admin", "shutdown"),
            )
        else:
            raise ValueError(
                f"unknown store_transport {self.config.store_transport!r}; "
                f"use 'inprocess' or 'process'"
            )
        self.bus.register(
            self.preserv,
            latency=LatencyModel(round_trip_s=self.config.store_latency_s),
        )

        # --- registry ------------------------------------------------------
        self.ontology = build_experiment_ontology()
        self.registry = GrimoiresRegistry(self.ontology)
        self.bus.register(
            self.registry,
            latency=LatencyModel(round_trip_s=self.config.registry_latency_s),
        )

        # --- workflow services ----------------------------------------------
        self.collate = CollateSampleService(self.db)
        self.encode = EncodeByGroupsService(grouping=self.config.grouping)
        self.shuffle = ShuffleService(seed=self.config.seed)
        self.compressors = [CompressService(codec) for codec in self.config.codecs]
        self.measure = MeasureSizeService()
        self.sizes = CollateSizesService()
        self.average = AverageService()
        self.nucleotide_db = NucleotideSourceService(seed=self.config.seed)
        self._services = [
            self.collate,
            self.encode,
            self.shuffle,
            *self.compressors,
            self.measure,
            self.sizes,
            self.average,
            self.nucleotide_db,
        ]
        for service in self._services:
            self.bus.register(service)
        self._publish_descriptions()

        # --- recorder + interceptor ------------------------------------------
        journal = Journal(self.config.journal_path)
        self.recorder = ProvenanceRecorder(
            self.bus,
            mode=self.config.recording,
            journal=journal,
        )
        self.interceptor: Optional[ProvenanceInterceptor] = None
        self.workflow = CompressibilityWorkflow(
            bus=self.bus,
            compress_endpoints=[c.endpoint for c in self.compressors],
        )

        # --- typed clients -----------------------------------------------
        self.store_client = ProvenanceQueryClient(self.bus)
        self.registry_client = RegistryClient(self.bus)

    # -- registry content -------------------------------------------------
    def _publish_descriptions(self) -> None:
        """Publish annotated WSDL for every workflow service."""

        def describe(
            service: str,
            operation: str,
            inputs: Sequence[Tuple[str, str]],
            outputs: Sequence[Tuple[str, str]],
        ) -> None:
            desc = ServiceDescription(
                service=service,
                operations=(
                    OperationDescription(
                        name=operation,
                        inputs=tuple(MessagePart(name) for name, _ in inputs),
                        outputs=tuple(MessagePart(name) for name, _ in outputs),
                    ),
                ),
            )
            try:
                self.registry.publish(desc)
            except ValueError:
                # Same service publishing a second operation: merge.
                existing = self.registry.description_of(service)
                merged = ServiceDescription(
                    service=service,
                    description=existing.description,
                    operations=existing.operations + desc.operations,
                )
                self.registry.unpublish(service)
                self.registry.publish(merged)
            for name, semantic in inputs:
                self.registry.annotate(
                    PartKey(service, operation, "input", name),
                    "semantic-type",
                    semantic,
                )
            for name, semantic in outputs:
                self.registry.annotate(
                    PartKey(service, operation, "output", name),
                    "semantic-type",
                    semantic,
                )

        describe(
            self.collate.endpoint,
            "collate",
            inputs=[("request", T_DATA)],
            outputs=[("sample", T_SAMPLE)],
        )
        describe(
            self.nucleotide_db.endpoint,
            "fetch",
            inputs=[("request", T_DATA)],
            outputs=[("sample", T_NT_SEQUENCE)],
        )
        describe(
            self.encode.endpoint,
            "encode",
            inputs=[("sequence", T_AA_SEQUENCE)],
            outputs=[("encoded", T_ENCODED)],
        )
        describe(
            self.shuffle.endpoint,
            "shuffle",
            inputs=[("sequence", T_ENCODED)],
            outputs=[("permutation", T_ENCODED)],
        )
        for compressor in self.compressors:
            describe(
                compressor.endpoint,
                "compress",
                inputs=[("data", T_ENCODED)],
                outputs=[("compressed", T_COMPRESSED)],
            )
        describe(
            self.measure.endpoint,
            "measure",
            inputs=[("data", T_COMPRESSED)],
            outputs=[("size", T_SIZE)],
        )
        describe(
            self.sizes.endpoint,
            "add_size",
            inputs=[("entry", T_SIZE)],
            outputs=[("ack", T_DATA)],
        )
        describe(
            self.sizes.endpoint,
            "table",
            inputs=[("request", T_DATA)],
            outputs=[("table", T_SIZES_TABLE)],
        )
        describe(
            self.average.endpoint,
            "average",
            inputs=[("table", T_SIZES_TABLE)],
            outputs=[("results", T_RESULT)],
        )

    # -- script provider for UC1 -----------------------------------------
    def script_for(self, endpoint: str) -> Optional[str]:
        for service in self._services:
            if service.endpoint == endpoint:
                return service.script_content()
        return None

    # -- running ------------------------------------------------------------
    def new_session(self) -> str:
        return f"session-{next(_session_counter):06d}"

    def run(
        self,
        session_id: Optional[str] = None,
        sample_source_endpoint: Optional[str] = None,
        sample_source_operation: str = "collate",
    ) -> ExperimentResult:
        """Run one complete experiment (one session)."""
        session_id = session_id or self.new_session()
        interceptor = ProvenanceInterceptor(
            recorder=self.recorder,
            session_id=session_id,
            script_provider=self.script_for,
            record_scripts=self.config.record_scripts,
        )
        self.interceptor = interceptor
        submitted_before = self.recorder.submitted
        calls_before = self.bus.calls
        clock_before = self.bus.clock.now
        self.bus.add_interceptor(interceptor)
        try:
            run = self.workflow.run(
                session_id=session_id,
                sample_bytes=self.config.sample_bytes,
                n_permutations=self.config.n_permutations,
                release=self.config.release,
                organism=self.config.organism,
                sample_source_endpoint=sample_source_endpoint,
                sample_source_operation=sample_source_operation,
            )
        finally:
            self.bus.remove_interceptor(interceptor)
        flushed = 0
        if self.config.recording is RecordingMode.ASYNCHRONOUS:
            flushed = self.recorder.flush()
        return ExperimentResult(
            run=run,
            session_id=session_id,
            records_submitted=self.recorder.submitted - submitted_before,
            records_flushed=flushed,
            bus_calls=self.bus.calls - calls_before,
            virtual_time_s=self.bus.clock.now - clock_before,
        )

    def close(self) -> None:
        if self.backend is not None:
            self.backend.close()
        if self.store_worker is not None:
            self._stop_store_worker()
        self.recorder.journal.close()

    def _stop_store_worker(self) -> None:
        import shutil

        self.store_worker.stop()
        shutil.rmtree(self._worker_socket_dir, ignore_errors=True)
