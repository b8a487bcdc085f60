"""The three workloads: record-session, fleet-ingest, provenance-query.

Each is a closed loop driven by one client.  Store workers run on the
``process`` transport (one worker process per store, reached over Unix
sockets) and every group commit fsyncs (``sync=True``, the store default;
no modeled device barrier).  A workload returns an :class:`Outcome`.  Its
correctness checks compare what the store returns over the wire (counts,
use-case answers) and what its logs hold on disk after a reopen against
facts the benchmark computed itself.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Set, Tuple

from perfbench import checks
from perfbench.hostspeed import SpeedProbe
from perfbench.hygiene import RunSpace
from perfbench.tracing import Tracer

#: interaction records in the provenance-query store (Fig. 5's largest point).
QUERY_RECORDS = 4000
QUERY_SESSION_SIZE = 50
#: every k-th encode interaction of provenance-query gets a nucleotide producer.
QUERY_VIOLATION_EVERY = 4
#: UC1 passes per provenance-query round (one round validates every session).
QUERY_UC1_PASSES = 3
#: interaction records per fleet-ingest round (~6.4k p-assertions).
INGEST_RECORDS = 1280
INGEST_BATCH = 64
#: leading batches of each fleet-ingest round left out of the figures
#: (they dial the members' sockets and start the fan-out pool).
INGEST_WARMUP_BATCHES = 2
#: timed sessions per record-session round (~7 s on a 2-core host).
RECORD_ROUND_SESSIONS = 40
RECORD_WARMUP_SESSIONS = 1
#: reopens of each record-session round's store.
RECORD_REOPENS = 2
#: script lookups of a UC1 pass between two host-speed samples (~33 a pass).
QUERY_PACE_LOOKUPS = 128
FLEET_MEMBERS = 2
FLEET_REPLICAS = 2


@dataclass
class Context:
    seed: int
    seconds: float
    space: RunSpace
    #: ``perf_counter()`` when the process started.
    started: float
    tracer: Optional[Tracer] = None
    #: times a set of store workers was started (set-up and reopens).
    worker_starts: int = 0
    #: the host's speed, sampled after every operation (see ``hostspeed``).
    probe: SpeedProbe = field(default_factory=SpeedProbe)

    def end_setup(self, out: "Outcome") -> None:
        """Time the set-up, from the process's start, and stop the probe's
        background sampling (see ``hostspeed``)."""
        out.setup = (self.started, perf_counter())
        self.probe.stop_background()

    def op(self, op_id: Optional[int]) -> None:
        """Mark the operation in flight for the tracer (None = untimed)."""
        if self.tracer is not None:
            self.tracer.op = op_id


#: ``(start, end)`` of a timed interval, in ``perf_counter()`` seconds.
Interval = Tuple[float, float]


@dataclass
class Outcome:
    setup: Interval = (0.0, 0.0)
    #: each timed unit operation.
    ops: List[Interval] = field(default_factory=list)
    #: records moved (recorded, ingested or scanned) in ``record_time``.
    records: int = 0
    record_time: List[Interval] = field(default_factory=list)
    #: time until a reopened store or fleet serves, once per reopen.
    reopen_s: List[float] = field(default_factory=list)
    store_bytes_per_record: List[float] = field(default_factory=list)
    attempted: int = 0
    #: units the per-layer figures are divided by.
    units: int = 0
    timed_ops: Set[int] = field(default_factory=set)
    #: checkpoint-stats of every member at every reopen.
    reopen_stats: List[List[Dict[str, str]]] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)


def closed_loop(seconds: float, one_round: Callable[[int], None]) -> int:
    """Run whole rounds, stopping at the round end nearest to ``seconds``.

    At least one round runs; another starts only while it is expected to
    end closer to ``seconds`` than the current time is.
    """
    start = perf_counter()
    rounds = 0
    while True:
        one_round(rounds)
        rounds += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / rounds / 2 >= seconds:
            return rounds


# -- shared helpers ------------------------------------------------------------

KIND_OF = {
    "InteractionPAssertion": "interaction",
    "ActorStatePAssertion": "actor-state",
    "GroupAssertion": "group",
}


def store_kinds(counts) -> Dict[str, int]:
    """A ``StoreCounts`` as counts per assertion kind (see ``KIND_OF``)."""
    return {
        "interaction": counts.interaction_passertions,
        "actor-state": counts.actor_state_passertions,
        "group": counts.group_assertions,
    }


def log_texts(path: str) -> List[str]:
    """Every live record of a closed store's log, as the bytes it holds."""
    from repro.store.kvlog import KVLog

    with KVLog(path, sync=False) as log:
        return [value.decode("utf-8") for _key, value in log.scan()]


def _tree_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _dirs, files in os.walk(root) for f in files
    )


class _Collector:
    """A ``put_many`` sink that keeps the assertions it is given."""

    def __init__(self) -> None:
        self.items: list = []

    def put_many(self, assertions) -> int:
        self.items.extend(assertions)
        return len(assertions)


def _wait_serving(handle, deadline_s: float = 60.0) -> None:
    """Return as soon as ``handle``'s worker answers a ping.

    Probes every 10 ms with one attempt each.  ``WorkerHandle.wait_healthy``
    probes through the client's retry backoff, which sees readiness up to
    ~0.2 s late, in steps, and made a 1.2-s reopen read 1.17 or ~1.5 s.
    """
    from repro.fleet.manager import FleetError
    from repro.soa.envelope import Fault
    from repro.soa.transport import NO_RETRY, EnvelopeClient
    from repro.soa.xmldoc import XmlElement

    probe = EnvelopeClient(handle.config.address, retry=NO_RETRY)
    deadline = perf_counter() + deadline_s
    try:
        while True:
            if not handle.alive:
                raise FleetError(f"worker {handle.name!r} exited during startup")
            try:
                probe.call(
                    source="bench-probe",
                    target=handle.config.endpoint,
                    operation="ping",
                    payload=XmlElement("ping"),
                )
                return
            except Fault as fault:
                if fault.code != "worker-unavailable" or perf_counter() > deadline:
                    raise
            time.sleep(0.01)
    finally:
        probe.close()


def _reopen_worker(ctx: Context, store_path: str, outcome: Outcome, inspect: Callable) -> None:
    """Start a store worker on ``store_path``, time it until it serves,
    then hand its :class:`RemoteStore` to ``inspect`` before stopping it."""
    import multiprocessing

    from repro.fleet.manager import WorkerHandle
    from repro.fleet.remote import RemoteStore
    from repro.fleet.worker import WorkerConfig

    socket_dir = tempfile.mkdtemp(prefix="preserv-bench-")
    handle = WorkerHandle(
        "preserv",
        WorkerConfig(
            endpoint="preserv",
            address=("unix", f"{socket_dir}/preserv.sock"),
            backend="kvlog",
            path=store_path,
        ),
        multiprocessing.get_context("spawn"),
    )
    try:
        wait_serving = _wait_serving
        if ctx.tracer is not None:
            # Counted with the manager's own start-up waits.
            wait_serving = ctx.tracer.wrap(_wait_serving, "fleet.manager.spawn")
        started = perf_counter()
        handle.spawn()
        wait_serving(handle)
        outcome.reopen_s.append(perf_counter() - started)
        ctx.worker_starts += 1
        store = RemoteStore(handle.client, "preserv", name="bench-reader")
        outcome.reopen_stats.append([store.checkpoint_stats()])
        inspect(store)
    finally:
        handle.stop()
        shutil.rmtree(socket_dir, ignore_errors=True)


def _experiment(ctx: Context, store_path: str):
    """The paper's deployment with ``ExperimentConfig`` defaults, its store
    in one worker process.

    The sequence database keeps the default seed, so every run compresses
    the same sample; ``--seed`` drives the shuffle permutations.  (A
    database drawn from the run's seed changes the sample's length and
    content, and with them a session's cost by up to a third.)
    """
    from repro.app.experiment import Experiment, ExperimentConfig
    from repro.bio.refseq import RefSeqDatabase

    config = ExperimentConfig(
        seed=ctx.seed,
        store_backend="kvlog",
        store_path=Path(store_path),
        store_transport="process",
    )
    experiment = Experiment(config, db=RefSeqDatabase(seed=ExperimentConfig.seed))
    ctx.worker_starts += 1
    return experiment


# -- record-session -------------------------------------------------------------

def record_session(ctx: Context) -> Outcome:
    """The paper's experiment, session after session, recorded asynchronously.

    A round records ``RECORD_ROUND_SESSIONS`` sessions (after one warm-up
    session) into a fresh store, runs UC2 on a recorded and a
    nucleotide-fed session, closes the deployment, reopens the store in a
    new worker (twice) and reads it back.  Rounds keep the store, the worker's
    memory and the replay at a size that does not depend on how fast the
    sessions ran.
    """
    from repro.core.client import ProvenanceQueryClient
    from repro.registry.client import RegistryClient
    from repro.usecases import semantic

    out = Outcome()
    experiment = _experiment(ctx, ctx.space.path("record-0000", "store.kv"))
    ctx.end_setup(out)
    next_op = [0]

    def one_round(r: int) -> None:
        nonlocal experiment
        round_dir = ctx.space.path(f"record-{r:04d}")
        store_path = os.path.join(round_dir, "store.kv")
        if experiment is None:
            experiment = _experiment(ctx, store_path)
        submitted: list = []
        try:
            # The recorder's submissions are the facts the read-back is
            # checked against; keeping references costs nothing measurable.
            real_submit = experiment.recorder.submit

            def submit(assertion) -> None:
                submitted.append(assertion)
                real_submit(assertion)

            experiment.recorder.submit = submit
            prefix = f"rs{ctx.seed}-r{r:04d}"
            for i in range(RECORD_WARMUP_SESSIONS + RECORD_ROUND_SESSIONS):
                timed = i >= RECORD_WARMUP_SESSIONS
                op_id = next_op[0]
                next_op[0] += 1
                ctx.op(op_id if timed else None)
                started = perf_counter()
                result = experiment.run(session_id=f"{prefix}-{i:03d}")
                span = (started, perf_counter())
                ctx.op(None)
                ctx.probe.sample()
                out.attempted += 1
                if result.records_flushed != result.records_submitted:
                    out.problems.append(
                        f"session {result.session_id}: {result.records_submitted} "
                        f"submitted, {result.records_flushed} acked"
                    )
                if timed:
                    out.ops.append(span)
                    out.records += result.records_flushed
                    out.record_time.append(span)
                    out.timed_ops.add(op_id)
                    out.units += 1
            flagged = experiment.run(
                session_id=f"{prefix}-nt",
                sample_source_endpoint="nucleotide-db",
                sample_source_operation="fetch",
            )
            store_client = ProvenanceQueryClient(experiment.bus, client_endpoint="bench-uc2")
            registry = RegistryClient(experiment.bus, client_endpoint="bench-registry")
            good = semantic.validate_session(store_client, registry, result.session_id)
            bad = semantic.validate_session(store_client, registry, flagged.session_id)
            out.problems += checks.check_session_validation(good.violations, bad.violations)
        finally:
            experiment.close()
            experiment = None

        stored_kinds: Dict[str, int] = {}
        for _ in range(RECORD_REOPENS):
            _reopen_worker(
                ctx,
                store_path,
                out,
                lambda store: stored_kinds.update(store_kinds(store.counts())),
            )
        kinds: Dict[str, int] = {}
        for assertion in submitted:
            kind = KIND_OF[type(assertion).__name__]
            kinds[kind] = kinds.get(kind, 0) + 1
        out.problems += checks.check_readback(
            [a.to_xml().serialize() for a in submitted],
            log_texts(store_path),
            kinds,
            stored_kinds,
        )
        out.store_bytes_per_record.append(os.path.getsize(store_path) / len(submitted))
        shutil.rmtree(round_dir)

    try:
        closed_loop(ctx.seconds, one_round)
    finally:
        if experiment is not None:
            experiment.close()
    return out


# -- fleet-ingest ----------------------------------------------------------------

def seeded_scripts(seed: int, base: Optional[Callable[[str], Optional[str]]] = None):
    """Per-service script contents drawn from ``seed``.

    Each service's script (``base``'s, or a generic one) gains a
    configuration line of 16 to 64 characters, so record sizes, and the
    bytes stored, vary with the seed while the work per record does not.
    """
    rng = random.Random(seed)
    scripts: Dict[str, str] = {}

    def script_for(service: str) -> str:
        if service not in scripts:
            head = base(service) if base is not None else None
            if head is None:
                head = f"#!/bin/sh\n# {service} 1.0\nexec {service} \"$INPUT\" > \"$OUTPUT\"\n"
            config = "".join(rng.choice("0123456789abcdef") for _ in range(rng.randint(16, 64)))
            scripts[service] = f"{head}# config {config}\n"
        return scripts[service]

    return script_for


def synthetic_stream(seed: int, records: int) -> list:
    """A p-assertion stream with the structure the instrumentation produces."""
    from repro.figures.synthstore import populate_store

    sink = _Collector()
    populate_store(
        sink,
        records,
        script_for=seeded_scripts(seed),
        session_size=QUERY_SESSION_SIZE,
        session_prefix=f"fi{seed}-session",
        id_prefix=f"fi{seed}-msg",
    )
    return sink.items


def replica_expectations(stream: list, texts: List[str], router) -> List[Tuple[str, Tuple[str, ...]]]:
    """Pair each assertion's serialized form with the members that must hold it."""
    from repro.core.passertion import GroupAssertion

    names = tuple(router.store_names)
    expected = []
    for assertion, text in zip(stream, texts):
        if isinstance(assertion, GroupAssertion):
            targets = names  # group assertions broadcast
        else:
            targets = tuple(router.replica_set(assertion.interaction_key))
        expected.append((text, targets))
    return expected


def fleet_ingest(ctx: Context) -> Outcome:
    """``put_many`` batches into a 2-worker, R=2 ring fleet, then a reopen."""
    from repro.store.distributed import sharded_store_fleet

    out = Outcome()
    stream = synthetic_stream(ctx.seed, INGEST_RECORDS)
    batches = [stream[i : i + INGEST_BATCH] for i in range(0, len(stream), INGEST_BATCH)]
    texts = [a.to_xml().serialize() for a in stream]

    def open_fleet(root: str):
        router = sharded_store_fleet(
            root,
            members=FLEET_MEMBERS,
            replicas=FLEET_REPLICAS,
            placement="ring",
            transport="process",
        )
        ctx.worker_starts += 1
        return router

    router = open_fleet(ctx.space.path("fleet-0000"))
    ctx.end_setup(out)
    next_op = [0]

    def one_round(r: int) -> None:
        nonlocal router
        root = ctx.space.path(f"fleet-{r:04d}")
        if router is None:
            router = open_fleet(root)
        try:
            for b, batch in enumerate(batches):
                timed = b >= INGEST_WARMUP_BATCHES
                op_id = next_op[0]
                next_op[0] += 1
                ctx.op(op_id if timed else None)
                started = perf_counter()
                router.put_many(batch)
                span = (started, perf_counter())
                ctx.op(None)
                ctx.probe.sample()
                out.attempted += 1
                if timed:
                    out.ops.append(span)
                    out.records += len(batch)
                    out.record_time.append(span)
                    out.timed_ops.add(op_id)
                    out.units += 1
        finally:
            router.close()
            router = None
        started = perf_counter()
        reopened = open_fleet(root)
        out.reopen_s.append(perf_counter() - started)
        try:
            names = reopened.store_names
            out.reopen_stats.append([reopened.store(n).checkpoint_stats() for n in names])
            held = {n: reopened.store(n).counts().total for n in names}
            expected = replica_expectations(stream, texts, reopened)
        finally:
            reopened.close()
        members = {n: log_texts(os.path.join(root, n)) for n in names}
        out.problems += checks.check_replicas(expected, members)
        for name in names:
            if held[name] != len(members[name]):
                out.problems.append(
                    f"member {name} counts {held[name]} records over the wire, "
                    f"its log holds {len(members[name])}"
                )
        out.store_bytes_per_record.append(_tree_bytes(root) / len(stream))
        shutil.rmtree(root)

    try:
        closed_loop(ctx.seconds, one_round)
    finally:
        if router is not None:
            router.close()
    return out


# -- provenance-query ---------------------------------------------------------------

def _load_query_store(ctx: Context, store_path: str):
    """Plant the provenance-query store and checkpoint it; returns
    ``(spec, p-assertions stored)``.

    Loaded in this process straight into the store's group-commit path
    (each 500-assertion commit fsyncs), with the services' real scripts.
    The checkpoint makes every open of the store a snapshot recovery.
    """
    from repro.app.experiment import Experiment
    from repro.figures.synthstore import populate_store
    from repro.store.backends import KVLogBackend

    services = Experiment()  # in-process, only for the services' scripts
    store = KVLogBackend(store_path)
    try:
        spec = populate_store(
            store,
            QUERY_RECORDS,
            script_for=seeded_scripts(ctx.seed, services.script_for),
            session_size=QUERY_SESSION_SIZE,
            session_prefix=f"pq{ctx.seed}-session",
            id_prefix=f"pq{ctx.seed}-msg",
            violation_every=QUERY_VIOLATION_EVERY,
        )
        loaded = store.counts().total
        store.checkpoint()
    finally:
        store.close()
        services.close()
    return spec, loaded


def provenance_query(ctx: Context) -> Outcome:
    """UC1 over the whole store and UC2 over every session, repeated.

    A round is three UC1 passes, each followed by UC2 on a third of the
    sessions and a reopen of a copy of the store.
    """
    from repro.core.client import ProvenanceQueryClient
    from repro.figures.synthstore import CHAIN_TEMPLATE
    from repro.store.checkpoint import snapshot_dir_for
    from repro.registry.client import RegistryClient
    from repro.usecases import comparison, semantic

    out = Outcome()
    store_path = ctx.space.path("query.kv")
    spec, loaded = _load_query_store(ctx, store_path)
    # Reopens time a copy: the served store stays open in its worker.
    copy_path = ctx.space.path("query-copy.kv")
    shutil.copyfile(store_path, copy_path)
    shutil.copytree(snapshot_dir_for(store_path), snapshot_dir_for(copy_path))
    experiment = _experiment(ctx, store_path)
    try:
        ctx.end_setup(out)
        services = {service for service, _op in CHAIN_TEMPLATE}
        if spec.violations:
            services.add("nucleotide-db")

        uc1_client = ProvenanceQueryClient(experiment.bus, client_endpoint="bench-uc1")
        uc2_client = ProvenanceQueryClient(experiment.bus, client_endpoint="bench-uc2")
        registry = RegistryClient(experiment.bus, client_endpoint="bench-registry")
        ontology = registry.get_ontology()
        semantic.validate_session(uc2_client, registry, spec.sessions[0], ontology=ontology)
        comparison.categorise_scripts(uc1_client, sessions=spec.sessions[:1])
        next_op = [0]

        # A UC1 pass runs for seconds without a gap, so it pauses for a
        # host-speed sample every QUERY_PACE_LOOKUPS script lookups; its
        # time is the pieces between the pauses.
        real_lookup = uc1_client.actor_state_passertions
        piece_start = [0.0]
        lookups = [0]

        def paced_lookup(*args, **kwargs):
            result = real_lookup(*args, **kwargs)
            lookups[0] += 1
            if lookups[0] % QUERY_PACE_LOOKUPS == 0:
                out.record_time.append((piece_start[0], perf_counter()))
                ctx.probe.sample()
                piece_start[0] = perf_counter()
            return result

        uc1_client.actor_state_passertions = paced_lookup

        def new_op() -> int:
            next_op[0] += 1
            out.timed_ops.add(next_op[0])
            out.attempted += 1
            return next_op[0]

        # UC1 runs before each third of the UC2 sessions, and a reopen
        # after it, so their samples spread over the round rather than one
        # stretch of it.
        thirds = [spec.sessions[i::QUERY_UC1_PASSES] for i in range(QUERY_UC1_PASSES)]

        def recount(store) -> None:
            held = store.counts().total
            if held != loaded:
                out.problems.append(f"reopened store holds {held} records, {loaded} were loaded")

        def one_round(_r: int) -> None:
            found: List[str] = []
            for sessions in thirds:
                ctx.op(new_op())
                piece_start[0] = perf_counter()
                categorisation = comparison.categorise_scripts(uc1_client)
                out.record_time.append((piece_start[0], perf_counter()))
                ctx.probe.sample()
                out.records += categorisation.interactions_scanned
                out.problems += checks.check_categorisation(
                    categorisation.interactions_scanned,
                    {fp: c.services() for fp, c in categorisation.categories.items()},
                    spec.interaction_records,
                    services,
                )
                for session in sessions:
                    ctx.op(new_op())
                    started = perf_counter()
                    report = semantic.validate_session(
                        uc2_client, registry, session, ontology=ontology
                    )
                    out.ops.append((started, perf_counter()))
                    ctx.probe.sample()
                    found += [v.interaction_id for v in report.violations]
                ctx.op(None)
                _reopen_worker(ctx, copy_path, out, recount)
            out.problems += checks.check_violations(found, spec.violations)

        out.units = closed_loop(ctx.seconds, one_round)
    finally:
        experiment.close()
    out.store_bytes_per_record.append(
        (os.path.getsize(store_path) + _tree_bytes(str(snapshot_dir_for(store_path)))) / loaded
    )
    return out


#: Workloads whose client and single store worker never compute at the
#: same time (each waits on the other's reply), run with every process on
#: one CPU.  On a 2-vCPU VM a reply to a peer on the other vCPU waits for
#: the host to wake that vCPU; measured on provenance-query, that wake-up
#: made UC2 1.5-2x slower and its run-to-run spread several times wider
#: while the host was busy, and it is the host's, not the program's, cost.
#: fleet-ingest's two members commit in parallel, so it keeps both CPUs.
SINGLE_CPU = frozenset({"record-session", "provenance-query"})

WORKLOADS: Dict[str, Callable[[Context], Outcome]] = {
    "record-session": record_session,
    "fleet-ingest": fleet_ingest,
    "provenance-query": provenance_query,
}
