"""PReServ: Provenance Recording for Services.

The store side of the architecture (paper Section 5, Figure 3):

* :mod:`repro.store.interface` — the Provenance Store Interface and the
  shared in-memory index,
* :mod:`repro.store.backends` — memory / file-system / database backends,
* :mod:`repro.store.kvlog` — the embedded log-structured KV database
  (Berkeley DB substitute) underlying the database backend,
* :mod:`repro.store.maintenance` — the background compaction scheduler
  that keeps the persistent backends' disk footprint bounded under
  sustained load (KVLog compaction + file-system segment folding)
  without stalling ingest,
* :mod:`repro.store.plugins` — Store and Query plug-ins (each record
  submission is decoded and stored as one backend group commit),
* :mod:`repro.store.querycache` — generation-validated query plan and
  result caching for the read path,
* :mod:`repro.store.service` — the message translator and the PReServ actor.
"""

import os
from typing import Optional, Union

from repro.store.interface import (
    DuplicateAssertionError,
    ProvenanceStoreInterface,
    StoreCounts,
    StoreIndex,
    interaction_scope,
)
from repro.store.backends import FileSystemBackend, KVLogBackend, MemoryBackend
from repro.store.checkpoint import (
    CheckpointStats,
    Snapshot,
    SnapshotError,
    list_snapshots,
    load_latest_snapshot,
    read_snapshot,
    snapshot_dir_for,
    write_snapshot,
)
from repro.store.interface import ResyncCapable
from repro.store.kvlog import CorruptRecordError, KVLog
from repro.store.maintenance import (
    CompactionEvent,
    CompactionScheduler,
    CompactionStats,
)
from repro.store.plugins import PlugIn, QueryPlugIn, StorePlugIn
from repro.store.querycache import CacheStats, GenerationVector, QueryCache, QueryPlan
from repro.store.service import (
    MessageTranslator,
    PAPER_RECORD_ROUND_TRIP_S,
    PReServActor,
)
from repro.store.distributed import (
    CrossLink,
    FederatedQueryClient,
    FederatedStoreAdapter,
    StoreCloseError,
    StoreRouter,
    consolidate,
    sharded_store_fleet,
)
from repro.store.placement import (
    HashRing,
    PlacementMap,
    PlacementMismatchError,
    PlacementSpec,
    check_or_init_placement,
    scope_position,
)
from repro.store.migration import (
    MigrationError,
    MigrationReport,
    consolidate_into,
    migrate_keys,
    rebalance,
)
from repro.store.curation import (
    ArchiveError,
    RetentionPolicy,
    apply_retention,
    export_archive,
    import_archive,
    verify_archive,
)

def make_backend(
    kind: str,
    path: Optional[Union[str, "os.PathLike[str]"]] = None,
    *,
    sync: bool = True,
    segment_size: int = 256,
    auto_compact: Union[bool, CompactionScheduler] = False,
    checkpoint_bytes: Optional[int] = None,
) -> ProvenanceStoreInterface:
    """The store factory: one place every deployment resolves its backend.

    ``kind`` is ``"memory"``, ``"filesystem"`` or ``"kvlog"`` (the paper's
    three backends).  The persistent kinds need ``path``;
    ``sync=False`` trades fsync durability for page-cache speed on both.
    ``segment_size`` bounds the file-system backend's
    assertions-per-segment-file; passing it to another kind raises
    rather than being silently ignored.

    ``auto_compact=True`` attaches a started
    :class:`~repro.store.maintenance.CompactionScheduler` to the backend
    (reachable as ``backend.maintenance``; ``backend.close()`` stops it),
    so dead bytes and single-put file debris are reclaimed in the
    background instead of growing forever.  Pass an existing scheduler to
    share one maintenance budget across several backends.

    ``checkpoint_bytes`` arms the persistent backends' index-checkpoint
    policy: once the un-snapshotted log tail exceeds roughly that many
    bytes, the maintenance scheduler (when attached) snapshots the index
    and truncates the covered log prefix, keeping reopen cost
    proportional to the tail instead of the full history.  Leave it
    ``None`` for manual ``backend.checkpoint()`` control.
    """
    if kind not in ("memory", "filesystem", "kvlog"):
        raise ValueError(f"unknown store backend {kind!r}")
    if segment_size != 256 and kind != "filesystem":
        raise ValueError(
            f"segment_size={segment_size} is only supported by the "
            f"'filesystem' backend, not {kind!r}"
        )
    if kind == "memory":
        if path is not None:
            raise ValueError(
                "the 'memory' backend is volatile and takes no path — "
                "did you mean 'filesystem' or 'kvlog'?"
            )
        if auto_compact:
            raise ValueError(
                "the 'memory' backend has nothing to reclaim — "
                "auto_compact applies to the persistent backends"
            )
        if checkpoint_bytes is not None:
            raise ValueError(
                "the 'memory' backend has no log to checkpoint — "
                "checkpoint_bytes applies to the persistent backends"
            )
        return MemoryBackend()
    if path is None:
        raise ValueError(f"backend {kind!r} requires a path")
    if kind == "filesystem":
        backend: ProvenanceStoreInterface = FileSystemBackend(
            path, segment_size=segment_size, sync=sync,
            checkpoint_bytes=checkpoint_bytes,
        )
    else:
        backend = KVLogBackend(path, sync=sync, checkpoint_bytes=checkpoint_bytes)
    if auto_compact:
        scheduler = (
            auto_compact
            if isinstance(auto_compact, CompactionScheduler)
            else CompactionScheduler()
        )
        scheduler.register(backend)
        backend.maintenance = scheduler
        scheduler.start()
    return backend


__all__ = [
    "ArchiveError",
    "CacheStats",
    "CheckpointStats",
    "CompactionEvent",
    "CompactionScheduler",
    "CompactionStats",
    "CorruptRecordError",
    "CrossLink",
    "GenerationVector",
    "QueryCache",
    "QueryPlan",
    "FederatedQueryClient",
    "FederatedStoreAdapter",
    "HashRing",
    "MigrationError",
    "MigrationReport",
    "PlacementMap",
    "PlacementMismatchError",
    "PlacementSpec",
    "RetentionPolicy",
    "StoreCloseError",
    "StoreRouter",
    "apply_retention",
    "check_or_init_placement",
    "consolidate",
    "consolidate_into",
    "migrate_keys",
    "rebalance",
    "scope_position",
    "export_archive",
    "import_archive",
    "verify_archive",
    "DuplicateAssertionError",
    "FileSystemBackend",
    "KVLog",
    "KVLogBackend",
    "MemoryBackend",
    "MessageTranslator",
    "PAPER_RECORD_ROUND_TRIP_S",
    "PReServActor",
    "PlugIn",
    "ProvenanceStoreInterface",
    "QueryPlugIn",
    "ResyncCapable",
    "Snapshot",
    "SnapshotError",
    "StoreCounts",
    "StoreIndex",
    "StorePlugIn",
    "interaction_scope",
    "list_snapshots",
    "load_latest_snapshot",
    "make_backend",
    "read_snapshot",
    "sharded_store_fleet",
    "snapshot_dir_for",
    "write_snapshot",
]
