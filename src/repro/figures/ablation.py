"""Ablations supporting the paper's §7 discussion.

* **Granularity** (A1): "automatic recording of p-assertions has an
  acceptable cost if the granularity of activities is coarse enough" —
  sweep the number of permutations batched per script and report recording
  overhead per configuration.
* **Backends** (A2): record/query throughput of the three store backends.
* **Compressors** (A3): compressibility of structured vs shuffled protein
  samples per codec and grouping — the experiment's scientific output.
* **Bulk ingest** (A5): recording throughput of the per-assertion ``put``
  path versus the ``put_many`` group-commit path, per backend — the
  Figure-4-style table behind the batched actor-side library.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence

from repro.app.costmodel import Fig4CostModel, RecordingConfig
from repro.bio.analysis import average_results, SizeRow, SizesTable
from repro.bio.encode import encode_by_groups
from repro.bio.groupings import get_grouping
from repro.bio.refseq import RefSeqDatabase, sample_of_size
from repro.bio.shuffle import permutations_of
from repro.compress.api import get_compressor
from repro.figures.microbench import pregenerated_record
from repro.figures.stats import format_table, percentile
from repro.figures.fig4 import simulate_run
from repro.store.backends import FileSystemBackend, KVLogBackend, MemoryBackend
from repro.store.interface import ProvenanceStoreInterface


# --------------------------------------------------------------------------
# A1: granularity
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GranularityPoint:
    permutations_per_script: int
    none_s: float
    sync_s: float
    overhead: float


def run_granularity(
    batch_sizes: Sequence[int] = (1, 5, 10, 25, 50, 100, 200),
    n_permutations: int = 400,
    model: Fig4CostModel = Fig4CostModel(),
) -> List[GranularityPoint]:
    """Recording overhead as a function of script granularity.

    Small batches mean many scheduler round trips, so the *fixed* scheduling
    overhead dominates and recording overhead (a per-permutation cost)
    shrinks relative to total time — but total time explodes; the paper's
    point is the joint choice of granularity for scheduling *and* recording.
    """
    points: List[GranularityPoint] = []
    for batch in batch_sizes:
        none_s = simulate_run(
            model, RecordingConfig.NONE, n_permutations, permutations_per_script=batch
        )
        sync_s = simulate_run(
            model, RecordingConfig.SYNC, n_permutations, permutations_per_script=batch
        )
        points.append(
            GranularityPoint(
                permutations_per_script=batch,
                none_s=none_s,
                sync_s=sync_s,
                overhead=(sync_s - none_s) / none_s,
            )
        )
    return points


def granularity_table(points: List[GranularityPoint]) -> str:
    headers = ["perms/script", "no recording (s)", "sync recording (s)", "overhead"]
    rows = [
        [
            p.permutations_per_script,
            f"{p.none_s:.1f}",
            f"{p.sync_s:.1f}",
            f"{p.overhead * 100:.1f}%",
        ]
        for p in points
    ]
    return format_table(headers, rows)


# ----------------------------------------------------------------------------
# A2: backends
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class BackendPoint:
    backend: str
    records: int
    record_s: float
    reopen_s: Optional[float]

    @property
    def records_per_second(self) -> float:
        return self.records / self.record_s if self.record_s else float("inf")


def run_backends(
    tmp_dir: Path, records: int = 500
) -> List[BackendPoint]:
    """Record throughput (and reopen/replay cost) per backend."""
    points: List[BackendPoint] = []

    def bench(name: str, make: "object", reopen: "object" = None) -> None:
        backend: ProvenanceStoreInterface = make()
        prepared = [pregenerated_record(i) for i in range(records)]
        start = time.perf_counter()
        for record in prepared:
            backend.put(record.assertion)
        elapsed = time.perf_counter() - start
        backend.close()
        reopen_s = None
        if reopen is not None:
            start = time.perf_counter()
            reopened = reopen()
            reopen_s = time.perf_counter() - start
            assert reopened.counts().interaction_passertions == records
            reopened.close()
        points.append(
            BackendPoint(backend=name, records=records, record_s=elapsed, reopen_s=reopen_s)
        )

    bench("memory", MemoryBackend)
    fs_root = tmp_dir / "fs-backend"
    bench(
        "filesystem",
        lambda: FileSystemBackend(fs_root),
        lambda: FileSystemBackend(fs_root),
    )
    kv_path = tmp_dir / "kvlog-backend.db"
    bench(
        "kvlog",
        lambda: KVLogBackend(kv_path),
        lambda: KVLogBackend(kv_path),
    )
    return points


def backends_table(points: List[BackendPoint]) -> str:
    headers = ["backend", "records", "record time (s)", "records/s", "reopen (s)"]
    rows = [
        [
            p.backend,
            p.records,
            f"{p.record_s:.3f}",
            f"{p.records_per_second:.0f}",
            f"{p.reopen_s:.3f}" if p.reopen_s is not None else "-",
        ]
        for p in points
    ]
    return format_table(headers, rows)


# ----------------------------------------------------------------------------
# A5: bulk ingest (single put vs put_many group commit)
# ----------------------------------------------------------------------------

#: timed rounds per backend and path: each path's time is the median of
#: its rounds, and the rounds alternate put / put_many, so a slow spell on
#: the host lands on both sides instead of deciding the ratio.
BULK_ROUNDS = 5


@dataclass(frozen=True)
class BulkIngestPoint:
    backend: str
    records: int
    batch_size: int
    single_s: float
    batch_s: float

    @property
    def single_rps(self) -> float:
        return self.records / self.single_s if self.single_s else float("inf")

    @property
    def batch_rps(self) -> float:
        return self.records / self.batch_s if self.batch_s else float("inf")

    @property
    def speedup(self) -> float:
        return self.single_s / self.batch_s if self.batch_s else float("inf")


def run_bulk_ingest(
    tmp_dir: Path, records: int = 2000, batch_size: int = 256
) -> List[BulkIngestPoint]:
    """p-assertions/sec of ``put`` vs ``put_many`` for every backend.

    Each path is timed as the median of :data:`BULK_ROUNDS` rounds, each
    into a fresh store, alternating the two paths.
    """
    if records < 1:
        raise ValueError("records must be >= 1")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    assertions = [pregenerated_record(i).assertion for i in range(records)]
    points: List[BulkIngestPoint] = []

    def bench(name: str, make) -> None:
        single: List[float] = []
        batch: List[float] = []
        for round_ in range(BULK_ROUNDS):
            single_store: ProvenanceStoreInterface = make(f"single-{round_}")
            start = time.perf_counter()
            for assertion in assertions:
                single_store.put(assertion)
            single.append(time.perf_counter() - start)
            single_store.close()

            batch_store: ProvenanceStoreInterface = make(f"batch-{round_}")
            start = time.perf_counter()
            for begin in range(0, records, batch_size):
                batch_store.put_many(assertions[begin : begin + batch_size])
            batch.append(time.perf_counter() - start)
            assert batch_store.counts().interaction_passertions == records
            batch_store.close()
        points.append(
            BulkIngestPoint(
                backend=name,
                records=records,
                batch_size=batch_size,
                single_s=percentile(single, 0.5),
                batch_s=percentile(batch, 0.5),
            )
        )

    bench("memory", lambda tag: MemoryBackend())
    bench("filesystem", lambda tag: FileSystemBackend(tmp_dir / f"fs-{tag}"))
    bench("kvlog", lambda tag: KVLogBackend(tmp_dir / f"kv-{tag}.db"))
    return points


def bulk_ingest_table(points: List[BulkIngestPoint]) -> str:
    headers = [
        "backend",
        "records",
        "batch",
        "single put (rec/s)",
        "put_many (rec/s)",
        "speedup",
    ]
    rows = [
        [
            p.backend,
            p.records,
            p.batch_size,
            f"{p.single_rps:.0f}",
            f"{p.batch_rps:.0f}",
            f"{p.speedup:.2f}x",
        ]
        for p in points
    ]
    return format_table(headers, rows)


# --------------------------------------------------------------------------
# A3: compressors / groupings (the scientific result)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CompressibilityPoint:
    codec: str
    grouping: str
    sample_ratio: float
    permutation_mean_ratio: float
    compressibility: float
    compressibility_std: float


def run_compressibility(
    codecs: Sequence[str] = ("gz-like", "bz-like", "ppm-like"),
    groupings: Sequence[str] = ("hp2", "dayhoff6", "identity20"),
    sample_bytes: int = 2000,
    n_permutations: int = 5,
    seed: int = 7,
) -> List[CompressibilityPoint]:
    """Compressibility of a structured protein sample per codec/grouping."""
    db = RefSeqDatabase(seed=seed)
    _, sample = sample_of_size(db, sample_bytes)
    points: List[CompressibilityPoint] = []
    for grouping in groupings:
        encoded = encode_by_groups(sample, get_grouping(grouping))
        perms = list(permutations_of(encoded, n_permutations, seed=seed))
        for codec_name in codecs:
            codec = get_compressor(codec_name)
            table = SizesTable()
            table.add(
                SizeRow(
                    label="sample",
                    codec=codec_name,
                    original_size=len(encoded),
                    compressed_size=codec.compressed_size(encoded.encode()),
                )
            )
            for i, perm in enumerate(perms):
                table.add(
                    SizeRow(
                        label=f"perm-{i}",
                        codec=codec_name,
                        original_size=len(perm),
                        compressed_size=codec.compressed_size(perm.encode()),
                    )
                )
            result = average_results(table)[codec_name]
            points.append(
                CompressibilityPoint(
                    codec=codec_name,
                    grouping=grouping,
                    sample_ratio=result.sample_ratio,
                    permutation_mean_ratio=result.permutation_mean_ratio,
                    compressibility=result.compressibility,
                    compressibility_std=result.compressibility_std,
                )
            )
    return points


def compressibility_table(points: List[CompressibilityPoint]) -> str:
    headers = [
        "grouping",
        "codec",
        "sample ratio",
        "perm mean ratio",
        "compressibility",
        "std",
    ]
    rows = [
        [
            p.grouping,
            p.codec,
            f"{p.sample_ratio:.4f}",
            f"{p.permutation_mean_ratio:.4f}",
            f"{p.compressibility:.4f}",
            f"{p.compressibility_std:.4f}",
        ]
        for p in points
    ]
    return format_table(headers, rows)
