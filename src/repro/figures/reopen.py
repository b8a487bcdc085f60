"""A11 — O(live) recovery: reopen cost vs ingest history, ± checkpoints.

The paper's store is long-lived: a provenance store accumulates
p-assertions for the lifetime of the experiments it records, but it also
restarts — deployments move, hosts reboot, the fleet supervisor respawns
crashed workers.  Without checkpoints every reopen replays the entire
log to rebuild the in-memory index, so restart cost grows with *all
history ever recorded*.  With index checkpoints
(:mod:`repro.store.checkpoint`) reopen loads the newest snapshot and
replays only the log tail past its watermark — O(live index + tail),
independent of how much truncated history preceded it.

This sweep measures exactly that: for each history size ``H`` it builds

* a **plain** store — ingest ``H`` records, close, reopen (full replay);
* a **checkpointed** store — ingest ``H - tail`` records, checkpoint
  (``retain=1``, so the covered log prefix truncates immediately),
  ingest the last ``tail`` records, close, reopen (snapshot + tail).

Both stores hold byte-identical assertion streams at reopen time; the
only difference is the recovery path.  ``reopen_s`` is the store's own
:attr:`~repro.store.checkpoint.CheckpointStats.open_s` (the replay
timer inside ``_replay``), min over ``repeats`` reopens, so the figure
is not polluted by constructor overheads unrelated to recovery.

The shape criteria the bench asserts (see
``benchmarks/test_bench_reopen.py``): checkpointed reopen stays roughly
flat as history doubles, and at the largest history it beats full
replay by at least 5x.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import List, Sequence

from repro.figures.microbench import pregenerated_record
from repro.figures.stats import format_table
from repro.store.backends import FileSystemBackend, KVLogBackend
from repro.store.checkpoint import snapshot_dir_for
from repro.store.interface import ProvenanceStoreInterface

#: records ingested *after* the checkpoint — the replay tail every
#: checkpointed reopen pays for, independent of history size.
TAIL_RECORDS = 64


@dataclass(frozen=True)
class ReopenPoint:
    """One reopen measurement (a backend × history × recovery mode cell)."""

    backend: str
    records: int
    #: ``"full-replay"`` (plain store) or ``"snapshot+tail"``.
    mode: str
    reopen_s: float
    #: on-disk footprint at reopen time (log + snapshots), bytes.
    disk_bytes: int
    #: records replayed from the log during the reopen.
    tail_records: int


def _make_store(backend: str, root: Path) -> ProvenanceStoreInterface:
    # sync=False: the sweep times *reopen*, not ingest; retain=1 so a
    # single checkpoint immediately truncates the covered prefix (the
    # bench directory is disposable — production keeps the default
    # retention ladder).
    if backend == "kvlog":
        return KVLogBackend(root, sync=False, checkpoint_retain=1)
    if backend == "filesystem":
        return FileSystemBackend(root, sync=False, checkpoint_retain=1)
    raise ValueError(f"unknown reopen-sweep backend {backend!r}")


def _dir_bytes(root: Path) -> int:
    """On-disk footprint of a store path: log + snapshots.

    The file-system store holds its ``checkpoints/`` dir inside the root;
    the KVLog keeps its snapshots in a sibling directory, which must be
    counted explicitly.
    """
    if root.is_dir():
        return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())
    total = root.stat().st_size if root.is_file() else 0
    ckpt = snapshot_dir_for(root)
    if ckpt.is_dir():
        total += sum(p.stat().st_size for p in ckpt.rglob("*") if p.is_file())
    return total


def _timed_reopen(
    backend: str, root: Path, repeats: int
) -> "tuple[float, int, str]":
    """Min reopen time over ``repeats``, with the last open's stats."""
    best = float("inf")
    for _ in range(repeats):
        store = _make_store(backend, root)
        stats = store.checkpoint_stats
        store.close()
        best = min(best, stats.open_s)
    return best, stats.tail_records, stats.recovery_mode


def run_reopen_sweep(
    tmp_dir: Path,
    backends: Sequence[str] = ("kvlog",),
    history_sizes: Sequence[int] = (256, 512, 1024),
    tail: int = TAIL_RECORDS,
    repeats: int = 3,
    batch_size: int = 128,
) -> List[ReopenPoint]:
    """Reopen cost, full replay vs snapshot+tail, per history size."""
    if repeats < 1 or batch_size < 1:
        raise ValueError("repeats and batch_size must be >= 1")
    if any(h <= tail for h in history_sizes):
        raise ValueError(f"history sizes must exceed the tail ({tail})")
    corpus_size = max(history_sizes)
    corpus = [pregenerated_record(i).assertion for i in range(corpus_size)]
    points: List[ReopenPoint] = []
    for backend in backends:
        for history in history_sizes:
            label = f"{backend}-h{history}"

            def ingest(store, lo: int, hi: int) -> None:
                for start in range(lo, hi, batch_size):
                    store.put_many(corpus[start : min(start + batch_size, hi)])

            # Plain store: the full-replay baseline.
            plain = tmp_dir / f"{label}-plain"
            store = _make_store(backend, plain)
            ingest(store, 0, history)
            store.close()
            reopen_s, tail_records, mode = _timed_reopen(backend, plain, repeats)
            points.append(
                ReopenPoint(
                    backend=backend,
                    records=history,
                    mode=mode,
                    reopen_s=reopen_s,
                    disk_bytes=_dir_bytes(plain),
                    tail_records=tail_records,
                )
            )
            # Checkpointed store: same stream, snapshot+tail reopen.
            ckpt = tmp_dir / f"{label}-ckpt"
            store = _make_store(backend, ckpt)
            ingest(store, 0, history - tail)
            store.checkpoint()
            ingest(store, history - tail, history)
            store.close()
            reopen_s, tail_records, mode = _timed_reopen(backend, ckpt, repeats)
            points.append(
                ReopenPoint(
                    backend=backend,
                    records=history,
                    mode=mode,
                    reopen_s=reopen_s,
                    disk_bytes=_dir_bytes(ckpt),
                    tail_records=tail_records,
                )
            )
    return points


def reopen_table(points: List[ReopenPoint]) -> str:
    """The A11 text table: one row per (backend, history, mode)."""
    headers = [
        "backend",
        "history",
        "mode",
        "reopen (ms)",
        "tail",
        "disk (KiB)",
        "speedup",
    ]
    by_key = {(p.backend, p.records, p.mode): p for p in points}
    rows = []
    for p in points:
        speedup = ""
        if p.mode == "snapshot+tail":
            full = by_key.get((p.backend, p.records, "full-replay"))
            if full is not None and p.reopen_s > 0:
                speedup = f"{full.reopen_s / p.reopen_s:.1f}x"
        rows.append(
            [
                p.backend,
                p.records,
                p.mode,
                f"{p.reopen_s * 1000:.2f}",
                p.tail_records,
                f"{p.disk_bytes / 1024:.1f}",
                speedup,
            ]
        )
    return format_table(headers, rows)


def write_reopen_json(points: List[ReopenPoint], path: Path) -> Path:
    """Machine-readable sweep output (the ``BENCH_reopen.json`` artefact)."""
    payload = {
        "figure": "A11-reopen",
        "tail_records": min(
            (p.tail_records for p in points if p.mode == "snapshot+tail"),
            default=0,
        ),
        "points": [asdict(p) for p in points],
    }
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


__all__ = [
    "TAIL_RECORDS",
    "ReopenPoint",
    "reopen_table",
    "run_reopen_sweep",
    "write_reopen_json",
]
