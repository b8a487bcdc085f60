"""The three PReServ backends: in-memory, file system, database.

"Currently, PReServ comes with in-memory, file system and database
backends" (Section 5).  All three implement
:class:`~repro.store.interface.ProvenanceStoreInterface`; the persistent two
serialize assertions as XML documents and rebuild their in-memory indexes by
re-reading those documents on open.

Durability contract of the persistent backends (``sync=True``, the
default): a write call that returns has fsynced its data *and* the
directory entries that reach it — :class:`FileSystemBackend` fsyncs each
segment file before its atomic rename and the directory after,
:class:`KVLogBackend` inherits the KVLog group-commit fsync — and a crash
at any point leaves a store that reopens cleanly, keeping every
acknowledged write.  An *unacknowledged* batch loses at most its torn
tail — callers must still treat it as wholly in doubt rather than
resuming from its failure point.  ``sync=False`` trades all of this for
page-cache-only durability.

Background maintenance extends — never weakens — that contract.  Both
persistent backends expose the reclaim protocol
(:meth:`reclaim_candidates` / :meth:`reclaim`) a
:class:`~repro.store.maintenance.CompactionScheduler` polls, and both
reclamation paths follow the same write-new → fsync → rename →
delete-olds ordering as the write path, so every crash window heals on
reopen:

* a crash *before* the rename strands a temp file (``*.compact`` beside a
  KVLog, ``*.tmp`` under a file-system store) holding an unacknowledged
  partial rewrite — swept on the next open;
* a crash *after* a fold's rename but before its source files are deleted
  leaves the folded ``<segment>`` and (some of) the single-put files it
  absorbed coexisting, both holding the same assertions — replay dedupes
  by sequence number (a file whose range a predecessor already covered is
  fold debris, never indexed twice) and sweeps the leftovers.

Reclamation is pure reorganization: it never changes the live assertion
set, so it does not bump the write generation and cached query results
stay warm across it.
"""

from __future__ import annotations

import os
import threading
import time
from bisect import bisect_left
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.passertion import parse_assertion
from repro.core.prep import PrepRecord
from repro.soa.xmldoc import XmlElement, parse_xml
from repro.store.checkpoint import (
    DEFAULT_CODEC,
    DEFAULT_RETAIN,
    CheckpointStats,
    SnapshotError,
    load_index_checkpoint,
    pack_entries,
    snapshot_dir_for,
    sweep_snapshot_debris,
    truncatable_watermark,
    write_snapshot,
)
from repro.store.interface import Assertion, ProvenanceStoreInterface
from repro.store.kvlog import CorruptRecordError, KVLog, fsync_dir, mkdir_durable


def _assertion_to_text(assertion: Assertion) -> str:
    return assertion.to_xml().serialize()


class MemoryBackend(ProvenanceStoreInterface):
    """Volatile backend: the index *is* the store."""

    def _persist_many(self, assertions: Sequence[Assertion]) -> None:
        pass  # nothing beyond the in-memory index


class _CheckpointedStore(ProvenanceStoreInterface):
    """Shared reopen, checkpoint and resync machinery of the persistent
    backends.

    Concrete subclasses call :meth:`_init_checkpoints` and then
    :meth:`_replay`, which does the whole snapshot-then-tail reopen;
    they record every persisted record with :meth:`_append_entry` and
    implement three hooks:

    * ``_replay_tail(watermark)`` — yield ``(sequence, assertion)`` for
      every stored record at or past ``watermark``, in insertion order
      (the log records a reopen must re-index);
    * ``_truncate_below(watermark) -> int`` — drop log history with
      sequence below ``watermark``, returning bytes reclaimed;
    * ``_tail_bytes() -> int`` — the on-disk bytes a reopen would have to
      replay (the checkpoint policy's pressure signal).

    The mixin owns the **entry stream** ``[(sequence, assertion), ...]``
    — every record this store has indexed, in insertion order, kept for
    the store's whole lifetime.  It serves two masters: the resync
    surface (:meth:`scan_suffix` binary-searches it, so a page costs
    O(log n + page) instead of re-walking the log — and still reaches
    history whose log prefix was truncated) and the snapshot payload
    (the sequences give the tail cursor meaning across reopen).  The
    entries reference the same assertion objects the index holds, so the
    marginal memory is one list cell and one int per record.

    Write-path serialization: the backends' writes were always driven
    serially (the actor/bus contract), but checkpoints run on the
    maintenance scheduler's thread, so :meth:`put_many` (and with it
    :meth:`put`, a batch of one) takes a state lock that
    :meth:`checkpoint` also takes while capturing its payload — ingest blocks only for the capture (a pickle of the index),
    never for compression or the fsync'd write.
    """

    def _init_checkpoints(
        self,
        store_path: Union[str, "os.PathLike[str]"],
        sync: bool,
        codec: str,
        retain: int,
        checkpoint_bytes: Optional[int],
    ) -> None:
        if retain < 1:
            raise ValueError("checkpoint_retain must be >= 1")
        if checkpoint_bytes is not None and checkpoint_bytes < 1:
            raise ValueError("checkpoint_bytes must be >= 1 (or None)")
        self._sync = sync
        self.checkpoint_codec = codec
        self.checkpoint_retain = retain
        #: tail-size bound (bytes) past which the scheduler's checkpoint
        #: policy fires; None disables policy-driven checkpoints (manual
        #: :meth:`checkpoint` calls still work).
        self.checkpoint_bytes = checkpoint_bytes
        self.checkpoint_stats = CheckpointStats()
        self._ckpt_dir = snapshot_dir_for(store_path)
        self._ckpt_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._entries: List[Tuple[int, Assertion]] = []
        if self._ckpt_dir.is_dir():
            sweep_snapshot_debris(self._ckpt_dir, sync=sync)

    # -- write path (serialized against checkpoint capture) ------------------
    def put_many(self, assertions: Iterable[Assertion]) -> int:
        with self._state_lock:
            return super().put_many(assertions)

    def _append_entry(self, seq: int, assertion: Assertion) -> None:
        self._entries.append((seq, assertion))

    def _replay(self) -> None:
        """Rebuild the index on open: newest valid checkpoint, then the tail.

        The checkpoint ladder (newest valid snapshot, then older ones, then
        none — see :func:`~repro.store.checkpoint.load_index_checkpoint`)
        seeds the index, the entry stream and the sequence counter; every
        record :meth:`_replay_tail` yields past the snapshot's watermark is
        then indexed as it streams past, so open-time memory is bounded by
        the index, not by the log.  Fills :attr:`checkpoint_stats`.
        """
        started = time.perf_counter()
        watermark = 0
        restored = 0
        loaded = load_index_checkpoint(self._ckpt_dir)
        if loaded is not None:
            watermark, self._entries, self._index = loaded
            self._seq = watermark
            restored = len(self._entries)
        tail = 0
        for seq, assertion in self._replay_tail(watermark):
            self._index.add(assertion)
            self._entries.append((seq, assertion))
            self._seq = max(self._seq, seq + 1)
            tail += 1
        stats = self.checkpoint_stats
        stats.recovery_mode = "snapshot+tail" if watermark > 0 else "full-replay"
        stats.last_watermark = watermark
        stats.tail_records = tail
        stats.snapshot_records = restored
        stats.open_s = time.perf_counter() - started

    def _replay_tail(self, watermark: int) -> Iterator[Tuple[int, Assertion]]:
        raise NotImplementedError  # pragma: no cover - subclass hook

    # -- resync surface (the ResyncCapable protocol) --------------------------
    def sequence_watermark(self) -> int:
        """The next sequence number this store will assign.

        Every committed record has a sequence strictly below the
        watermark, so a peer that recorded this store's watermark at time
        T can later pull exactly the records committed after T with
        ``scan_suffix(after=watermark)`` — the resync protocol's cursor.
        """
        return self._seq

    def scan_suffix(
        self, after: int = 0, limit: int = 1024
    ) -> List[Tuple[int, str]]:
        """Up to ``limit`` ``(sequence, assertion_xml)`` records with
        sequence >= ``after``, in global insertion order.

        Served from the in-memory entry stream — index-visible state, the
        same authority queries answer from — so a page costs a binary
        search plus ``limit`` re-serializations, and ``after=0`` streams
        the whole store even after its log prefix was truncated under a
        checkpoint.
        """
        if limit < 1:
            raise ValueError("limit must be >= 1")
        entries = self._entries
        start = bisect_left(entries, after, key=lambda e: e[0])
        return [
            (seq, _assertion_to_text(assertion))
            for seq, assertion in entries[start : start + limit]
        ]

    # -- checkpointing --------------------------------------------------------
    def checkpoint(self) -> Path:
        """Snapshot the index at the current watermark; truncate covered log.

        The write is durable before any truncation is considered, and
        truncation only drops history below the *oldest retained valid*
        snapshot's watermark (see
        :func:`~repro.store.checkpoint.truncatable_watermark`) — so a
        corrupt newest snapshot never strands records.  Safe to call from
        the maintenance thread while ingest runs; raises
        :class:`~repro.store.checkpoint.SnapshotError` if the store holds
        index entries whose persistence is in doubt (a failed persist),
        since checkpoint-then-truncate must never launder an
        unacknowledged write into durable history.
        """
        with self._ckpt_lock:
            with self._state_lock:
                if len(self._entries) != self._index.record_count:
                    raise SnapshotError(
                        f"index holds {self._index.record_count} records but "
                        f"only {len(self._entries)} are known persisted; "
                        f"refusing to checkpoint a store with in-doubt writes"
                    )
                watermark = self._seq
                seqs = [seq for seq, _assertion in self._entries]
                index_blob = self._index.serialize()
            payload = pack_entries(seqs, index_blob)
            path = write_snapshot(
                self._ckpt_dir,
                watermark,
                payload,
                codec=self.checkpoint_codec,
                meta={"records": len(seqs), "backend": type(self).__name__},
                sync=self._sync,
                retain=self.checkpoint_retain,
            )
            stats = self.checkpoint_stats
            stats.snapshots_taken += 1
            stats.last_watermark = watermark
            stats.last_snapshot_bytes = path.stat().st_size
            cut = truncatable_watermark(
                self._ckpt_dir, retain=self.checkpoint_retain
            )
            if cut > 0:
                stats.bytes_truncated += self._truncate_below(cut)
            # The snapshot covers everything written so far: whatever log
            # bytes remain (retention lag included) are no longer "tail".
            self._note_snapshot_covered()
            return path

    def _truncate_below(self, watermark: int) -> int:
        raise NotImplementedError  # pragma: no cover - subclass hook

    def _tail_bytes(self) -> int:
        raise NotImplementedError  # pragma: no cover - subclass hook

    def _note_snapshot_covered(self) -> None:
        """Hook: a snapshot at the current watermark just became durable."""

    # -- checkpoint policy (see repro.store.maintenance) ----------------------
    def checkpoint_candidates(self) -> List[tuple]:
        """``(target, score, reclaimable_bytes, cost_bytes)``, like reclaim.

        Pressure is the replayable tail's on-disk size against the
        ``checkpoint_bytes`` bound: the score passes the scheduler's
        default 0.30 threshold once the tail exceeds ~60% of the bound
        and saturates at twice it, so a hot store checkpoints *before*
        its reopen cost doubles.  Empty when the policy is disabled.
        """
        if self.checkpoint_bytes is None:
            return []
        tail = self._tail_bytes()
        if tail <= 0:
            return []
        score = min(1.0, 0.5 * tail / self.checkpoint_bytes)
        return [("checkpoint", score, tail, tail)]

    def run_checkpoint(self, target: object) -> int:
        """Scheduler entry point: one checkpoint; returns bytes truncated."""
        before = self.checkpoint_stats.bytes_truncated
        self.checkpoint()
        return self.checkpoint_stats.bytes_truncated - before


class FileSystemBackend(_CheckpointedStore):
    """XML files under a directory tree, one file per put *or* per batch.

    Layout: ``root/NNNNNNNN.xml`` where the stem is the sequence number of
    the file's first assertion.  A file holds either one bare assertion
    document (a chunk of one: a single :meth:`put`) or a ``<segment>``
    document wrapping up to ``segment_size`` assertions (one group commit).  The
    monotonically increasing start sequence keeps replay order identical to
    insertion order when the index is rebuilt on open.

    Crash safety mirrors :class:`~repro.store.kvlog.KVLog`: a segment is
    written to a temp file, fsynced, atomically renamed into place, and the
    directory is fsynced — so a committed segment survives power loss —
    while replay sweeps the debris a crash can leave (stray temp files,
    fold leftovers), tolerates a torn trailing segment, and refuses only
    mid-sequence corruption.

    Single :meth:`put` calls each leave one tiny file; :meth:`fold_segments`
    folds contiguous runs of them into ``<segment>`` files in the
    background (the scheduler drives it via the reclaim protocol), keeping
    the directory's file count bounded under sustained fine-grained load.

    Checkpoints (see :class:`_CheckpointedStore`) live in
    ``root/checkpoints/`` — invisible to the ``*.xml`` discovery glob.  A
    store file's sequence range never straddles a snapshot watermark
    (snapshots are taken at ``self._seq``, which always sits on a file
    boundary), so snapshot-then-tail replay skips covered files without
    even parsing them, and truncation deletes whole files.
    """

    def __init__(
        self,
        root: Union[str, "os.PathLike[str]"],
        segment_size: int = 256,
        sync: bool = True,
        checkpoint_codec: str = DEFAULT_CODEC,
        checkpoint_retain: int = DEFAULT_RETAIN,
        checkpoint_bytes: Optional[int] = None,
    ):
        if segment_size < 1:
            raise ValueError("segment_size must be >= 1")
        super().__init__()
        self.root = Path(root)
        mkdir_durable(self.root, sync=sync)
        self.segment_size = segment_size
        self._seq = 0
        #: single-assertion files eligible for folding, sorted by sequence.
        self._singles: List[Tuple[int, Path]] = []
        # _accounting_lock guards the _singles list (touched by the ingest
        # path and the scheduler thread); _fold_lock serializes whole folds
        # without ever blocking ingest.
        self._accounting_lock = threading.Lock()
        self._fold_lock = threading.Lock()
        self._init_checkpoints(
            self.root, sync, checkpoint_codec, checkpoint_retain, checkpoint_bytes
        )
        self._sweep_stale_tmp()
        self._replay()

    def _sweep_stale_tmp(self) -> None:
        """Remove ``*.tmp`` crash debris (ours: numeric stems) on open.

        A temp file only exists between write and rename, so a surviving
        one holds an unacknowledged write no replay ever reads.
        """
        swept = False
        for tmp in self.root.glob("*.tmp"):
            try:
                int(tmp.stem)
            except ValueError:
                continue  # not one of ours — leave it alone
            tmp.unlink(missing_ok=True)
            swept = True
        if swept and self._sync:
            fsync_dir(self.root)

    def _store_files(self) -> List[Tuple[int, Optional[int], Path]]:
        """Every store file as ``(start, next_start, path)``, in sequence
        order.

        Files are contiguous in sequence space, so a file's range ends
        where the next one starts; ``next_start`` is None for the last
        file (its end is known only from its contents — or, once the
        store is open, from ``self._seq``).  Stray files (editor
        leftovers, crash debris with non-numeric stems) are not ours to
        interpret and are left out.
        """
        files: List[Tuple[int, Path]] = []
        for path in self.root.glob("*.xml"):
            try:
                files.append((int(path.stem), path))
            except ValueError:
                continue
        files.sort()
        ends: List[Optional[int]] = [start for start, _path in files[1:]]
        ends.append(None)
        return [(start, end, path) for (start, path), end in zip(files, ends)]

    def _replay_tail(self, watermark: int) -> Iterator[Tuple[int, Assertion]]:
        """Yield ``(sequence, assertion)`` in insertion order, one at a time.

        Incremental: never holds more than a single parsed segment
        document.  Owns all of replay's on-disk bookkeeping as it streams:
        sequence tracking, the single-put fold accounting, fold-crash
        dedupe, and the final debris sweep (run when the stream completes).

        A file whose whole sequence range sits below the snapshot
        ``watermark`` holds only snapshot-covered history, so it is
        skipped *without being read or parsed* — that unparsed skip is
        where snapshot-then-tail recovery's time goes from O(history) to
        O(tail).  Covered files are NOT deleted here: only
        :meth:`checkpoint`'s truncation drops files, and only below the
        oldest *retained* snapshot's watermark.
        """
        covered = 0  # sequences below this are already indexed
        debris: List[Path] = []
        for start_seq, next_start, path in self._store_files():
            if next_start is not None and next_start <= watermark:
                # Whole file below the watermark: snapshot-covered history
                # awaiting truncation.  Skip it unparsed; the bookkeeping
                # still advances so the sequence counter can never fall
                # behind the files on disk.
                covered = max(covered, next_start)
                self._seq = max(self._seq, covered)
                continue
            try:
                el = parse_xml(path.read_text(encoding="utf-8"))
            except (ValueError, UnicodeDecodeError) as exc:
                if next_start is None:
                    # A torn/empty trailing segment is the footprint of a
                    # crash mid-write before the rename was durable; the
                    # segment was never acknowledged, so drop it (exactly
                    # how KVLog truncates a torn tail).
                    break
                raise CorruptRecordError(
                    f"segment {path.name} is unreadable but later segments "
                    f"exist — mid-sequence corruption, refusing to replay a "
                    f"store with silent holes"
                ) from exc
            if el.name == "segment":
                members = list(el.iter_elements())
                count = len(members)
            else:
                members = None
                count = 1
            if start_seq < covered:
                # Fold-crash window: the folded segment was renamed into
                # place but (some of) its source files were not yet
                # deleted.  Their assertions are already indexed via the
                # folded segment — dedupe by sequence number (indexing them
                # again would raise on the duplicate store keys) and sweep.
                if start_seq + count <= covered:
                    debris.append(path)
                    continue
                raise CorruptRecordError(
                    f"segment {path.name} overlaps the sequences before it "
                    f"but extends past them — refusing to replay a store "
                    f"with ambiguous history"
                )
            # Advance the bookkeeping *before* yielding: a consumer that
            # aborts mid-segment (e.g. a duplicate-key indexing error) must
            # not leave the sequence counter behind the files on disk.
            covered = start_seq + count
            self._seq = max(self._seq, covered)
            if members is None:
                if start_seq >= watermark:
                    self._singles.append((start_seq, path))
                    yield start_seq, parse_assertion(el)
            else:
                for offset, child in enumerate(members):
                    if start_seq + offset >= watermark:
                        yield start_seq + offset, parse_assertion(child)
        for path in debris:
            path.unlink(missing_ok=True)
        if debris and self._sync:
            fsync_dir(self.root)

    def _write_file(self, name: str, text: str) -> None:
        path = self.root / name
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            if self._sync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
        if self._sync:
            fsync_dir(self.root)

    def _persist_single(self, assertion: Assertion) -> None:
        seq = self._seq
        name = f"{seq:08d}.xml"
        self._seq += 1
        self._write_file(name, _assertion_to_text(assertion))
        self._append_entry(seq, assertion)
        with self._accounting_lock:
            self._singles.append((seq, self.root / name))

    def _persist_many(self, assertions: Sequence[Assertion]) -> None:
        # Segment files: N assertions per file instead of one file (and one
        # fsync-ordered rename) per assertion.
        for start in range(0, len(assertions), self.segment_size):
            chunk = assertions[start : start + self.segment_size]
            if len(chunk) == 1:
                self._persist_single(chunk[0])
                continue
            segment = XmlElement("segment", attrs={"count": str(len(chunk))})
            for assertion in chunk:
                segment.add(assertion.to_xml())
            base = self._seq
            name = f"{base:08d}.xml"
            self._seq += len(chunk)
            self._write_file(name, segment.serialize())
            for offset, assertion in enumerate(chunk):
                self._append_entry(base + offset, assertion)

    # -- segment folding ----------------------------------------------------
    def fold_candidates(self) -> List[List[Tuple[int, Path]]]:
        """Contiguous runs (length >= 2) of single-put files, oldest first.

        Only consecutively-numbered files fold safely: the folded segment
        replays its members at the position of its first source, so folding
        across a gap (a batch segment sits between) would reorder replay.
        """
        if self.segment_size < 2:
            return []  # nothing can ever fold; report no pressure
        with self._accounting_lock:
            singles = list(self._singles)
        runs: List[List[Tuple[int, Path]]] = []
        run: List[Tuple[int, Path]] = []
        for seq, path in singles:
            if run and seq == run[-1][0] + 1:
                run.append((seq, path))
            else:
                if len(run) >= 2:
                    runs.append(run)
                run = [(seq, path)]
        if len(run) >= 2:
            runs.append(run)
        return runs

    def fold_segments(self, max_files: Optional[int] = None) -> Tuple[int, int]:
        """Fold one run of single-put files into a ``<segment>`` file.

        Crash-safe ordering: the folded segment is written to a temp file,
        fsynced, renamed over the run's *first* source file, and the
        directory fsynced — only then are the remaining source files
        deleted (and the directory fsynced again).  A crash in the window
        where the folded segment and its source files coexist is healed on
        the next open: replay dedupes by sequence number and sweeps them.

        Runs concurrently with ingest (new puts only ever append new
        sequence numbers; the files being folded are immutable).  Returns
        ``(files_folded, bytes_reclaimed)`` — ``(0, 0)`` when nothing is
        eligible.
        """
        with self._fold_lock:
            runs = self.fold_candidates()
            if not runs:
                return (0, 0)
            limit = self.segment_size
            if max_files is not None:
                limit = min(limit, max_files)
            run = runs[0][:limit]
            if len(run) < 2:
                return (0, 0)
            before = 0
            segment = XmlElement("segment", attrs={"count": str(len(run))})
            for _seq, path in run:
                before += path.stat().st_size
                segment.add(parse_xml(path.read_text(encoding="utf-8")))
            first_path = run[0][1]
            self._write_file(first_path.name, segment.serialize())
            for _seq, path in run[1:]:
                path.unlink(missing_ok=True)
            if self._sync:
                fsync_dir(self.root)
            folded = {seq for seq, _path in run}
            with self._accounting_lock:
                self._singles = [
                    (seq, path) for seq, path in self._singles
                    if seq not in folded
                ]
            after = first_path.stat().st_size
            return (len(run), max(0, before - after))

    # -- reclaim protocol (see repro.store.maintenance) ---------------------
    def reclaim_candidates(self) -> List[tuple]:
        """``(target, score, reclaimable_bytes, cost_bytes)`` for folding.

        ``score`` is how close the foldable backlog is to a full segment's
        worth of files; the byte figures are the backlog's on-disk size
        (folding consolidates those bytes rather than deleting data, so
        they double as the rate-limit cost).
        """
        runs = self.fold_candidates()
        if not runs:
            return []
        count = 0
        size = 0
        for run in runs:
            for _seq, path in run:
                count += 1
                try:
                    size += path.stat().st_size
                except OSError:  # pragma: no cover - raced with a fold
                    continue
        return [("fold", min(1.0, count / self.segment_size), size, size)]

    def reclaim(self, target: object) -> int:
        _folded, reclaimed = self.fold_segments()
        return reclaimed

    # -- checkpoint hooks (see _CheckpointedStore) ---------------------------
    def _truncate_below(self, watermark: int) -> int:
        """Delete store files whose whole sequence range sits below
        ``watermark`` (which always falls on a file boundary — snapshots
        are taken at ``self._seq``).

        Held under the state lock so no new file appears mid-walk; each
        deletion is independent, so a crash partway leaves some covered
        files behind — harmless (replay's unparsed skip covers them, and
        the next checkpoint finishes the job).
        """
        with self._state_lock:
            reclaimed = 0
            doomed = [
                path
                for _start, end, path in self._store_files()
                if (self._seq if end is None else end) <= watermark
            ]
            dropped_names = {path.name for path in doomed}
            for path in doomed:
                try:
                    reclaimed += path.stat().st_size
                except OSError:  # pragma: no cover - raced with a fold
                    pass
                path.unlink(missing_ok=True)
            if doomed and self._sync:
                fsync_dir(self.root)
            with self._accounting_lock:
                self._singles = [
                    (seq, path)
                    for seq, path in self._singles
                    if path.name not in dropped_names
                ]
        return reclaimed

    def _tail_bytes(self) -> int:
        """On-disk bytes a reopen would parse: files past the newest
        snapshot's watermark (all files, when no snapshot exists)."""
        watermark = self.checkpoint_stats.last_watermark
        total = 0
        for _start, end, path in self._store_files():
            if (self._seq if end is None else end) <= watermark:
                continue
            try:
                total += path.stat().st_size
            except OSError:  # pragma: no cover - raced with a fold
                continue
        return total


class KVLogBackend(_CheckpointedStore):
    """Database backend over the embedded :class:`KVLog` store.

    Plays the role of the paper's Berkeley DB JE backend: assertions are
    values keyed by an insertion sequence number in one append file; the
    index is rebuilt by scanning the log on open — from the newest valid
    checkpoint plus the log tail past its watermark when one exists (see
    :class:`_CheckpointedStore`), full history otherwise.  Checkpoints
    live beside the log in ``<file>.ckpt/``.

    Concurrency note: :class:`KVLog`'s API is thread-safe; this backend's
    write path (sequence assignment + the in-memory index) is not, and is
    driven serially by the actor/bus layer.  Clients that want parallel
    group commits talk to several backends via
    :class:`~repro.store.distributed.StoreRouter`.
    """

    def __init__(
        self,
        path: Union[str, "os.PathLike[str]"],
        sync: bool = True,
        checkpoint_codec: str = DEFAULT_CODEC,
        checkpoint_retain: int = DEFAULT_RETAIN,
        checkpoint_bytes: Optional[int] = None,
    ):
        # The store is one file: a directory here is a configuration error,
        # reported before any open() turns it into a raw OS error.
        if Path(path).is_dir():
            raise ValueError(
                f"{path} is a directory; a kvlog store is a single log file"
            )
        super().__init__()
        self._log = KVLog(path, sync=sync)
        self._seq = 0
        self._init_checkpoints(
            path, sync, checkpoint_codec, checkpoint_retain, checkpoint_bytes
        )
        self._replay()
        # Tail-pressure baseline: a clean snapshot+zero-tail open means the
        # whole log is snapshot-covered; any replayed tail (or a full
        # replay) leaves the baseline at 0 — pressure reads high and the
        # next policy checkpoint re-establishes it.
        stats = self.checkpoint_stats
        self._covered_log_bytes = (
            self._log.file_size()
            if (stats.last_watermark > 0 and stats.tail_records == 0)
            else 0
        )

    def _replay_tail(self, watermark: int) -> Iterator[Tuple[int, Assertion]]:
        # One sequential pass; the key is the sequence number, checked
        # before the XML parse so a covered prefix not yet truncated costs
        # no decode.  Prefix truncation makes the skip physical: a
        # truncated log simply holds no covered records to skip.
        for key, value in self._log.scan():
            seq = int(key)
            if seq >= watermark:
                yield seq, parse_assertion(parse_xml(value.decode("utf-8")))

    def _persist_many(self, assertions: Sequence[Assertion]) -> None:
        # Group commit: every assertion of the batch lands in the log with a
        # single write + flush.
        base = self._seq
        self._seq += len(assertions)
        self._log.put_many(
            [
                (f"{base + offset:016d}".encode("ascii"),
                 _assertion_to_text(a).encode("utf-8"))
                for offset, a in enumerate(assertions)
            ]
        )
        for offset, assertion in enumerate(assertions):
            self._append_entry(base + offset, assertion)

    # -- checkpoint hooks (see _CheckpointedStore) ---------------------------
    def _truncate_below(self, watermark: int) -> int:
        """Rewrite the log without records a retained snapshot covers (the
        sequence lives in the record key, so a key predicate does it)."""
        if watermark <= 0:
            return 0
        return self._log.truncate_prefix(
            lambda key, _value: int(key) >= watermark
        )

    def _tail_bytes(self) -> int:
        """Log bytes appended since the last snapshot made them covered.

        The log file is not seq-addressable, so the tail is tracked as a
        size delta against the baseline recorded whenever a snapshot
        lands (or a clean zero-tail reopen proves the whole log covered).
        A full replay or a tail-bearing reopen leaves the baseline at 0 —
        pressure over-reads and the next policy checkpoint resets it.
        """
        return max(0, self._log.file_size() - self._covered_log_bytes)

    def _note_snapshot_covered(self) -> None:
        # Post-truncation size: the retention window's lag (history
        # between the oldest retained watermark and now) stays covered.
        self._covered_log_bytes = self._log.file_size()

    def compact(self) -> None:
        self._log.compact()

    # -- reclaim protocol (see repro.store.maintenance) ---------------------
    def reclaim_candidates(self) -> List[tuple]:
        """The log's ``(target, dead_ratio, reclaimable, cost)`` pressure."""
        return self._log.reclaim_candidates()

    def reclaim(self, target: object) -> int:
        return self._log.reclaim(target)

    def close(self) -> None:
        # Stop attached maintenance first: a background compaction must
        # never race the log handle being closed underneath it.
        super().close()
        self._log.close()


def record_to_xml(record: PrepRecord) -> XmlElement:
    """Convenience used by tests: a PReP record's wire form."""
    return record.to_xml()
