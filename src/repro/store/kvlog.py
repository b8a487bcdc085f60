"""An embedded append-only key-value store (the Berkeley DB substitute).

PReServ's evaluated configuration used "a database backend based on the
Berkeley DB Java Edition".  We substitute a from-scratch log-structured KV
store in the Bitcask style:

* writes append ``(crc, key_len, val_len, tombstone, key, value)`` records
  to a single data file and update an in-memory hash index
  ``key -> (offset, length)``;
* reads seek directly via the index;
* deletes append tombstones;
* :meth:`KVLog.compact` rewrites only live records into a fresh file;
* every record is CRC32-checked on read, and a truncated/corrupt tail is
  detected (and ignored) on open, giving crash-safe recovery semantics;
* commits are durable (``fsync``) by default; :meth:`KVLog.put_many` is a
  *group commit* — the whole batch is appended with one write and one
  fsync, which is where the bulk-ingest throughput win comes from;
* :meth:`KVLog.compact` is crash-safe end to end: the replacement file is
  fsynced before the atomic rename and the parent directory is fsynced
  after it, so a power loss leaves either the old log or the complete
  compacted one — never a truncated in-between.  A crash *between* those
  points can leave a stale ``*.compact`` temp file behind; the next open
  sweeps it.
* Compaction is **two-phase** so it never stalls the ingest path: phase
  one streams the snapshot's live records into the temp file without the
  writer lock held (records below the snapshot point are immutable in an
  append-only log), and only the short phase two — catch up the records
  appended since the snapshot, fsync, atomic swap — runs under the lock.
  A background scheduler (:mod:`repro.store.maintenance`) leans on this to
  reclaim space while writers keep committing.

The store is thread-safe: one internal lock orders mutations and reads of
the shared file handle.  A deployment that needs more than one fsync
stream runs more stores (fleet members), not more files per store.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from pathlib import Path
from typing import BinaryIO, Dict, Iterable, Iterator, List, Optional, Tuple

#: record header: crc32, key length, value length, tombstone flag
_HEADER = struct.Struct("<IIIB")


class CorruptRecordError(Exception):
    """A record failed its CRC or structural check."""


def fsync_dir(path: "os.PathLike[str] | str") -> None:
    """fsync a directory, making a just-renamed entry durable.

    ``os.replace`` is atomic but only orders the *rename* against other
    directory operations; the new entry itself is not on disk until the
    directory inode is synced.  No-op on platforms that cannot open
    directories (Windows), where the old rename-only behavior remains.
    """
    if os.name == "nt":  # pragma: no cover - POSIX-only durability upgrade
        return
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def mkdir_durable(path: "os.PathLike[str] | str", sync: bool = True) -> None:
    """``mkdir -p`` whose created entries are fsynced into their parents.

    A plain mkdir leaves the new directory's dirent in the page cache; a
    crash can then drop the whole directory tree together with the fsynced
    files inside it.
    """
    path = Path(path)
    created = []
    probe = path
    while not probe.exists() and probe != probe.parent:
        created.append(probe)
        probe = probe.parent
    path.mkdir(parents=True, exist_ok=True)
    if sync:
        for entry in reversed(created):
            fsync_dir(entry.parent)


def _iter_records(
    f: BinaryIO, start: int, limit: int
) -> Iterator[Tuple[int, bytes, int, bool, bytes]]:
    """Yield ``(pos, key, val_len, tombstone, raw)`` for records in [start, limit).

    Raises :class:`CorruptRecordError` on a truncated or CRC-failing record
    — callers iterate regions already validated at open, so mid-region
    damage is real corruption, not a torn tail.
    """
    f.seek(start)
    pos = start
    while pos < limit:
        header = f.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise CorruptRecordError(f"truncated record header at offset {pos}")
        crc, key_len, val_len, tombstone = _HEADER.unpack(header)
        payload = f.read(key_len + val_len)
        if len(payload) < key_len + val_len:
            raise CorruptRecordError(f"truncated record payload at offset {pos}")
        if zlib.crc32(payload) != crc:
            raise CorruptRecordError(f"CRC mismatch at offset {pos}")
        yield pos, payload[:key_len], val_len, bool(tombstone), header + payload
        pos += _HEADER.size + key_len + val_len


class _PendingCompaction:
    """Phase-one output of a two-phase compaction, handed to phase two."""

    __slots__ = (
        "tmp_path",
        "handle",
        "index",
        "size",
        "dead",
        "snapshot_end",
        "dropped",
    )

    def __init__(self, tmp_path: Path, handle: BinaryIO, snapshot_end: int):
        self.tmp_path = tmp_path
        self.handle = handle
        self.index: Dict[bytes, Tuple[int, int]] = {}
        self.size = 0
        self.dead = 0
        self.snapshot_end = snapshot_end
        #: live keys a truncation predicate intentionally discarded (empty
        #: for a plain compaction) — phase two's safety net exempts them.
        self.dropped: set = set()


class KVLog:
    """A single-file, CRC-checked, log-structured key-value store."""

    def __init__(self, path: "os.PathLike[str] | str", sync: bool = True):
        self.path = Path(path)
        mkdir_durable(self.path.parent, sync=sync)
        #: fsync on every commit (durable like the paper's Berkeley DB JE
        #: backend); set sync=False for page-cache-only durability.
        self._sync = sync
        # key -> (value offset, value length); tombstoned keys absent.
        self._index: Dict[bytes, Tuple[int, int]] = {}
        self._dead_bytes = 0
        # Cached sorted key view; invalidated whenever the key set changes.
        self._sorted_keys: Optional[List[bytes]] = None
        # One lock orders every mutation and shared-handle read; compactions
        # additionally serialize on _compact_lock so the long rewrite phase
        # runs without blocking writers on _lock.
        self._lock = threading.RLock()
        self._compact_lock = threading.Lock()
        created = not self.path.exists()
        swept = self._sweep_stale_compact()
        self._file = open(self.path, "a+b")
        if (created or swept) and self._sync:
            # The file's directory entry must be durable before the first
            # acknowledged write can claim to be — without this, power loss
            # can drop a freshly created log together with its fsynced data.
            fsync_dir(self.path.parent)
        self._rebuild_index()

    def _sweep_stale_compact(self) -> bool:
        """Remove the ``*.compact`` temp file a crash mid-compaction leaves.

        The rename never happened (or the debris would carry the log's own
        name), so the file holds an unacknowledged partial rewrite — pure
        dead weight no replay ever reads.
        """
        stale = self.path.with_suffix(self.path.suffix + ".compact")
        try:
            stale.unlink()
        except FileNotFoundError:
            return False
        return True

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.close()

    def __enter__(self) -> "KVLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._file.closed:
            raise ValueError("operation on closed KVLog")

    def _commit(self) -> None:
        """Make everything appended so far durable (one flush, one fsync)."""
        self._file.flush()
        if self._sync:
            os.fsync(self._file.fileno())

    # -- index reconstruction ----------------------------------------------
    def _rebuild_index(self) -> None:
        """Scan the log, building the index; truncate a corrupt tail."""
        self._index.clear()
        self._sorted_keys = None
        self._dead_bytes = 0
        self._file.seek(0, os.SEEK_END)
        size = self._file.tell()
        self._file.seek(0)
        pos = 0
        valid_end = 0
        while pos < size:
            try:
                key, value_span, tombstone, next_pos = self._read_record_at(pos)
            except (CorruptRecordError, EOFError):
                break
            if tombstone:
                old = self._index.pop(key, None)
                if old is not None:
                    self._dead_bytes += _HEADER.size + len(key) + old[1]
                self._dead_bytes += _HEADER.size + len(key)
            else:
                old = self._index.get(key)
                if old is not None:
                    self._dead_bytes += _HEADER.size + len(key) + old[1]
                self._index[key] = value_span
            pos = next_pos
            valid_end = pos
        if valid_end < size:
            # Crash recovery: drop the torn tail so future appends are clean.
            self._file.truncate(valid_end)
        self._file.seek(0, os.SEEK_END)

    def _read_record_at(
        self, pos: int
    ) -> Tuple[bytes, Tuple[int, int], bool, int]:
        self._file.seek(pos)
        header = self._file.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise EOFError
        crc, key_len, val_len, tombstone = _HEADER.unpack(header)
        payload = self._file.read(key_len + val_len)
        if len(payload) < key_len + val_len:
            raise CorruptRecordError("truncated record payload")
        if zlib.crc32(payload) != crc:
            raise CorruptRecordError(f"CRC mismatch at offset {pos}")
        key = payload[:key_len]
        value_offset = pos + _HEADER.size + key_len
        next_pos = pos + _HEADER.size + key_len + val_len
        return key, (value_offset, val_len), bool(tombstone), next_pos

    # -- operations --------------------------------------------------------
    @staticmethod
    def _encode_record(key: bytes, value: bytes) -> bytes:
        payload = key + value
        return _HEADER.pack(zlib.crc32(payload), len(key), len(value), 0) + payload

    def put(self, key: bytes, value: bytes) -> None:
        self.put_many([(key, value)])

    def put_many(self, pairs: Iterable[Tuple[bytes, bytes]]) -> int:
        """Group commit: append a whole batch with one write + one flush.

        The one write path (:meth:`put` is a batch of one).  The records
        are concatenated into a single buffer first, so the batch costs one
        syscall-and-flush instead of one per record.  Each record carries
        its own CRC, so a crash mid-batch leaves a torn tail that
        :meth:`_rebuild_index` truncates cleanly on the next open — the
        records fully written before the crash survive.
        """
        self._check_open()
        chunks: List[bytes] = []
        spans: List[Tuple[bytes, int, int]] = []  # key, relative offset, length
        rel = 0
        for key, value in pairs:
            if not isinstance(key, (bytes, bytearray)) or not key:
                raise ValueError("key must be non-empty bytes")
            key = bytes(key)
            value = bytes(value)
            chunks.append(self._encode_record(key, value))
            spans.append((key, rel + _HEADER.size + len(key), len(value)))
            rel += _HEADER.size + len(key) + len(value)
        if not chunks:
            return 0
        with self._lock:
            self._file.seek(0, os.SEEK_END)
            base = self._file.tell()
            self._file.write(b"".join(chunks))
            self._commit()
            for key, value_rel, value_len in spans:
                old = self._index.get(key)
                if old is not None:
                    self._dead_bytes += _HEADER.size + len(key) + old[1]
                else:
                    self._sorted_keys = None
                self._index[key] = (base + value_rel, value_len)
        return len(spans)

    def get(self, key: bytes) -> Optional[bytes]:
        self._check_open()
        with self._lock:
            span = self._index.get(bytes(key))
            if span is None:
                return None
            offset, length = span
            self._file.seek(offset)
            value = self._file.read(length)
        if len(value) < length:
            raise CorruptRecordError(f"short read for key {key!r}")
        return value

    def delete(self, key: bytes) -> bool:
        """Append a tombstone; returns True if the key was present."""
        self._check_open()
        key = bytes(key)
        with self._lock:
            if key not in self._index:
                return False
            payload = key
            record = _HEADER.pack(zlib.crc32(payload), len(key), 0, 1) + payload
            self._file.seek(0, os.SEEK_END)
            self._file.write(record)
            self._commit()
            old = self._index.pop(key)
            self._sorted_keys = None
            self._dead_bytes += 2 * (_HEADER.size + len(key)) + old[1]
        return True

    def __contains__(self, key: bytes) -> bool:
        with self._lock:
            return bytes(key) in self._index

    def __len__(self) -> int:
        return len(self._index)

    def keys(self) -> Iterator[bytes]:
        with self._lock:
            if self._sorted_keys is None:
                self._sorted_keys = sorted(self._index)
            return iter(self._sorted_keys)

    def scan(self) -> Iterator[Tuple[bytes, bytes]]:
        """Yield live ``(key, value)`` pairs in log order, one sequential pass.

        This is the replay path: instead of a sort plus one seek+read per
        value, the log file is read front to back through a buffered handle;
        records superseded by a later write (or tombstoned) are skipped by
        checking the record's offset against the in-memory index.

        Raises :class:`CorruptRecordError` if the pass ends before every
        live record the index references was read back — mid-log corruption
        must not silently drop the records behind it.

        Safe to run concurrently with writers and compaction: the index
        snapshot and the read handle are taken together under the lock, so
        the pass yields exactly the records live at that instant (a
        compaction swapping the file mid-scan keeps reading the old inode,
        whose offsets the snapshot references).
        """
        self._check_open()
        with self._lock:
            self._file.flush()
            index = dict(self._index)
            f = open(self.path, "rb")
        live_yielded = 0
        with f:
            pos = 0
            while True:
                header = f.read(_HEADER.size)
                if len(header) < _HEADER.size:
                    break
                crc, key_len, val_len, tombstone = _HEADER.unpack(header)
                payload = f.read(key_len + val_len)
                if len(payload) < key_len + val_len or zlib.crc32(payload) != crc:
                    break
                value_offset = pos + _HEADER.size + key_len
                if not tombstone:
                    key = payload[:key_len]
                    span = index.get(key)
                    if span is not None and span[0] == value_offset:
                        yield key, payload[key_len:]
                        live_yielded += 1
                pos = value_offset + val_len
        if live_yielded != len(index):
            raise CorruptRecordError(
                f"log scan stopped at offset {pos}: only {live_yielded} of "
                f"{len(index)} live records readable"
            )

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        """Live pairs in sorted-key order (unified on top of :meth:`scan`)."""
        return iter(sorted(self.scan()))

    # -- maintenance -------------------------------------------------------
    @property
    def dead_bytes(self) -> int:
        """Bytes occupied by superseded/tombstoned records."""
        return self._dead_bytes

    def compact(self) -> None:
        """Rewrite only live records into a fresh log file (log order kept).

        Two-phase, so writers are never stalled for the rewrite: phase one
        streams the snapshot's live records into the temp file with *no*
        lock held (records below the snapshot point are immutable), then
        phase two takes the lock only to catch up whatever was appended
        since, fsync, and atomically swap the files.

        Crash-safe: the replacement is fully written *and fsynced* before the
        atomic rename, and the parent directory is fsynced after it, so a
        crash at any point leaves either the old log or the complete
        compacted one (``sync=False`` skips both fsyncs); a stale temp file
        the crash strands is swept on the next open.
        """
        self._check_open()
        with self._compact_lock:
            with self._lock:
                self._file.flush()
                self._file.seek(0, os.SEEK_END)
                snapshot_end = self._file.tell()
                # The record starts of everything live right now: every
                # index entry points at its value, one header+key earlier.
                # Taken together with snapshot_end under the lock, this is
                # exactly the keep-set for the prefix rewrite.
                keep = {
                    offset - _HEADER.size - len(key)
                    for key, (offset, _length) in self._index.items()
                }
            pending = self._compact_prepare(snapshot_end, keep)
            try:
                with self._lock:
                    self._compact_commit(pending)
            except BaseException:
                if not pending.handle.closed:
                    pending.handle.close()
                pending.tmp_path.unlink(missing_ok=True)
                raise

    def truncate_prefix(self, keep_record) -> int:
        """Drop the live records ``keep_record(key, value) -> bool`` rejects.

        The checkpoint subsystem's half of log truncation: once a durable
        snapshot covers a record, the record's log bytes are pure history,
        and this rewrites the log without them (dead records go too — a
        truncation is also a free compaction).  Returns the bytes given
        back to the filesystem.

        Caller contract: only reject records whose content is durably
        captured elsewhere (a checkpoint snapshot) — after truncation,
        :meth:`get` on a dropped key returns None and :meth:`scan` no
        longer yields it, exactly as if it had been tombstoned and
        compacted away.

        Same two-phase structure and crash discipline as :meth:`compact`:
        the filtered rewrite streams without the writer lock held, records
        appended meanwhile are caught up verbatim under the lock (they are
        above any snapshot watermark by construction), and the atomic
        swap-or-nothing rename means a crash leaves either the old log or
        the complete truncated one.  A stranded ``*.compact`` temp is
        swept on the next open.
        """
        self._check_open()
        with self._compact_lock:
            with self._lock:
                self._file.flush()
                self._file.seek(0, os.SEEK_END)
                snapshot_end = self._file.tell()
                before = snapshot_end
                keep = {
                    offset - _HEADER.size - len(key)
                    for key, (offset, _length) in self._index.items()
                }
            pending = self._compact_prepare(
                snapshot_end, keep, predicate=keep_record
            )
            try:
                with self._lock:
                    self._compact_commit(pending)
            except BaseException:
                if not pending.handle.closed:
                    pending.handle.close()
                pending.tmp_path.unlink(missing_ok=True)
                raise
        return max(0, before - self.file_size())

    def _compact_prepare(
        self, snapshot_end: int, keep: set, predicate=None
    ) -> _PendingCompaction:
        """Phase one (no lock): copy the snapshot's live records to a temp log.

        One sequential pass over the immutable prefix, copying the records
        whose start offsets are in ``keep`` (the index's live set at the
        snapshot) and building the replacement index as it goes, so phase
        two installs it instead of re-scanning under the lock.  A corrupt
        record aborts with the log untouched.

        ``predicate`` is the prefix-truncation hook: a ``(key, value) ->
        bool`` filter applied to live records, where False *discards* the
        record (recorded in ``pending.dropped`` so phase two's safety net
        knows the omission was intentional).
        """
        tmp_path = self.path.with_suffix(self.path.suffix + ".compact")
        pending: Optional[_PendingCompaction] = None
        try:
            with open(self.path, "rb") as src:
                pending = _PendingCompaction(
                    tmp_path, open(tmp_path, "wb"), snapshot_end
                )
                for pos, key, val_len, _tombstone, raw in _iter_records(
                    src, 0, snapshot_end
                ):
                    if pos not in keep:
                        continue
                    if predicate is not None and not predicate(
                        key, raw[_HEADER.size + len(key) :]
                    ):
                        pending.dropped.add(key)
                        continue
                    pending.handle.write(raw)
                    pending.index[key] = (
                        pending.size + _HEADER.size + len(key),
                        val_len,
                    )
                    pending.size += len(raw)
            return pending
        except BaseException:
            if pending is not None and not pending.handle.closed:
                pending.handle.close()
            tmp_path.unlink(missing_ok=True)
            raise

    def _compact_commit(self, pending: _PendingCompaction) -> None:
        """Phase two (locked): catch up the tail, validate, fsync, swap."""
        self._file.flush()
        self._file.seek(0, os.SEEK_END)
        end = self._file.tell()
        if end > pending.snapshot_end:
            # Records appended while phase one ran: copy them verbatim —
            # including tombstones, which may supersede copied records —
            # applying the same index/dead-byte arithmetic a reopen's
            # _rebuild_index would, so the counters survive reopen exactly.
            with open(self.path, "rb") as src:
                for _pos, key, val_len, tombstone, raw in _iter_records(
                    src, pending.snapshot_end, end
                ):
                    pending.handle.write(raw)
                    if tombstone:
                        old = pending.index.pop(key, None)
                        if old is not None:
                            pending.dead += _HEADER.size + len(key) + old[1]
                        pending.dead += _HEADER.size + len(key)
                    else:
                        old = pending.index.get(key)
                        if old is not None:
                            pending.dead += _HEADER.size + len(key) + old[1]
                        pending.index[key] = (
                            pending.size + _HEADER.size + len(key),
                            val_len,
                        )
                    pending.size += len(raw)
        pending.handle.flush()
        if self._sync:
            os.fsync(pending.handle.fileno())
        pending.handle.close()
        # Safety net: the replacement must carry exactly the live set the
        # index serves right now — minus records a truncation predicate
        # dropped on purpose (unless the tail re-wrote them, in which case
        # the catch-up copy re-added them); anything else (the file changed
        # beneath us) aborts with the old log untouched.
        expected = {
            k: span[1]
            for k, span in self._index.items()
            if k in pending.index or k not in pending.dropped
        }
        if {k: span[1] for k, span in pending.index.items()} != expected:
            pending.tmp_path.unlink(missing_ok=True)
            raise CorruptRecordError(
                "compaction would drop or alter live records; aborting with "
                "the original log untouched"
            )
        if os.name == "nt":  # pragma: no cover - can't rename over an open file
            self._file.close()
        try:
            # On POSIX the live handle stays open across the rename: if the
            # rename fails, the log keeps serving from the still-valid
            # handle instead of dying half-closed.
            os.replace(pending.tmp_path, self.path)
        except BaseException:
            pending.tmp_path.unlink(missing_ok=True)
            if self._file.closed:  # pragma: no cover - Windows recovery
                self._file = open(self.path, "a+b")
            raise
        try:
            if self._sync:
                fsync_dir(self.path.parent)
        finally:
            # Once the rename happened the old inode is a ghost: whatever
            # the directory sync did, the handle must move to the new file
            # or later "durable" writes would vanish with the ghost.  The
            # new handle is installed *before* the old one closes so
            # concurrent _check_open callers (which peek outside the lock)
            # never observe a transiently closed log.
            old_file = self._file
            self._file = open(self.path, "a+b")
            self._file.seek(0, os.SEEK_END)
            old_file.close()
            self._index = pending.index
            self._dead_bytes = pending.dead
            self._sorted_keys = None

    # -- reclaim protocol (see repro.store.maintenance) ---------------------
    def reclaim_candidates(self) -> List[Tuple[object, float, int, int]]:
        """``(target, score, reclaimable_bytes, cost_bytes)`` for this log.

        ``score`` is the dead-byte ratio; ``cost_bytes`` (the whole file,
        which a compaction rewrites) is what rate limiters meter.
        """
        size = self.file_size()
        if size <= 0:
            return []
        return [(0, self._dead_bytes / size, self._dead_bytes, size)]

    def reclaim(self, target: object = 0) -> int:
        """Compact; returns the bytes the rewrite gave back to the FS."""
        before = self.file_size()
        self.compact()
        return max(0, before - self.file_size())

    def file_size(self) -> int:
        with self._lock:
            self._file.seek(0, os.SEEK_END)
            return self._file.tell()
