"""Index checkpoints: O(live-tail) recovery for the persistent backends.

Both persistent backends rebuild their in-memory :class:`StoreIndex` by
replaying their on-disk history on every open, so restart time grows with
*lifetime* writes — the one cost in the store stack that scaled with how
long the store had lived rather than how much it currently holds.  This
module is the fix: a **snapshot** is a versioned, checksummed, compressed
file capturing the store's replayable record stream ``[(sequence,
assertion), ...]`` up to a **sequence watermark**, so

    open = load newest valid snapshot + replay only the log tail
           with sequence >= watermark.

Once a snapshot is durable (and its retention window allows it — see
below), the log prefix it covers is *truncatable*: compaction can finally
drop bytes that are merely old, not just dead, and the snapshots become
the store's compressed cold storage while the append log holds only the
hot tail.

Snapshot container format (``snapshot-<watermark>.psnap``)::

    b"PSNAP1\\n"                         magic + format version
    uint32 LE                            header length
    JSON header                          {"watermark", "codec", "raw_len",
                                          "payload_len", "payload_crc",
                                          "meta": {...}}
    payload                              codec-compressed pickle stream

The payload is compressed through the :mod:`repro.compress` registry
(``"gzip"`` by default; the from-scratch ``"gz-like"``/``"bz-like"``
codecs are selectable where fidelity to the paper's algorithm families
matters more than speed) and CRC32-checked end to end, and the file is
written with the stack's established write-new → fsync → rename →
fsync-directory discipline — a crash at any point leaves either no new
snapshot or a complete one, never a torn one.

Fallback ladder (the loader's contract): the newest snapshot that passes
every check wins; a corrupt, truncated or version-mismatched snapshot is
skipped in favor of the next older one; with no usable snapshot at all
the caller falls back to a full-history replay.  Truncation composes
safely with the ladder because a backend only truncates history covered
by the *oldest retained* snapshot — every rung of the ladder can still
reach every record, either from a snapshot or from the log.

Payload pickling note: snapshots are local files the store writes for
itself, inside its own data directory, with the same trust level as the
log they summarize — the classic setting where :mod:`pickle` is
appropriate.  The container's CRC rejects corruption; it is not an
authentication boundary.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.compress import get_compressor
from repro.store.kvlog import fsync_dir, mkdir_durable

#: container magic; the trailing digit is the format version.
MAGIC = b"PSNAP1\n"

#: snapshot file name pattern (watermark-stamped, so lexicographic order
#: is watermark order and the newest snapshot is the last glob entry).
SNAPSHOT_FILE = "snapshot-{:016d}.psnap"

#: default compressor registry name for snapshot payloads.
DEFAULT_CODEC = "gzip"

#: default number of snapshots retained (and hence the truncation lag):
#: history may only be truncated below the *oldest* retained snapshot's
#: watermark, so a single rotted snapshot never loses data.
DEFAULT_RETAIN = 2

_HEADER_LEN = struct.Struct("<I")


class SnapshotError(Exception):
    """A snapshot file failed a structural, checksum or version check."""


@dataclass(frozen=True)
class Snapshot:
    """One loaded-and-verified snapshot."""

    path: Path
    watermark: int
    codec: str
    payload: bytes  # decompressed
    meta: Dict[str, object] = field(default_factory=dict)


def snapshot_dir_for(store_path: "os.PathLike[str] | str") -> Path:
    """Where a store at ``store_path`` keeps its snapshots.

    A directory store (the file-system backend) gets a ``checkpoints``
    subdirectory, invisible to its ``*.xml`` file discovery; a single-file
    store (the KVLog) gets a sibling ``<file>.ckpt`` directory.
    """
    path = Path(store_path)
    if path.is_dir():
        return path / "checkpoints"
    return path.with_suffix(path.suffix + ".ckpt")


def sweep_snapshot_debris(directory: Path, sync: bool = True) -> int:
    """Remove ``*.psnap.tmp`` files a crash mid-write left behind.

    The rename never happened, so the temp file holds an unacknowledged
    partial snapshot no loader ever reads.  Returns the count swept.
    """
    swept = 0
    for tmp in directory.glob("*.psnap.tmp"):
        tmp.unlink(missing_ok=True)
        swept += 1
    if swept and sync:
        fsync_dir(directory)
    return swept


def write_snapshot(
    directory: "os.PathLike[str] | str",
    watermark: int,
    payload: bytes,
    codec: str = DEFAULT_CODEC,
    meta: Optional[Dict[str, object]] = None,
    sync: bool = True,
    retain: int = DEFAULT_RETAIN,
) -> Path:
    """Durably write one snapshot; returns its path.

    Write-new → fsync → rename → fsync-directory, like every commit in
    the store stack, then prunes snapshots beyond ``retain`` (oldest
    first) and sweeps stale temp files.  ``retain`` < 1 is rejected —
    a store must never prune its only recovery point.
    """
    if watermark < 0:
        raise ValueError("watermark must be >= 0")
    if retain < 1:
        raise ValueError("retain must be >= 1")
    directory = Path(directory)
    mkdir_durable(directory, sync=sync)
    sweep_snapshot_debris(directory, sync=False)
    compressed = get_compressor(codec).compress(payload)
    header = json.dumps(
        {
            "watermark": watermark,
            "codec": codec,
            "raw_len": len(payload),
            "payload_len": len(compressed),
            "payload_crc": zlib.crc32(compressed),
            "meta": meta or {},
        },
        separators=(",", ":"),
    ).encode("utf-8")
    path = directory / SNAPSHOT_FILE.format(watermark)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(MAGIC)
        handle.write(_HEADER_LEN.pack(len(header)))
        handle.write(header)
        handle.write(compressed)
        handle.flush()
        if sync:
            os.fsync(handle.fileno())
    os.replace(tmp, path)
    if sync:
        fsync_dir(directory)
    prune_snapshots(directory, retain=retain, sync=sync)
    return path


def list_snapshots(directory: "os.PathLike[str] | str") -> List[Path]:
    """Snapshot paths, oldest first (no validation performed)."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(directory.glob("snapshot-*.psnap"))


def read_snapshot(path: "os.PathLike[str] | str") -> Snapshot:
    """Load and fully verify one snapshot file.

    Raises :class:`SnapshotError` on any structural, version, checksum
    or decompression failure — the loader's fallback ladder catches it.
    """
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise SnapshotError(f"{path.name}: unreadable ({exc})") from exc
    if not blob.startswith(MAGIC):
        raise SnapshotError(f"{path.name}: bad magic (not a PSNAP1 snapshot)")
    pos = len(MAGIC)
    if len(blob) < pos + _HEADER_LEN.size:
        raise SnapshotError(f"{path.name}: truncated before header length")
    (header_len,) = _HEADER_LEN.unpack_from(blob, pos)
    pos += _HEADER_LEN.size
    if len(blob) < pos + header_len:
        raise SnapshotError(f"{path.name}: truncated header")
    try:
        header = json.loads(blob[pos : pos + header_len].decode("utf-8"))
        watermark = int(header["watermark"])
        codec = str(header["codec"])
        raw_len = int(header["raw_len"])
        payload_len = int(header["payload_len"])
        payload_crc = int(header["payload_crc"])
        meta = dict(header.get("meta") or {})
    except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
        raise SnapshotError(f"{path.name}: malformed header ({exc})") from exc
    pos += header_len
    compressed = blob[pos : pos + payload_len]
    if len(compressed) != payload_len or len(blob) != pos + payload_len:
        raise SnapshotError(f"{path.name}: truncated or oversized payload")
    if zlib.crc32(compressed) != payload_crc:
        raise SnapshotError(f"{path.name}: payload CRC mismatch")
    try:
        payload = get_compressor(codec).decompress(compressed)
    except Exception as exc:
        raise SnapshotError(
            f"{path.name}: payload does not decompress under {codec!r} "
            f"({exc})"
        ) from exc
    if len(payload) != raw_len:
        raise SnapshotError(
            f"{path.name}: decompressed to {len(payload)} bytes, header "
            f"promised {raw_len}"
        )
    return Snapshot(
        path=path, watermark=watermark, codec=codec, payload=payload, meta=meta
    )


def load_latest_snapshot(
    directory: "os.PathLike[str] | str",
) -> Optional[Snapshot]:
    """The newest snapshot that verifies, or None (the fallback ladder).

    Corrupt/stale rungs are skipped silently — the caller's replay
    dedupes whatever an older snapshot does not cover, so falling back
    is always correct, merely slower.
    """
    for path in reversed(list_snapshots(directory)):
        try:
            return read_snapshot(path)
        except SnapshotError:
            continue
    return None


def prune_snapshots(
    directory: "os.PathLike[str] | str", retain: int = DEFAULT_RETAIN, sync: bool = True
) -> List[Path]:
    """Delete snapshots beyond the ``retain`` newest; returns the kept paths."""
    if retain < 1:
        raise ValueError("retain must be >= 1")
    paths = list_snapshots(directory)
    doomed, kept = paths[:-retain], paths[-retain:]
    for path in doomed:
        path.unlink(missing_ok=True)
    if doomed and sync:
        fsync_dir(Path(directory))
    return kept


def truncatable_watermark(
    directory: "os.PathLike[str] | str", retain: int = DEFAULT_RETAIN
) -> int:
    """The highest sequence below which history may be safely truncated.

    Truncation requires a *full retention set*: at least ``retain`` valid
    snapshots, and only history below the oldest of the ``retain`` newest
    is droppable.  Every retained snapshot covers everything below that
    oldest watermark (each snapshot covers all history below its own,
    and the others' watermarks are >= it), so the truncated prefix stays
    ``retain``-way redundant — losing the newest snapshot to corruption
    never loses records.  0 when fewer valid snapshots exist (nothing
    may be truncated yet).
    """
    if retain < 1:
        raise ValueError("retain must be >= 1")
    valid: List[int] = []
    for path in reversed(list_snapshots(directory)):
        try:
            valid.append(read_snapshot(path).watermark)
        except SnapshotError:
            continue
        if len(valid) == retain:
            return valid[-1]
    return 0


@dataclass
class CheckpointStats:
    """One backend's checkpoint/recovery counters (admin-visible)."""

    #: snapshots written by this process.
    snapshots_taken: int = 0
    #: watermark of the newest snapshot (written or loaded), 0 if none.
    last_watermark: int = 0
    #: compressed bytes of the newest snapshot written.
    last_snapshot_bytes: int = 0
    #: log bytes dropped by prefix truncation, lifetime of this process.
    bytes_truncated: int = 0
    #: how the last open rebuilt the index.
    recovery_mode: str = "cold"  # "cold" | "full-replay" | "snapshot+tail"
    #: records replayed from the log tail at open (past the watermark).
    tail_records: int = 0
    #: records restored from the snapshot at open.
    snapshot_records: int = 0
    #: wall seconds the last open spent rebuilding the index.
    open_s: float = 0.0

    def as_wire(self) -> Dict[str, str]:
        """Flat string attrs for the fleet admin op."""
        return {
            "snapshots": str(self.snapshots_taken),
            "watermark": str(self.last_watermark),
            "snapshot-bytes": str(self.last_snapshot_bytes),
            "truncated-bytes": str(self.bytes_truncated),
            "recovery-mode": self.recovery_mode,
            "tail-records": str(self.tail_records),
            "snapshot-records": str(self.snapshot_records),
            "open-s": f"{self.open_s:.6f}",
        }


def load_index_checkpoint(
    directory: "os.PathLike[str] | str",
) -> "Optional[tuple]":
    """The newest snapshot that fully restores, as ``(watermark, entries,
    index)`` — or None when every rung of the ladder fails.

    This is the complete fallback ladder in one call: container damage
    (bad magic, torn file, CRC mismatch, codec failure) *and* payload
    damage (a container that verifies but whose record stream no longer
    unpickles or mis-counts) each skip to the next older snapshot; with
    none left the caller does a full-history replay.  ``entries`` is the
    restored ``[(sequence, assertion), ...]`` stream in insertion order;
    ``index`` is a fresh :class:`~repro.store.interface.StoreIndex` built
    by re-adding every record, so its generation and derived tables are
    exactly what a full replay of the same records produces.
    """
    from repro.store.interface import StoreIndex

    for path in reversed(list_snapshots(directory)):
        try:
            snapshot = read_snapshot(path)
            seqs, index_blob = unpack_entries(snapshot.payload)
            index = StoreIndex()
            restored = index.restore(index_blob)
            if len(seqs) != len(restored):
                raise SnapshotError(
                    f"{path.name}: {len(seqs)} sequences for "
                    f"{len(restored)} restored records"
                )
            return snapshot.watermark, list(zip(seqs, restored)), index
        except Exception:
            # Payload damage surfaces as arbitrary unpickling exceptions;
            # every failure mode means the same thing — this rung is
            # unusable, try the next.
            continue
    return None


def pack_entries(seqs: List[int], index_blob: bytes) -> bytes:
    """Assemble a backend snapshot payload: packed sequence array + the
    :meth:`StoreIndex.serialize` blob the sequences are aligned with."""
    return (
        struct.pack("<Q", len(seqs))
        + struct.pack(f"<{len(seqs)}Q", *seqs)
        + index_blob
    )


def unpack_entries(payload: bytes) -> "tuple[List[int], bytes]":
    """Invert :func:`pack_entries`; raises :class:`SnapshotError` on damage."""
    if len(payload) < 8:
        raise SnapshotError("snapshot payload shorter than its own count")
    (count,) = struct.unpack_from("<Q", payload)
    end = 8 + 8 * count
    if len(payload) < end:
        raise SnapshotError(
            f"snapshot payload promises {count} sequences but is truncated"
        )
    seqs = list(struct.unpack_from(f"<{count}Q", payload, 8))
    return seqs, payload[end:]


__all__ = [
    "CheckpointStats",
    "DEFAULT_CODEC",
    "DEFAULT_RETAIN",
    "MAGIC",
    "Snapshot",
    "SnapshotError",
    "list_snapshots",
    "load_index_checkpoint",
    "load_latest_snapshot",
    "pack_entries",
    "prune_snapshots",
    "read_snapshot",
    "snapshot_dir_for",
    "sweep_snapshot_debris",
    "truncatable_watermark",
    "unpack_entries",
]
