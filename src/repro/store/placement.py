"""Placement: *where* each interaction's records live, as explicit data.

The §7 router originally hard-coded its placement rule — ``sha256(scope)
mod N`` over the sorted member names — which makes membership change
catastrophic: going from N to N+1 members reroutes ~(N−1)/N of all keys.
This module lifts placement out of the router into two serializable
objects:

* :class:`PlacementSpec` — one immutable placement *rule*: a member set,
  a replication factor, and a mode.  ``"modulo"`` reproduces the legacy
  rule bit-for-bit (the paper figures stay byte-identical); ``"ring"`` is
  a consistent-hash ring with virtual nodes, under which an N→N±1 change
  moves only ~1/N of the keys (asserted in
  ``tests/test_store_placement.py``).
* :class:`PlacementMap` — the fleet's current placement plus an optional
  *pending* spec while a migration is in flight, an epoch counter bumped
  at every cutover (the querycache's invalidation hook), and atomic JSON
  persistence so a reopened fleet either agrees with its on-disk
  placement or fails loudly (:class:`PlacementMismatchError` — the same
  contract as the fleet's member-count check on reopen).

During a transition, writes go to the **union** of a key's current and
pending replica sets (``write_set``) and must persist everywhere before
the ack — so an acked write survives whichever of cutover or rollback
happens.  Reads stay on the current set, with the pending-only members as
extra failover targets (``read_set``).
"""

from __future__ import annotations

import hashlib
import json
import os
from bisect import bisect_right
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.passertion import InteractionKey
from repro.store.interface import interaction_scope

#: file name of the persisted placement metadata under a fleet root.
PLACEMENT_FILE = "placement.json"

#: virtual nodes per member on the ring.  Enough that the slack of the
#: "moves ~1/N of keys" guarantee is a few percent, cheap enough that a
#: ring rebuild is microseconds.
DEFAULT_VNODES = 64

PLACEMENT_MODES = ("modulo", "ring")


class PlacementMismatchError(RuntimeError):
    """On-disk placement disagrees with what the caller asked for.

    Routing keys under the wrong placement silently strands existing
    records on members the router never consults — so a mismatch between
    the persisted ring metadata and the requested membership, replication
    factor, or mode must fail the reopen, loudly, before any traffic.
    """


def scope_position(scope: str) -> int:
    """A scope string's 64-bit position on the hash space.

    The same ``sha256(scope)[:8]`` integer the legacy modulo rule reduced
    — kept identical so ``modulo`` mode reproduces historic placement
    bit-for-bit.
    """
    digest = hashlib.sha256(scope.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def key_position(key: InteractionKey) -> int:
    return scope_position(interaction_scope(key))


class HashRing:
    """A consistent-hash ring: members × virtual nodes on a 64-bit circle.

    Each member owns ``vnodes`` pseudo-random points; a key belongs to
    the first member point clockwise of its position, and its R-way
    replica set is the first R *distinct* members on that walk.  Adding
    or removing one member only touches the arcs adjacent to that
    member's points — ~1/N of the space.
    """

    def __init__(self, members: Sequence[str], vnodes: int = DEFAULT_VNODES):
        if not members:
            raise ValueError("ring needs at least one member")
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.members = sorted(members)
        self.vnodes = vnodes
        points: List[Tuple[int, str]] = []
        for member in self.members:
            for v in range(vnodes):
                digest = hashlib.sha256(f"{member}#{v}".encode("utf-8")).digest()
                points.append((int.from_bytes(digest[:8], "big"), member))
        points.sort()
        self._points = points
        self._positions = [position for position, _ in points]

    def successors(self, position: int, count: int) -> List[str]:
        """The first ``count`` distinct members clockwise of ``position``."""
        total = len(self._points)
        start = bisect_right(self._positions, position) % total
        out: List[str] = []
        seen: Set[str] = set()
        for step in range(total):
            member = self._points[(start + step) % total][1]
            if member not in seen:
                seen.add(member)
                out.append(member)
                if len(out) == count:
                    break
        return out

    def replica_set(self, key: InteractionKey, replicas: int) -> List[str]:
        return self.successors(key_position(key), replicas)


@dataclass(frozen=True)
class PlacementSpec:
    """One immutable placement rule: members + replication + mode."""

    members: Tuple[str, ...]
    replicas: int = 1
    mode: str = "modulo"
    vnodes: int = DEFAULT_VNODES

    def __post_init__(self) -> None:
        members = tuple(sorted(self.members))
        if not members:
            raise ValueError("placement needs at least one member")
        if len(set(members)) != len(members):
            raise ValueError(f"duplicate members in {members}")
        object.__setattr__(self, "members", members)
        if self.mode not in PLACEMENT_MODES:
            raise ValueError(
                f"unknown placement mode {self.mode!r}; use one of "
                f"{PLACEMENT_MODES}"
            )
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.replicas > len(members):
            raise ValueError(
                f"replicas={self.replicas} exceeds the {len(members)} member "
                f"store(s); a replica set cannot repeat members"
            )
        if self.vnodes < 1:
            raise ValueError("vnodes must be >= 1")

    def _get_ring(self) -> HashRing:
        ring = getattr(self, "_ring", None)
        if ring is None:
            ring = HashRing(self.members, self.vnodes)
            object.__setattr__(self, "_ring", ring)
        return ring

    # -- the placement rule ---------------------------------------------------
    def replica_set(self, key: InteractionKey) -> List[str]:
        """The R members holding ``key``'s records, owner first."""
        return self.replica_set_for_scope(interaction_scope(key))

    def replica_set_for_scope(self, scope: str) -> List[str]:
        if self.mode == "ring":
            return self._get_ring().successors(
                scope_position(scope), self.replicas
            )
        n = len(self.members)
        bucket = scope_position(scope) % n
        return [self.members[(bucket + i) % n] for i in range(self.replicas)]

    def owner_of(self, key: InteractionKey) -> str:
        return self.replica_set(key)[0]

    def possible_replica_sets(self) -> List[Tuple[str, ...]]:
        """Every replica set this rule can ever produce.

        The read side's union-completeness check: a federation-wide merge
        over live members is exhaustive iff no possible replica set is
        entirely down.  Modulo mode yields the N consecutive windows of
        the sorted member list; ring mode yields one walk per ring point.
        """
        out: Set[Tuple[str, ...]] = set()
        n = len(self.members)
        if self.mode == "modulo":
            for bucket in range(n):
                out.add(
                    tuple(
                        self.members[(bucket + i) % n]
                        for i in range(self.replicas)
                    )
                )
        else:
            ring = self._get_ring()
            for position in ring._positions:
                out.add(tuple(ring.successors(position, self.replicas)))
        return sorted(out)

    # -- serialization --------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "members": list(self.members),
            "replicas": self.replicas,
            "mode": self.mode,
            "vnodes": self.vnodes,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PlacementSpec":
        return cls(
            members=tuple(data["members"]),  # type: ignore[arg-type]
            replicas=int(data["replicas"]),  # type: ignore[arg-type]
            mode=str(data["mode"]),
            vnodes=int(data.get("vnodes", DEFAULT_VNODES)),  # type: ignore[arg-type]
        )

    def with_members(self, members: Sequence[str]) -> "PlacementSpec":
        """The same rule over a different member set (replicas clamped
        never — a shrink below R raises, loudly, in ``__post_init__``)."""
        return replace(self, members=tuple(sorted(members)))


class PlacementMap:
    """The fleet's placement state: current rule, pending rule, epoch.

    ``pending`` is non-``None`` exactly while a migration is streaming;
    :meth:`commit_transition` (the cutover) swaps it in and bumps
    ``epoch`` — the counter federated freshness vectors carry, so every
    cached merge built under the old placement invalidates at the flip.
    When constructed with a ``path`` every transition edge is persisted
    atomically (write-new → fsync → rename), so a crash leaves either the
    old state or the new one, never a torn file.
    """

    def __init__(
        self,
        current: PlacementSpec,
        *,
        epoch: int = 0,
        pending: Optional[PlacementSpec] = None,
        path: Optional[Path] = None,
    ):
        self.current = current
        self.pending = pending
        self.epoch = epoch
        self.path = Path(path) if path is not None else None

    # -- routing --------------------------------------------------------------
    @property
    def replicas(self) -> int:
        return self.current.replicas

    @property
    def members(self) -> Tuple[str, ...]:
        return self.current.members

    @property
    def in_transition(self) -> bool:
        return self.pending is not None

    def all_members(self) -> List[str]:
        """Current plus pending-only members (the full union during a
        transition; just the members otherwise)."""
        out = list(self.current.members)
        if self.pending is not None:
            out.extend(
                m for m in self.pending.members if m not in self.current.members
            )
        return out

    def replica_set(self, key: InteractionKey) -> List[str]:
        return self.current.replica_set(key)

    def pending_replica_set(self, key: InteractionKey) -> Optional[List[str]]:
        if self.pending is None:
            return None
        return self.pending.replica_set(key)

    def write_set(self, key: InteractionKey) -> List[str]:
        """Where a write must persist before it acks: the union of the
        current and pending replica sets, current owner first — the
        dual-commit rule that makes acked writes survive cutover *and*
        rollback alike."""
        targets = self.current.replica_set(key)
        if self.pending is not None:
            targets = targets + [
                m for m in self.pending.replica_set(key) if m not in targets
            ]
        return targets

    def read_set(self, key: InteractionKey) -> List[str]:
        """Read preference order: the current replica set (the authority
        until cutover), then pending-only members as extra failover
        targets (they hold every dual-committed write plus the streamed
        prefix, so they can serve when the whole current set is down)."""
        return self.write_set(key)

    def is_moving(self, key: InteractionKey) -> bool:
        """Does ``key``'s replica set change under the pending rule?"""
        if self.pending is None:
            return False
        return set(self.current.replica_set(key)) != set(
            self.pending.replica_set(key)
        )

    # -- transition edges ------------------------------------------------------
    def begin_transition(self, spec: PlacementSpec) -> None:
        if self.pending is not None:
            raise RuntimeError(
                "a placement transition is already in flight; commit or "
                "abort it before starting another"
            )
        if spec == self.current:
            raise ValueError("pending placement is identical to the current")
        self.pending = spec
        self.save()

    def commit_transition(self) -> None:
        """The cutover: pending becomes current, epoch bumps, disk agrees."""
        if self.pending is None:
            raise RuntimeError("no placement transition to commit")
        self.current = self.pending
        self.pending = None
        self.epoch += 1
        self.save()

    def abort_transition(self) -> None:
        """Roll back to the current rule (the epoch still bumps: caches
        built during the window must not revalidate against state the
        rollback may have reshaped)."""
        if self.pending is None:
            return
        self.pending = None
        self.epoch += 1
        self.save()

    # -- persistence -----------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "version": 1,
            "epoch": self.epoch,
            "current": self.current.to_dict(),
            "pending": None if self.pending is None else self.pending.to_dict(),
        }

    def serialize(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def deserialize(
        cls, text: str, path: Optional[Path] = None
    ) -> "PlacementMap":
        data = json.loads(text)
        version = data.get("version")
        if version != 1:
            raise PlacementMismatchError(
                f"unsupported placement metadata version {version!r} "
                f"(this build reads version 1)"
            )
        pending = data.get("pending")
        return cls(
            PlacementSpec.from_dict(data["current"]),
            epoch=int(data["epoch"]),
            pending=None if pending is None else PlacementSpec.from_dict(pending),
            path=path,
        )

    def save(self, path: Optional[Path] = None) -> None:
        """Persist atomically; a no-op for purely in-memory maps."""
        target = Path(path) if path is not None else self.path
        if target is None:
            return
        self.path = target
        target.parent.mkdir(parents=True, exist_ok=True)
        tmp = target.with_name(target.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(self.serialize())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
        try:
            dir_fd = os.open(str(target.parent), os.O_RDONLY)
        except OSError:  # pragma: no cover - platform without dir fds
            return
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)

    @classmethod
    def load(cls, path: Path) -> "PlacementMap":
        path = Path(path)
        return cls.deserialize(path.read_text(encoding="utf-8"), path=path)


def check_or_init_placement(
    root: "Path | str",
    spec: PlacementSpec,
    *,
    filename: str = PLACEMENT_FILE,
) -> PlacementMap:
    """Open (and verify) or create the placement metadata under ``root``.

    A fresh root gets ``spec`` persisted as epoch 0.  An existing root
    must *agree* with ``spec`` on mode, members, replication factor and
    vnodes, or the reopen fails with :class:`PlacementMismatchError` —
    never silently reroute against data placed under a different rule.
    A file found mid-transition (the writer crashed between begin and
    cutover) rolls back to its current rule: the cutover never happened,
    so the current rule is the one every acked write satisfied.
    """
    root = Path(root)
    path = root / filename
    if not path.exists():
        pmap = PlacementMap(spec, path=path)
        pmap.save()
        return pmap
    try:
        pmap = PlacementMap.load(path)
    except (ValueError, KeyError, TypeError) as exc:
        raise PlacementMismatchError(
            f"{path} is not readable placement metadata: {exc}"
        ) from exc
    if pmap.pending is not None:
        pmap.abort_transition()
    found, asked = pmap.current, spec
    problems: List[str] = []
    if found.mode != asked.mode:
        problems.append(f"mode: on-disk {found.mode!r} vs requested {asked.mode!r}")
    if found.members != asked.members:
        problems.append(
            f"members: on-disk {list(found.members)} vs requested "
            f"{list(asked.members)}"
        )
    if found.replicas != asked.replicas:
        problems.append(
            f"replicas: on-disk {found.replicas} vs requested {asked.replicas}"
        )
    if found.mode == "ring" and found.vnodes != asked.vnodes:
        problems.append(
            f"vnodes: on-disk {found.vnodes} vs requested {asked.vnodes}"
        )
    if problems:
        raise PlacementMismatchError(
            f"{path} disagrees with the requested placement "
            f"({'; '.join(problems)}); reopen with the recorded placement "
            f"or migrate it first — rerouting keys under a different rule "
            f"would strand existing records"
        )
    return pmap


__all__ = [
    "DEFAULT_VNODES",
    "HashRing",
    "PLACEMENT_FILE",
    "PLACEMENT_MODES",
    "PlacementMap",
    "PlacementMismatchError",
    "PlacementSpec",
    "check_or_init_placement",
    "key_position",
    "scope_position",
]
