"""The Provenance Store Interface.

"Each of these backends implements the same API, the Provenance Store
Interface.  This abstraction makes it easy to integrate new backend stores
without having to change already developed PlugIns and provides an API that
maps directly to the PReP protocol specification." (Section 5)

Backends persist assertions however they like; querying is served from an
in-memory :class:`StoreIndex` every backend maintains (and rebuilds on open,
for the persistent ones).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
    Union,
    runtime_checkable,
)

from repro.core.passertion import (
    ActorStatePAssertion,
    GroupAssertion,
    InteractionKey,
    InteractionPAssertion,
    PAssertion,
    ViewKind,
)

Assertion = Union[PAssertion, GroupAssertion]


def interaction_scope(key: InteractionKey) -> str:
    """Canonical scope string for one interaction's records.

    The key the fleet's placement hashes (see
    :func:`repro.store.placement.scope_position`) and migration filters
    on, so every record about one interaction lands on the same members.
    """
    return f"{key.interaction_id}|{key.sender}|{key.receiver}"


@dataclass(frozen=True)
class StoreCounts:
    """Store statistics, as reported by the ``count`` query."""

    interaction_passertions: int
    actor_state_passertions: int
    group_assertions: int
    #: distinct interaction keys with at least one p-assertion — the paper's
    #: "number of interaction records" (Figure 5's x axis).
    interaction_records: int

    @property
    def total(self) -> int:
        return (
            self.interaction_passertions
            + self.actor_state_passertions
            + self.group_assertions
        )


class DuplicateAssertionError(Exception):
    """A p-assertion with an identical store key was already recorded."""


@runtime_checkable
class ResyncCapable(Protocol):
    """The resync surface a store exposes to replication peers.

    Implemented by the log-backed backends and by
    :class:`~repro.fleet.remote.RemoteStore` (so the supervisor's resync
    ladder works against local and socket-served stores alike).  The
    contract both methods share: every committed record has a sequence
    strictly below :meth:`sequence_watermark`, so a peer that saved the
    watermark at time T later pulls exactly what it missed with
    ``scan_suffix(after=watermark)`` — and ``after=0`` streams the whole
    store, *including* history whose log prefix has since been truncated
    under a checkpoint (the stream serves index-visible state, not raw
    log bytes).
    """

    def sequence_watermark(self) -> int:
        """The next sequence number this store will assign."""
        ...  # pragma: no cover - protocol

    def scan_suffix(
        self, after: int = 0, limit: int = 1024
    ) -> List[Tuple[int, str]]:
        """Up to ``limit`` ``(sequence, assertion_xml)`` with sequence >=
        ``after``, in global insertion order."""
        ...  # pragma: no cover - protocol


class StoreIndex:
    """In-memory indexes over the assertions of one store.

    Maintains: per-interaction p-assertions (by view), actor-state
    p-assertions (by state type), group membership (both directions), and
    insertion order.
    """

    def __init__(self) -> None:
        self._order: List[Assertion] = []
        self._seen_keys: Set[Tuple[InteractionKey, str, str, str]] = set()
        self._interactions: Dict[InteractionKey, List[InteractionPAssertion]] = {}
        self._actor_state: Dict[InteractionKey, List[ActorStatePAssertion]] = {}
        self._groups: Dict[str, GroupKindMembers] = {}
        self._by_group_member: Dict[InteractionKey, Set[str]] = {}
        # Running counters and a cached sorted key view: counts() and
        # interaction_keys() sit inside the Figure-5 query loop, so neither
        # may recompute from scratch per call.
        self._n_interactions = 0
        self._n_actor_state = 0
        self._n_groups = 0
        self._all_keys: Set[InteractionKey] = set()
        self._sorted_keys: Optional[List[InteractionKey]] = None
        # Cached sorted views over group membership, invalidated on mutation
        # (the interaction_keys() treatment applied to the group tables).
        self._groups_of_cache: Dict[InteractionKey, List[str]] = {}
        self._group_ids_cache: Dict[Optional[str], List[str]] = {}
        #: Write generation: bumped on every successful mutation, so read
        #: caches can validate with one integer comparison.
        self.generation = 0

    def add(self, assertion: Assertion) -> None:
        if isinstance(assertion, GroupAssertion):
            entry = self._groups.get(assertion.group_id)
            if entry is None:
                entry = self._groups[assertion.group_id] = GroupKindMembers(
                    kind=assertion.kind.value
                )
                self._group_ids_cache.clear()
            if entry.kind != assertion.kind.value:
                raise ValueError(
                    f"group {assertion.group_id!r} asserted with kinds "
                    f"{entry.kind!r} and {assertion.kind.value!r}"
                )
            changed = False
            if entry.add(assertion.member, assertion.sequence):
                self._n_groups += 1
                changed = True
            memberships = self._by_group_member.setdefault(assertion.member, set())
            if assertion.group_id not in memberships:
                memberships.add(assertion.group_id)
                self._groups_of_cache.pop(assertion.member, None)
                changed = True
            self._order.append(assertion)
            # Idempotent re-assertions change nothing a query can observe,
            # so they must not spuriously expire every cached result.
            if changed:
                self.generation += 1
            return
        if assertion.store_key in self._seen_keys:
            raise DuplicateAssertionError(
                f"duplicate p-assertion {assertion.store_key}"
            )
        self._seen_keys.add(assertion.store_key)
        if isinstance(assertion, InteractionPAssertion):
            self._interactions.setdefault(assertion.interaction_key, []).append(
                assertion
            )
            self._n_interactions += 1
        elif isinstance(assertion, ActorStatePAssertion):
            self._actor_state.setdefault(assertion.interaction_key, []).append(
                assertion
            )
            self._n_actor_state += 1
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown assertion type {type(assertion)}")
        if assertion.interaction_key not in self._all_keys:
            self._all_keys.add(assertion.interaction_key)
            self._sorted_keys = None
        self._order.append(assertion)
        self.generation += 1

    # -- lookups -----------------------------------------------------------
    def interaction_keys(self) -> List[InteractionKey]:
        if self._sorted_keys is None:
            self._sorted_keys = sorted(self._all_keys)
        return list(self._sorted_keys)

    def interaction_passertions(
        self, key: InteractionKey, view: Optional[ViewKind] = None
    ) -> List[InteractionPAssertion]:
        found = self._interactions.get(key, [])
        if view is None:
            return list(found)
        return [p for p in found if p.view == view]

    def actor_state_passertions(
        self,
        key: InteractionKey,
        view: Optional[ViewKind] = None,
        state_type: Optional[str] = None,
    ) -> List[ActorStatePAssertion]:
        found = self._actor_state.get(key, [])
        return [
            p
            for p in found
            if (view is None or p.view == view)
            and (state_type is None or p.state_type == state_type)
        ]

    def group_members(self, group_id: str) -> List[InteractionKey]:
        entry = self._groups.get(group_id)
        return entry.ordered_members() if entry else []

    def groups_of(self, key: InteractionKey) -> List[str]:
        cached = self._groups_of_cache.get(key)
        if cached is None:
            memberships = self._by_group_member.get(key)
            if memberships is None:
                return []  # don't grow the cache for keys with no memberships
            cached = sorted(memberships)
            self._groups_of_cache[key] = cached
        return list(cached)

    def group_ids(self, kind: Optional[str] = None) -> List[str]:
        # A group's kind is fixed at creation, so the per-kind sorted view
        # only invalidates when a new group id appears (see add()).  Empty
        # results are not cached: ``kind`` is client-controlled, and caching
        # misses would let query traffic grow the dict without bound.
        cached = self._group_ids_cache.get(kind)
        if cached is None:
            cached = sorted(
                gid
                for gid, entry in self._groups.items()
                if kind is None or entry.kind == kind
            )
            if cached:
                self._group_ids_cache[kind] = cached
        return list(cached)

    def group_kind(self, group_id: str) -> Optional[str]:
        entry = self._groups.get(group_id)
        return entry.kind if entry else None

    def group_kinds(self, group_ids: Optional[Iterable[str]] = None) -> Dict[str, str]:
        """Bulk kind lookup: ``{group_id: kind}`` in one pass.

        With ``group_ids`` None, covers every group in the store; unknown
        ids are omitted from the result.
        """
        if group_ids is None:
            return {gid: entry.kind for gid, entry in self._groups.items()}
        groups = self._groups
        out: Dict[str, str] = {}
        for gid in group_ids:
            entry = groups.get(gid)
            if entry is not None:
                out[gid] = entry.kind
        return out

    def all_assertions(self) -> Iterator[Assertion]:
        return iter(self._order)

    def counts(self) -> StoreCounts:
        return StoreCounts(
            interaction_passertions=self._n_interactions,
            actor_state_passertions=self._n_actor_state,
            group_assertions=self._n_groups,
            interaction_records=len(self._all_keys),
        )

    # -- checkpointing -------------------------------------------------------
    #: serialize() format tag; restore() rejects anything else.
    SERIAL_FORMAT = "store-index/1"

    @property
    def record_count(self) -> int:
        """Records in insertion order — including idempotent group
        re-assertions, so this can exceed ``counts().total``."""
        return len(self._order)

    def serialize(self) -> bytes:
        """The index as a replayable record stream (for checkpoints).

        We snapshot ``_order`` — the complete insertion-ordered assertion
        stream — rather than the derived tables: :meth:`restore` re-adds
        each record through :meth:`add`, so every derived structure,
        counter, and the write ``generation`` come out exactly as a full
        replay of the same records would produce them.  That equivalence
        is what makes snapshot-then-tail recovery indistinguishable from
        full replay.
        """
        import pickle

        return pickle.dumps(
            (self.SERIAL_FORMAT, self._order), protocol=pickle.HIGHEST_PROTOCOL
        )

    def restore(self, blob: bytes) -> List[Assertion]:
        """Replay a :meth:`serialize` blob into this (empty) index.

        Returns the restored assertions in insertion order so the caller
        can cross-check the count against its own bookkeeping.  Raises
        ``ValueError`` on a format-tag mismatch and whatever :mod:`pickle`
        raises on damage — callers treat any failure as "snapshot
        unusable" and fall down the recovery ladder.
        """
        import pickle

        if self._order:
            raise ValueError("restore() requires an empty index")
        tag, order = pickle.loads(blob)
        if tag != self.SERIAL_FORMAT:
            raise ValueError(
                f"snapshot index format {tag!r} != {self.SERIAL_FORMAT!r}"
            )
        for assertion in order:
            self.add(assertion)
        return list(order)


class GroupKindMembers:
    """Membership of one group: kind plus (optionally sequenced) members."""

    def __init__(self, kind: str):
        self.kind = kind
        self.members: List[Tuple[Optional[int], InteractionKey]] = []
        self._member_set: Set[InteractionKey] = set()
        self._ordered: Optional[List[InteractionKey]] = None

    def add(self, member: InteractionKey, sequence: Optional[int]) -> bool:
        """Add a member; returns False for idempotent re-assertions."""
        if member in self._member_set:
            return False  # membership assertions are idempotent
        self._member_set.add(member)
        self.members.append((sequence, member))
        self._ordered = None
        return True

    def ordered_members(self) -> List[InteractionKey]:
        if self._ordered is None:

            def sort_key(item: Tuple[Optional[int], InteractionKey]):
                seq, member = item
                return (0, seq, member) if seq is not None else (1, 0, member)

            self._ordered = [m for _, m in sorted(self.members, key=sort_key)]
        return list(self._ordered)


class ProvenanceStoreInterface(ABC):
    """The backend API the plug-ins program against.

    Every write bumps the index's **write generation** (see
    :attr:`generation`); read-side caches key their entries on it and
    revalidate with a single integer comparison — the invalidation contract
    :mod:`repro.store.querycache` builds on.
    """

    def __init__(self) -> None:
        self._index = StoreIndex()
        #: Background maintenance attached by the store factory
        #: (``make_backend(..., auto_compact=...)``): a
        #: :class:`repro.store.maintenance.CompactionScheduler`, or None.
        #: :meth:`close` stops it before releasing backend resources.
        self.maintenance: Optional[object] = None

    @property
    def generation(self) -> int:
        """Monotonically increasing write counter (bumped by put/put_many)."""
        return self._index.generation

    def generation_token(self) -> object:
        """Freshness token for a cached result: the whole-store generation.

        Tokens are opaque — caches must compare them only for equality
        (adapters over moving targets fold more state into theirs).
        """
        return self._index.generation

    # -- write path ---------------------------------------------------------
    def put(self, assertion: Assertion) -> None:
        """Record one assertion: a batch of one."""
        self.put_many([assertion])

    def put_many(self, assertions: Iterable[Assertion]) -> int:
        """Record a batch of assertions; returns how many were stored.

        The one write path (:meth:`put` is a batch of one).  Each assertion
        is indexed in order — duplicate detection and group idempotence
        apply per assertion — and an *indexing* failure partway through
        still persists the assertions indexed before it before the
        exception propagates.  Backends implement :meth:`_persist_many` to
        turn the batch into a single group commit; if the group commit
        itself fails, which subset became durable is backend-specific —
        treat the whole batch as in doubt.
        """
        accepted: List[Assertion] = []
        try:
            for assertion in assertions:
                self._index.add(assertion)
                accepted.append(assertion)
        except BaseException as exc:
            # Persist the accepted prefix, but never let a persist failure
            # mask the indexing error that actually stopped the batch: the
            # original exception propagates, with the persist failure
            # chained as its cause.
            if accepted:
                try:
                    self._persist_many(accepted)
                except BaseException as persist_exc:
                    raise exc from persist_exc
            raise
        if accepted:
            self._persist_many(accepted)
        return len(accepted)

    @abstractmethod
    def _persist_many(self, assertions: Sequence[Assertion]) -> None:
        """Backend-specific durability for a non-empty batch."""

    def close(self) -> None:
        """Release backend resources; stops attached background maintenance.

        Subclasses that hold resources must call ``super().close()`` first
        so an in-flight background compaction finishes (or is joined)
        before the resources it uses disappear.
        """
        if self.maintenance is not None:
            self.maintenance.stop()

    # -- read path (delegated to the index) ----------------------------------
    def interaction_keys(self) -> List[InteractionKey]:
        return self._index.interaction_keys()

    def interaction_passertions(
        self, key: InteractionKey, view: Optional[ViewKind] = None
    ) -> List[InteractionPAssertion]:
        return self._index.interaction_passertions(key, view)

    def actor_state_passertions(
        self,
        key: InteractionKey,
        view: Optional[ViewKind] = None,
        state_type: Optional[str] = None,
    ) -> List[ActorStatePAssertion]:
        return self._index.actor_state_passertions(key, view, state_type)

    def passertion_counts(self, key: InteractionKey) -> Tuple[int, int]:
        """``(interaction, actor-state)`` p-assertion counts for one key.

        One store call where asking for the two lists separately costs
        two — over the socket transport that halves the round trips the
        federated ``counts()`` path pays per key.  Composed from the
        public per-key reads so wrapping/overriding stores keep their
        semantics (a store that rejects reads rejects this too).
        """
        return (
            len(self.interaction_passertions(key)),
            len(self.actor_state_passertions(key)),
        )

    def group_members(self, group_id: str) -> List[InteractionKey]:
        return self._index.group_members(group_id)

    def groups_of(self, key: InteractionKey) -> List[str]:
        return self._index.groups_of(key)

    def group_ids(self, kind: Optional[str] = None) -> List[str]:
        return self._index.group_ids(kind)

    def group_kind(self, group_id: str) -> Optional[str]:
        return self._index.group_kind(group_id)

    def group_kinds(self, group_ids: Optional[Iterable[str]] = None) -> Dict[str, str]:
        return self._index.group_kinds(group_ids)

    def all_assertions(self) -> Iterator[Assertion]:
        return self._index.all_assertions()

    def counts(self) -> StoreCounts:
        return self._index.counts()
