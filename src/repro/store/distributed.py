"""Distributed PReServ: the paper's §7 scalability design, implemented.

"PReServ may become a bottleneck when handling p-assertion submission
requests.  To combat such scalability concern, we are undertaking the
design of a distributed version of PReServ, which would allow parallel
submissions into several provenance store instances; additionally,
documentation recorded in different stores should be cross-linked to allow
navigation; a facility is also required to consolidate data into a single
provenance store."

Three pieces:

* :class:`StoreRouter` — deterministically routes each assertion to one of
  several PReServ instances (hash of the interaction key), so submissions
  can proceed in parallel; group assertions are broadcast so every store
  can answer membership queries for navigation.
* **cross-links** — a :class:`CrossLink` names the store that owns an
  interaction.  They are computed, not stored: a store's links are every
  interaction any member holds that the store does not own, each pointing
  at its owner under the current placement, so a navigator can hop
  between stores, the links survive a reopen, and no link points at a
  store without the data.
* :func:`consolidate` — merges several stores' contents into one backend,
  deduplicating broadcast group assertions and verifying that no
  p-assertion was lost or duplicated.

The federated query side is :class:`FederatedQueryClient`, which fans a
query out to all member stores and merges results.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.core.passertion import (
    ActorStatePAssertion,
    GroupAssertion,
    InteractionKey,
    InteractionPAssertion,
    PAssertion,
    ViewKind,
)
from repro.soa.envelope import Fault
from repro.store.fanout import DEFAULT_FANOUT_WORKERS, FanoutExecutor
from repro.store.interface import (
    ProvenanceStoreInterface,
    StoreCounts,
    interaction_scope,
)
from repro.store.migration import (
    MigrationReport,
    _is_duplicate,
    consolidate_into,
    put_skipping_duplicates,
    rebalance,
)
from repro.store.placement import (
    PLACEMENT_FILE,
    PlacementMap,
    PlacementMismatchError,
    PlacementSpec,
    check_or_init_placement,
)
from repro.store.querycache import GenerationVector

Assertion = Union[PAssertion, GroupAssertion]


def _is_unavailable(exc: BaseException) -> bool:
    """Is this the transport's member-down signature?"""
    if isinstance(exc, Fault):
        return exc.code == "worker-unavailable"
    return isinstance(exc, (ConnectionError, OSError))


def _journal_key(assertion: Assertion) -> tuple:
    """Identity for repair-journal dedupe (a retried batch journals once)."""
    if isinstance(assertion, GroupAssertion):
        return (
            "group",
            assertion.group_id,
            assertion.member,
            assertion.asserter,
            assertion.sequence,
        )
    return ("passertion", assertion.interaction_key, assertion.store_key)


class PartialCommitError(RuntimeError):
    """A replicated write persisted on some replicas but not all.

    The write was **not acknowledged**: the caller must treat the batch as
    in doubt and may retry it (replicated commits skip duplicates, so a
    retry converges instead of tripping over the replicas that already
    hold the data).  The missing replicas' shares are recorded in the
    router's repair journal and flushed by :meth:`StoreRouter.repair` once
    the members rejoin — so the partial commit is repaired, never silently
    acked.
    """

    def __init__(
        self,
        message: str,
        committed: List[str],
        missing: List[str],
        causes: Optional[Dict[str, BaseException]] = None,
    ):
        super().__init__(message)
        #: members whose share of the write persisted.
        self.committed = committed
        #: members whose share did not persist (journaled for repair).
        self.missing = missing
        #: the underlying per-member failures.
        self.causes = causes or {}


class StoreCloseError(RuntimeError):
    """Aggregated member-close failures from :meth:`StoreRouter.close`.

    ``failures`` holds ``(member_name, exception)`` pairs, one per member
    whose ``close()`` raised — every member was still attempted.
    """

    def __init__(
        self, message: str, failures: List[Tuple[str, BaseException]]
    ):
        super().__init__(message)
        self.failures = failures


@dataclass(frozen=True)
class CrossLink:
    """A navigation pointer: this interaction's records live at ``store``."""

    interaction_key: InteractionKey
    store: str


def _holds_key(store: ProvenanceStoreInterface, key: InteractionKey) -> bool:
    """Whether ``store`` holds any p-assertion about ``key``."""
    return bool(
        store.interaction_passertions(key) or store.actor_state_passertions(key)
    )


def _hash_to_bucket(key: InteractionKey, n: int) -> int:
    # Same canonical scope string as ring placement and migration, so
    # every layer agrees on which records belong together.  This is the
    # legacy modulo rule, kept importable (the A4 figure, and the oracle
    # the placement tests hold PlacementSpec(mode="modulo") to bit for bit).
    digest = hashlib.sha256(interaction_scope(key).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % n


class StoreRouter:
    """Routes assertions across several named PReServ backends.

    Placement is deterministic (rendezvous by key hash), so every client
    computes the same owner without coordination — the property that makes
    *parallel submission* safe.

    With ``replicas=R`` (R > 1) every interaction's records live on R
    members: the owner plus its R-1 ring successors (successor placement
    over the sorted member list).  Writes group-commit to the full replica
    set; :meth:`put_many` (of which :meth:`put` is a batch of one) states
    when they acknowledge — all R copies, or R members for a broadcast —
    and how a down member is journaled for :meth:`repair` instead of
    silently acked.  Replicated commits skip duplicate rejections, so a
    client retry of an in-doubt batch converges (the replicas already
    holding the data accept it idempotently) instead of failing forever.
    Reads (see :class:`FederatedQueryClient`) fail over to any live
    replica, which is what makes one worker's death invisible to the
    query side.
    """

    def __init__(
        self,
        stores: Dict[str, ProvenanceStoreInterface],
        on_close: Optional[Callable[[], None]] = None,
        replicas: int = 1,
        placement: Optional[Union[str, PlacementSpec, PlacementMap]] = None,
        fanout_workers: Optional[int] = None,
    ):
        if not stores:
            raise ValueError("router needs at least one store")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self._names: List[str] = sorted(stores)
        self._stores = dict(stores)
        # Placement: an explicit map (possibly loaded from disk), a spec,
        # a mode name, or None (the legacy modulo rule) — all normalized
        # to one PlacementMap that owns every routing decision.
        if placement is None or isinstance(placement, str):
            self.placement = PlacementMap(
                PlacementSpec(
                    members=tuple(self._names),
                    replicas=replicas,
                    mode=placement or "modulo",
                )
            )
        elif isinstance(placement, PlacementSpec):
            self.placement = PlacementMap(placement)
        elif isinstance(placement, PlacementMap):
            self.placement = placement
        else:
            raise TypeError(
                f"placement must be a mode name, PlacementSpec or "
                f"PlacementMap, not {type(placement).__name__}"
            )
        if set(self.placement.members) != set(self._names):
            raise PlacementMismatchError(
                f"placement members {list(self.placement.members)} do not "
                f"match the router's stores {self._names}"
            )
        if (
            placement is not None
            and not isinstance(placement, str)
            and replicas != 1
            and replicas != self.placement.replicas
        ):
            raise ValueError(
                f"replicas={replicas} contradicts the placement's "
                f"replicas={self.placement.replicas}"
            )
        self.records_routed = 0
        #: members currently treated as down (writes journal instead of
        #: dialing them; reads prefer their replica peers).
        self._degraded: set = set()
        #: members restored but not yet confirmed fresh by a read-side
        #: generation probe (see FederatedQueryClient).
        self._suspect: set = set()
        #: repair journal: member -> journal-key -> assertion it missed.
        self._pending: Dict[str, Dict[tuple, Assertion]] = {}
        #: highest write generation ever observed per member — the read
        #: side's freshness floor for rejoined replicas.
        self._gen_floor: Dict[str, int] = {}
        #: monotonic counter making down-member generation placeholders
        #: unique per observation, so no cached vector revalidates against
        #: an unreachable member.
        self._down_nonce = 0
        self._on_close = on_close
        self._closed = False
        #: guards every piece of mutable routing state above (_degraded,
        #: _suspect, _pending, _gen_floor, _down_nonce, records_routed):
        #: the supervisor's probe thread, repair calls and the fan-out
        #: pool's worker threads all mutate it concurrently.  Reentrant
        #: because mark_degraded &c. are called both bare and from under
        #: the lock.  Never held across a member round trip.
        self._lock = threading.RLock()
        cap = DEFAULT_FANOUT_WORKERS if fanout_workers is None else fanout_workers
        #: the router's scatter-gather engine — sized min(members, cap),
        #: lazily started, closed with the router.  fanout_workers=1 is
        #: the serial baseline: one leg at a time, in member order.
        self.fanout = FanoutExecutor(
            min(len(self._names), cap), name="store-fanout"
        )

    @property
    def store_names(self) -> List[str]:
        return list(self._names)

    @property
    def replicas(self) -> int:
        return self.placement.replicas

    # -- replica placement ----------------------------------------------------
    def replica_set(self, key: InteractionKey) -> List[str]:
        """The R members holding this interaction, owner first.

        Delegated to the placement map's *current* rule — modulo
        successor placement by default (bit-identical to the original
        hard-coded rule), consistent-hash ring placement under
        ``mode="ring"``.
        """
        return self.placement.replica_set(key)

    def write_set(self, key: InteractionKey) -> List[str]:
        """Where this key's writes must persist before they ack.

        Equal to :meth:`replica_set` except during a migration, when it
        is the union of the current and pending replica sets — the
        dual-commit rule that makes acked writes survive cutover and
        rollback alike.
        """
        return self.placement.write_set(key)

    def read_set(self, key: InteractionKey) -> List[str]:
        """Read preference order: current replicas first, pending-only
        members (during a migration) as extra failover targets."""
        return self.placement.read_set(key)

    # -- degraded-member bookkeeping -------------------------------------------
    @property
    def degraded_members(self) -> List[str]:
        with self._lock:
            return sorted(self._degraded)

    def mark_degraded(self, name: str) -> None:
        """Treat ``name`` as down: writes journal for it, reads avoid it."""
        if name not in self._stores:
            raise KeyError(f"unknown store {name!r}")
        with self._lock:
            self._degraded.add(name)

    def mark_restored(self, name: str) -> None:
        """``name`` is back (restarted + resynced): route traffic again.

        The member stays *suspect* until a read-side generation probe
        confirms it reports at least the highest generation ever observed
        from it — reads prefer its replica peers until then.
        """
        if name not in self._stores:
            raise KeyError(f"unknown store {name!r}")
        with self._lock:
            self._degraded.discard(name)
            self._suspect.add(name)

    @property
    def suspect_members(self) -> List[str]:
        with self._lock:
            return sorted(self._suspect)

    def confirm_fresh(self, name: str) -> bool:
        """Probe a suspect member's generation against its floor.

        True (and the suspect mark cleared) iff the member answers with a
        generation >= the highest this router ever observed from it.
        The generation round trip runs outside the router lock.
        """
        with self._lock:
            if name not in self._suspect:
                return name not in self._degraded
        try:
            generation = self._stores[name].generation
        except BaseException as exc:
            if _is_unavailable(exc):
                self.mark_degraded(name)
                return False
            raise
        with self._lock:
            if generation >= self._gen_floor.get(name, 0):
                self._suspect.discard(name)
                self._gen_floor[name] = generation
                return True
        return False

    # -- repair journal --------------------------------------------------------
    def _journal(self, name: str, assertions: Iterable[Assertion]) -> None:
        with self._lock:
            table = self._pending.setdefault(name, {})
            for assertion in assertions:
                table[_journal_key(assertion)] = assertion

    def pending_repairs(self) -> Dict[str, int]:
        """Outstanding journal sizes per member (empty when fully healed)."""
        with self._lock:
            return {
                name: len(table)
                for name, table in self._pending.items()
                if table
            }

    def repair(self, name: Optional[str] = None) -> int:
        """Flush the repair journal to rejoined members; returns the number
        of assertions pushed (duplicates the member already held included).

        Skips members still marked degraded.  A member that fails again
        mid-repair keeps its remaining journal and is re-marked degraded.
        Members are flushed concurrently (each member's journal stays in
        order); per-member outcomes are aggregated in sorted-name order.
        """
        with self._lock:
            targets = [name] if name is not None else sorted(self._pending)
        results = self.fanout.scatter(targets, self._repair_member)
        repaired = 0
        for result in results:
            if result.error is not None:
                raise result.error
            repaired += result.value
        return repaired

    def _repair_member(self, member: str) -> int:
        with self._lock:
            table = self._pending.get(member)
            if not table or member in self._degraded:
                return 0
            items = list(table.items())
        store = self._stores[member]
        repaired = 0
        for jkey, assertion in items:
            try:
                store.put(assertion)
            except BaseException as exc:
                if _is_duplicate(exc):
                    pass  # already held (e.g. resync got there first)
                elif _is_unavailable(exc):
                    self.mark_degraded(member)
                    break
                else:
                    raise
            with self._lock:
                table.pop(jkey, None)
            repaired += 1
        with self._lock:
            if not self._pending.get(member):
                self._pending.pop(member, None)
        return repaired

    def close(self) -> None:
        """Close every member store (stopping any attached maintenance).

        The teardown entry point for factory-built fleets — callers hold
        the router, not the members, so the router owns shutdown.
        Idempotent, and *every* member is attempted even when one fails
        (a dead process-fleet worker must not leak its siblings'
        processes or fsync handles): per-member errors are collected and
        re-raised together as one :class:`StoreCloseError`.  An
        ``on_close`` hook (the process fleet's manager teardown) runs
        last, whether or not members failed.
        """
        if self._closed:
            return
        self._closed = True
        failures: List[Tuple[str, BaseException]] = []
        for name in self._names:
            try:
                self._stores[name].close()
            except BaseException as exc:
                failures.append((name, exc))
        try:
            self.fanout.close()
        except BaseException as exc:
            failures.append(("<fanout>", exc))
        try:
            if self._on_close is not None:
                self._on_close()
        except BaseException as exc:
            failures.append(("<on_close>", exc))
        if failures:
            detail = "; ".join(
                f"{name}: {type(exc).__name__}: {exc}" for name, exc in failures
            )
            raise StoreCloseError(
                f"{len(failures)} member store(s) failed to close: {detail}",
                failures,
            )

    def store(self, name: str) -> ProvenanceStoreInterface:
        try:
            return self._stores[name]
        except KeyError:
            raise KeyError(f"unknown store {name!r}") from None

    def owner_of(self, key: InteractionKey) -> str:
        """The store that owns this interaction's p-assertions."""
        return self.placement.current.owner_of(key)

    # -- cache freshness ----------------------------------------------------
    def generations(self) -> Dict[str, Optional[int]]:
        """Per-member write generations (cross-links ride member writes).

        A member that cannot be reached reports ``None`` (and is marked
        degraded) instead of failing the whole observation — the federated
        read side must keep working through an outage.
        """
        results = self.fanout.scatter(
            list(self._names), lambda name: self._stores[name].generation
        )
        out: Dict[str, Optional[int]] = {}
        for result in results:
            name = result.target
            if result.error is not None:
                if not _is_unavailable(result.error):
                    raise result.error
                self.mark_degraded(name)
                out[name] = None
                continue
            with self._lock:
                floor = self._gen_floor.get(name, 0)
                self._gen_floor[name] = max(floor, result.value)
            out[name] = result.value
        return out

    def generation_vector(self) -> GenerationVector:
        """Freshness token: a router query is cacheable iff no member advanced.

        Down members contribute a per-observation nonce instead of a
        generation, so no cached federated result ever revalidates while
        any member is unreachable — a rejoining replica can then never
        serve a stale merge out of a client cache.  The vector also
        carries the placement *epoch* (bumped at every migration
        cutover), which is what poisons every cached plan for a moved
        slice the instant the route flips; while a migration is still
        streaming, a per-observation nonce keeps anything from caching
        against the in-flux placement at all.
        """
        observed = sorted(self.generations().items())
        gens: List[object] = []
        with self._lock:
            for name, generation in observed:
                if generation is None:
                    self._down_nonce += 1
                    gens.append(("down", name, self._down_nonce))
                else:
                    gens.append(generation)
            if self.placement.in_transition:
                self._down_nonce += 1
                gens.append(("migrating", self._down_nonce))
        return GenerationVector(tuple(gens), epoch=self.placement.epoch)

    def _commit_share(
        self, name: str, share: List[Assertion], converge: bool
    ) -> None:
        """Commit one member's share of a write.

        With ``converge`` (decided by :meth:`put_many` when it planned the
        write) duplicate rejections are tolerated by falling back to
        per-assertion puts that skip them: a retried in-doubt batch must
        converge on the replicas that already hold (part of) it.
        Otherwise duplicates propagate unchanged — at R=1 they are a
        client error, not a retry artifact.
        """
        store = self._stores[name]
        try:
            store.put_many(share)
        except BaseException as exc:
            if not (converge and _is_duplicate(exc)):
                raise
            put_skipping_duplicates(store, share)

    def put(self, assertion: Assertion) -> str:
        """Route one assertion — a batch of one (see :meth:`put_many`);
        returns its placement."""
        return self.put_many([assertion])[0]

    def put_many(self, assertions: Iterable[Assertion]) -> List[str]:
        """Route a batch: one group commit per member store.

        The one write path (:meth:`put` is a batch of one).  Assertions
        are partitioned by member (group assertions broadcast;
        p-assertions go to every member of their write set), then each
        store takes its share in a single
        :meth:`~ProvenanceStoreInterface.put_many` call — per-store
        relative order is preserved.  Returns each assertion's placement
        (the replica set's owner, or ``"*"`` for broadcasts).

        An assertion is **placed** once every target durably holds it —
        or, for a broadcast group assertion at R>1, once at least
        ``replicas`` members do (the replication floor).  Placed
        assertions count in ``records_routed``; the call returns
        (acknowledges the batch) only when every assertion is placed.  If
        a member store rejects part of its batch the exception
        propagates, and the accounting still covers what did land (a
        failed member is probed for the accepted prefix of its share).

        Duplicate rejections are skipped (so a retry converges) at R>1.
        At R=1 they are skipped when the plan dual-commits a key a
        migration is moving: a retried in-doubt write, or the
        migration's own stream, may already have put the record on one
        side.  That is decided once per batch, from the write sets,
        before any share starts: if one assertion needs it, every share
        of the batch skips duplicates.  Group assertions need no such
        rule — a store takes a re-assertion as a no-op, so a broadcast
        reaching a joining member the stream already seeded cannot fail.

        Member-down handling: the dead member is marked degraded and its
        share journaled for :meth:`repair`.  At R>1 the *other* members'
        shares still commit (so a retry of the batch converges via
        duplicate-skip), and a batch left with an unplaced assertion
        raises :class:`PartialCommitError` — it is never partially
        acked.  At R=1 the transport fault propagates unchanged, as a
        plain store's would.

        Member shares group-commit **concurrently** on the fan-out pool;
        outcomes are aggregated in sorted member order, so the journal,
        degraded marks and :class:`PartialCommitError` fields do not
        depend on which share finished first.
        """
        # Keyed by the members the plan names, not by ``_names``: a live
        # add_member or decommission may swap that list mid-call.
        per_store: Dict[str, List[Assertion]] = {}
        plan: List[Tuple[Assertion, str, Tuple[str, ...]]] = []
        converge = self.replicas > 1
        for assertion in assertions:
            if isinstance(assertion, GroupAssertion):
                targets = tuple(self._names)
                owner = "*"
            else:
                targets = tuple(self.write_set(assertion.interaction_key))
                owner = targets[0]
                # Wider than R: the union of a moving key's old and new
                # replica sets.
                converge = converge or len(targets) > self.replicas
            for name in targets:
                per_store.setdefault(name, []).append(assertion)
            plan.append((assertion, owner, targets))
        committed: set = set()
        failed: set = set()
        causes: Dict[str, BaseException] = {}
        all_placed = True
        try:
            with self._lock:
                degraded = set(self._degraded) if self.replicas > 1 else set()
            work: List[str] = []
            for name in sorted(per_store):
                share = per_store[name]
                if name in degraded:
                    failed.add(name)
                    self._journal(name, share)
                    causes[name] = Fault(
                        "worker-unavailable",
                        f"member {name!r} is marked degraded",
                        detail={"worker": name},
                    )
                    continue
                work.append(name)
            results = self.fanout.scatter(
                work,
                lambda name: self._commit_share(name, per_store[name], converge),
            )
            # Aggregate EVERY member's outcome before raising: a fatal
            # (non-journalable) error must not hide which other members
            # committed, or the accounting below would under-count.
            fatal: Optional[BaseException] = None
            for result in results:
                name = result.target
                if result.error is None:
                    committed.add(name)
                    continue
                failed.add(name)
                exc = result.error
                if _is_unavailable(exc):
                    self.mark_degraded(name)
                    self._journal(name, per_store[name])
                    if self.replicas > 1:
                        causes[name] = exc
                        continue
                if fatal is None:  # first in sorted member order
                    fatal = exc
            if fatal is not None:
                raise fatal
        finally:
            for assertion, _owner, targets in plan:
                if not self._placed(assertion, targets, committed, failed):
                    all_placed = False
                    continue
                with self._lock:
                    self.records_routed += 1
        if not all_placed:
            raise PartialCommitError(
                f"batch share(s) for {sorted(causes)} did not persist "
                f"(committed on {sorted(committed)}); journaled for "
                f"repair, not acknowledged",
                committed=sorted(committed),
                missing=sorted(causes),
                causes=causes,
            )
        return [owner for _, owner, _ in plan]

    def _placed(
        self,
        assertion: Assertion,
        targets: Tuple[str, ...],
        committed: set,
        failed: set,
    ) -> bool:
        """Whether enough of ``targets`` durably hold ``assertion`` to
        place it: all of them, or ``replicas`` for a broadcast at R>1.

        Members that committed their share count without a round trip;
        only failed members are probed (see :meth:`_holds`).
        """
        floor = len(targets)
        if isinstance(assertion, GroupAssertion) and self.replicas > 1:
            floor = self.replicas
        spare = len(targets) - floor
        for name in targets:
            if name in committed or (
                name in failed and self._holds(name, assertion)
            ):
                continue
            spare -= 1
            if spare < 0:
                return False
        return True

    def _holds(self, store_name: str, assertion: Assertion) -> bool:
        """Whether ``store_name`` durably holds ``assertion`` (post-failure).

        A member that cannot even be asked (down mid-batch) holds nothing
        we can vouch for — report False rather than fail the accounting.
        """
        store = self._stores[store_name]
        try:
            if isinstance(assertion, GroupAssertion):
                return assertion.member in store.group_members(assertion.group_id)
            if isinstance(assertion, InteractionPAssertion):
                found = store.interaction_passertions(assertion.interaction_key)
            else:
                found = store.actor_state_passertions(assertion.interaction_key)
        except BaseException as exc:
            if _is_unavailable(exc):
                return False
            raise
        return any(p.store_key == assertion.store_key for p in found)

    def cross_links(self, store_name: str) -> List[CrossLink]:
        """The navigation table at ``store_name``: one link per interaction
        any member holds that ``store_name`` does not own, pointing at the
        owner under the current placement.  The keys are the federated
        union, so a down member whose replicas cover it costs nothing.
        """
        self.store(store_name)  # an unknown name raises KeyError
        links = [
            CrossLink(interaction_key=key, store=self.owner_of(key))
            for key in FederatedQueryClient(self).interaction_keys()
        ]
        return [link for link in links if link.store != store_name]

    def resolve(self, start_store: str, key: InteractionKey) -> str:
        """Navigate: from ``start_store``, find where ``key`` lives.

        Returns ``start_store`` itself when the records are local;
        otherwise follows the cross-link to the key's owner, if the owner
        holds them.
        """
        if _holds_key(self.store(start_store), key):
            return start_store
        owner = self.owner_of(key)
        if owner == start_store or not _holds_key(self._stores[owner], key):
            raise KeyError(
                f"no records or cross-link for {key} at store {start_store!r}"
            )
        return owner

    # -- membership changes (live migration) -----------------------------------
    def migration_participants(self) -> List[str]:
        """Members involved in the in-flight migration (empty when idle).

        The supervisor consults this before quarantining a flapping
        worker: a migration participant keeps getting restarts, because
        quarantining it mid-stream would wedge the transition.
        """
        if not self.placement.in_transition:
            return []
        return self.placement.all_members()

    def rebalance_to(
        self,
        spec: PlacementSpec,
        *,
        page: int = 256,
        on_phase: Optional[Callable[[str], None]] = None,
    ) -> MigrationReport:
        """Live-migrate to a new placement rule over the current members.

        The general entry point (:meth:`add_member` / :meth:`decommission`
        build their specs and call it): begins the transition (writes
        dual-commit from that instant), streams every moving key from its
        current owner to the members gaining it, drains the write tail,
        then atomically cuts over — or rolls the placement back on any
        failure.  Re-running a failed rebalance resumes via
        duplicate-skip.  Cross-links follow the new owners from the
        cutover on, since they are computed from the placement.
        """
        return rebalance(self, spec, page=page, on_phase=on_phase)

    def add_member(
        self,
        name: str,
        store: ProvenanceStoreInterface,
        *,
        page: int = 256,
        on_phase: Optional[Callable[[str], None]] = None,
    ) -> MigrationReport:
        """Register a new member store and live-migrate its share onto it.

        On failure the member is deregistered and the placement rolled
        back (any records already streamed onto it are harmless debris a
        retry re-deduplicates); the caller still owns the store object.
        """
        if name in self._stores:
            raise ValueError(f"store {name!r} is already a member")
        self._stores[name] = store
        self._names = sorted(self._stores)
        spec = self.placement.current.with_members(self._names)
        try:
            return self.rebalance_to(spec, page=page, on_phase=on_phase)
        except BaseException as exc:
            if getattr(exc, "committed", False):
                # The cutover happened before the failure surfaced: the
                # new member IS in the routing rule now, so deregistering
                # it would route keys at a missing store.  Keep it.
                raise
            self._stores.pop(name, None)
            self._names = sorted(self._stores)
            raise

    def decommission(
        self,
        name: str,
        *,
        page: int = 256,
        on_phase: Optional[Callable[[str], None]] = None,
    ) -> MigrationReport:
        """Live-migrate a member's share off it, then drop it from the fleet.

        The member must be reachable — it is the stream's source for the
        keys it owns.  After the cutover the store is removed from
        routing (the caller closes or retires the store object; fleet
        factories attach that via ``_member_retire``).  Shrinking below
        the replication factor raises before anything moves.
        """
        if name not in self._stores:
            raise KeyError(f"unknown store {name!r}")
        remaining = [member for member in self._names if member != name]
        spec = self.placement.current.with_members(remaining)
        try:
            report = self.rebalance_to(spec, page=page, on_phase=on_phase)
        except BaseException as exc:
            if getattr(exc, "committed", False):
                # Cutover happened: the member is already out of the
                # routing rule, so finish dropping it before re-raising.
                self._drop_member(name)
            raise
        self._drop_member(name)
        return report

    def _drop_member(self, name: str) -> None:
        store = self._stores.pop(name)
        self._names = sorted(self._stores)
        with self._lock:
            self._degraded.discard(name)
            self._suspect.discard(name)
            self._pending.pop(name, None)
            self._gen_floor.pop(name, None)
        retire = getattr(self, "_member_retire", None)
        if retire is not None:
            retire(name, store)

    def add_worker(
        self,
        name: Optional[str] = None,
        *,
        page: int = 256,
        on_phase: Optional[Callable[[str], None]] = None,
    ) -> Tuple[str, MigrationReport]:
        """Grow a factory-built fleet by one member, live.

        Only available on routers built by
        :func:`sharded_store_fleet`, which attach a member factory (an
        in-process backend builder, or ``ProcessFleet.add_worker`` for
        the process transport).  Returns the new member's name and the
        migration report.
        """
        factory = getattr(self, "_member_factory", None)
        if factory is None:
            raise RuntimeError(
                "this router has no member factory; build it with "
                "sharded_store_fleet() or use add_member(name, store)"
            )
        name, store = factory(name)
        try:
            report = self.add_member(name, store, page=page, on_phase=on_phase)
        except BaseException as exc:
            if not getattr(exc, "committed", False):
                abort = getattr(self, "_member_abort", None)
                if abort is not None:
                    abort(name, store)
            raise
        return name, report


class FederatedQueryClient:
    """Answers store-interface queries over all members of a router.

    Federation-wide merges (:meth:`interaction_keys`, :meth:`counts`) are
    memoized under the router's generation vector: a merged result is served
    from cache iff no member store advanced since it was built (and never
    while any member is down — down members poison the vector per
    observation, see :meth:`StoreRouter.generation_vector`).

    With router replication (R > 1) every per-key read fails over across
    the key's replica set: a member that does not answer is marked
    degraded and the next replica is asked, so one worker's death costs a
    read nothing but a fast-timeout probe.  Replicas the supervisor just
    restored are *suspect* until a generation probe confirms they report
    at least the freshest generation this router ever observed from them
    (:meth:`StoreRouter.confirm_fresh`) — reads prefer their peers until
    then, so a rejoined-but-behind replica cannot serve a stale answer.
    """

    def __init__(
        self, router: StoreRouter, hedge_after_s: Optional[float] = None
    ):
        self.router = router
        #: opt-in hedge delay for per-key reads: when the preferred
        #: replica has not answered within this many seconds, the next
        #: replica is fired too and the first success wins (see
        #: :meth:`_read_replicas`).  None or <= 0 means no hedging.
        self.hedge_after_s = hedge_after_s
        #: guards the merge caches and counters against concurrent
        #: readers (hedge legs and fan-out workers report through here).
        self._lock = threading.Lock()
        self._keys_cache: Optional[
            Tuple[GenerationVector, List[InteractionKey]]
        ] = None
        self._counts_cache: Optional[Tuple[GenerationVector, StoreCounts]] = None
        self.cache_hits = 0
        #: reads answered by a non-primary replica after a failover.
        self.failovers = 0

    # -- replica selection ----------------------------------------------------
    def _read_order(self, targets: List[str]) -> List[str]:
        """Replicas in preference order: live and fresh first.

        Degraded members go last (a read may still try them as a final
        resort — transport probes are fast and they might have quietly
        recovered); suspect members are probed via
        :meth:`StoreRouter.confirm_fresh` and demoted while behind.
        """
        with self.router._lock:
            degraded = set(self.router._degraded)
            suspect = set(self.router._suspect)
        preferred: List[str] = []
        demoted: List[str] = []
        for name in targets:
            if name in degraded:
                demoted.append(name)
            elif name in suspect and not self.router.confirm_fresh(name):
                demoted.append(name)
            else:
                preferred.append(name)
        return preferred + demoted

    def _read_replicas(self, key: InteractionKey, read: Callable) -> object:
        """Run ``read(store)`` against the key's replica set with failover.

        During a migration the preference order is the *current* replica
        set (the authority until cutover) followed by the pending-only
        members — which hold every dual-committed write plus the streamed
        prefix, so a mid-migration key is effectively both-owners for
        availability without ever preferring the incomplete copy.

        With ``hedge_after_s`` set (and more than one candidate), the
        failover loop becomes a staged race: the preferred replica is
        asked first, the next one fires only if no answer arrives in
        time, and the first success wins — one slow worker stops setting
        the read tail.  A replica that *fails* (rather than stalls) is
        marked degraded exactly as in the unhedged failover loop.
        """
        targets = self.router.read_set(key)
        order = self._read_order(targets)
        hedge = self.hedge_after_s
        if hedge is not None and hedge > 0 and len(order) > 1:
            return self._read_hedged(key, targets, order, read, hedge)
        last: Optional[BaseException] = None
        for index, name in enumerate(order):
            store = self.router.store(name)
            try:
                result = read(store)
            except BaseException as exc:
                if not _is_unavailable(exc):
                    raise
                self.router.mark_degraded(name)
                last = exc
                continue
            if index > 0:
                with self._lock:
                    self.failovers += 1
            return result
        raise Fault(
            "worker-unavailable",
            f"every replica of {targets} is unreachable for {key}",
            detail={
                "replicas": ",".join(targets),
                **(getattr(last, "detail", None) or {}),
            },
        ) from last

    def _read_hedged(
        self,
        key: InteractionKey,
        targets: List[str],
        order: List[str],
        read: Callable,
        hedge: float,
    ) -> object:
        outcome = self.router.fanout.hedged(
            order,
            lambda name: read(self.router.store(name)),
            hedge,
            retryable=_is_unavailable,
        )
        last: Optional[BaseException] = None
        for index, exc in sorted(outcome.errors.items()):
            if _is_unavailable(exc):
                self.router.mark_degraded(order[index])
                last = exc
        if outcome.fatal is not None:
            raise outcome.fatal
        if outcome.winner is None:
            raise Fault(
                "worker-unavailable",
                f"every replica of {targets} is unreachable for {key}",
                detail={
                    "replicas": ",".join(targets),
                    **(getattr(last, "detail", None) or {}),
                },
            ) from last
        if outcome.winner > 0:
            with self._lock:
                self.failovers += 1
        return outcome.value

    def _any_live(self, read: Callable) -> object:
        """Run ``read(store)`` against any live member (broadcast data)."""
        last: Optional[BaseException] = None
        for name in self._read_order(self.router.store_names):
            try:
                return read(self.router.store(name))
            except BaseException as exc:
                if not _is_unavailable(exc):
                    raise
                self.router.mark_degraded(name)
                last = exc
        raise Fault(
            "worker-unavailable",
            "no member store is reachable",
        ) from last

    def interaction_keys(self) -> List[InteractionKey]:
        vector = self.router.generation_vector()
        with self._lock:
            if self._keys_cache is not None and self._keys_cache[0].fresh(
                vector
            ):
                self.cache_hits += 1
                return list(self._keys_cache[1])
        keys: set = set()
        down: List[str] = []
        results = self.router.fanout.scatter(
            self.router.store_names,
            lambda name: self.router.store(name).interaction_keys(),
        )
        for result in results:
            if result.error is not None:
                if not _is_unavailable(result.error):
                    raise result.error
                self.router.mark_degraded(result.target)
                down.append(result.target)
                continue
            keys.update(result.value)
        if down and not self._union_complete(down):
            raise Fault(
                "worker-unavailable",
                f"members {down} are down and some replica set has no "
                f"live member; a keys merge would silently omit records",
                detail={"down": ",".join(down)},
            )
        merged = sorted(keys)
        with self._lock:
            self._keys_cache = (vector, merged)
        return list(merged)

    def _union_complete(self, down: List[str]) -> bool:
        """Is the live-member union still exhaustive?

        The union over live members covers every key iff no replica set
        the current placement can produce is entirely down — enumerated
        from the placement itself (consecutive windows under modulo,
        ring-walk sets under consistent hashing), so the check stays
        correct whatever the mode.
        """
        down_set = set(down) | set(self.router.degraded_members)
        for replica_set in self.router.placement.current.possible_replica_sets():
            if all(member in down_set for member in replica_set):
                return False
        return True

    def interaction_passertions(
        self, key: InteractionKey, view: Optional[ViewKind] = None
    ) -> List[InteractionPAssertion]:
        return self._read_replicas(
            key, lambda store: store.interaction_passertions(key, view)
        )

    def actor_state_passertions(
        self,
        key: InteractionKey,
        view: Optional[ViewKind] = None,
        state_type: Optional[str] = None,
    ) -> List[ActorStatePAssertion]:
        return self._read_replicas(
            key,
            lambda store: store.actor_state_passertions(key, view, state_type),
        )

    def group_members(self, group_id: str) -> List[InteractionKey]:
        # Groups are broadcast; any live store can answer.
        return self._any_live(lambda store: store.group_members(group_id))

    def groups_of(self, key: InteractionKey) -> List[str]:
        return self._any_live(lambda store: store.groups_of(key))

    def group_ids(self, kind: Optional[str] = None) -> List[str]:
        return self._any_live(lambda store: store.group_ids(kind))

    def group_kinds(self, group_ids=None) -> Dict[str, str]:
        return self._any_live(lambda store: store.group_kinds(group_ids))

    def passertion_counts(self, key: InteractionKey) -> Tuple[int, int]:
        """Both of one key's p-assertion counts from one live replica.

        A single store round trip (the per-key ``passertion-counts``
        query) where asking for the two lists separately costs two —
        the unit of work :meth:`counts` batches through the fan-out
        pool on the replicated path.
        """
        return self._read_replicas(
            key, lambda store: tuple(store.passertion_counts(key))
        )

    def counts(self) -> StoreCounts:
        """Aggregate counts (group assertions counted once, not per replica).

        Under pristine R=1 placement this sums per-member counts.  At
        R>1 — or once the fleet has ever rebalanced (the append-only
        members keep a moved key's old copy beside the new owner's) — a
        member sum would multi-count, so counts are computed per key from
        one live replica of its set (one :meth:`passertion_counts` round
        trip per key, batched concurrently through the fan-out pool),
        amortized by the generation-vector cache.
        """
        vector = self.router.generation_vector()
        with self._lock:
            if self._counts_cache is not None and self._counts_cache[0].fresh(
                vector
            ):
                self.cache_hits += 1
                return self._counts_cache[1]
        if self.router.replicas == 1 and self.router.placement.epoch == 0:
            inter = state = 0
            records: set = set()
            for name in self.router.store_names:
                store = self.router.store(name)
                c = store.counts()
                inter += c.interaction_passertions
                state += c.actor_state_passertions
                records.update(store.interaction_keys())
            groups = self._any_live(lambda store: store.counts()).group_assertions
            merged = StoreCounts(
                interaction_passertions=inter,
                actor_state_passertions=state,
                group_assertions=groups,
                interaction_records=len(records),
            )
        else:
            keys = self.interaction_keys()
            inter = state = 0
            results = self.router.fanout.scatter(
                keys, self.passertion_counts
            )
            for result in results:
                if result.error is not None:
                    raise result.error
                inter += result.value[0]
                state += result.value[1]
            groups = self._any_live(lambda store: store.counts()).group_assertions
            merged = StoreCounts(
                interaction_passertions=inter,
                actor_state_passertions=state,
                group_assertions=groups,
                interaction_records=len(keys),
            )
        with self._lock:
            self._counts_cache = (vector, merged)
        return merged


class FederatedStoreAdapter(FederatedQueryClient):
    """The whole fleet behind one store-interface surface.

    Duck-typed like :class:`~repro.fleet.remote.RemoteStore`: writes go
    through the router (replication, dual-commit during migrations),
    reads are the inherited :class:`FederatedQueryClient` ones (replica
    failover, generation-vector merges), so a
    :class:`~repro.store.service.PReServActor` — and therefore a whole
    :class:`~repro.app.experiment.Experiment` — can serve a multi-member
    fleet without knowing it is one.  The freshness token is the router's
    generation vector (placement epoch included), so client result caches
    invalidate on member writes *and* on migration cutovers.
    """

    def __init__(self, router: StoreRouter):
        super().__init__(router)
        #: interface parity — maintenance is owned member-side.
        self.maintenance = None

    # -- write path -----------------------------------------------------------
    def put(self, assertion: Assertion) -> None:
        self.router.put(assertion)

    def put_many(self, assertions: Iterable[Assertion]) -> int:
        batch = list(assertions)
        self.router.put_many(batch)
        return len(batch)

    # -- cache freshness -------------------------------------------------------
    @property
    def generation(self) -> int:
        """A monotonic federation-wide write counter (sum of member
        generations); prefer :meth:`generation_token`, which also tracks
        placement epochs and member outages."""
        return sum(
            generation
            for generation in self.router.generations().values()
            if generation is not None
        )

    def generation_token(self) -> object:
        return self.router.generation_vector()

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        self.router.close()


def _retire_store_dir(root: Path, name: str) -> Optional[Path]:
    """Move a decommissioned member's directory out of the fleet layout.

    ``store-NN`` directories are what the reopen count-check globs, so a
    removed member's data must stop matching — it is renamed to
    ``retired-<name>`` (kept, not deleted: decommissioning routes keys
    away, it does not destroy history).
    """
    source = root / name
    if not source.exists():
        return None
    target = root / f"retired-{name}"
    suffix = 0
    while target.exists():
        suffix += 1
        target = root / f"retired-{name}.{suffix}"
    source.rename(target)
    return target


def sharded_store_fleet(
    root: "Path | str",
    members: int = 2,
    sync: bool = True,
    auto_compact: bool = False,
    transport: str = "inprocess",
    commit_barrier_s: float = 0.0,
    replicas: int = 1,
    fault_rules: Optional[Dict[str, tuple]] = None,
    placement: str = "modulo",
    fanout_workers: Optional[int] = None,
) -> StoreRouter:
    """A §7 deployment in one call: a router over KVLog-backed members.

    The members are the fleet's shards: each is one KVLog file
    ``root/store-NN``, and the router parallelises submission across
    them, so more members means more concurrent group commits.

    ``transport`` selects where the member stores run — the two layouts
    are identical on disk, so a fleet written with one transport reopens
    with the other:

    ``"inprocess"`` (default)
        Members are :class:`~repro.store.backends.KVLogBackend` instances
        in this process; every call is a direct method call.
    ``"process"``
        Members are worker *processes* (one
        :class:`~repro.fleet.manager.ProcessFleet` child per member, each
        hosting a PReServ actor over its own backend) reached through the
        Envelope socket transport; the router holds
        :class:`~repro.fleet.remote.RemoteStore` proxies and
        ``router.close()`` tears the whole fleet down (terminate/join +
        socket cleanup).  ``commit_barrier_s`` models a per-group-commit
        device stall (see :func:`repro.fleet.worker.attach_commit_barrier`)
        — it applies to the in-process transport too, for like-for-like
        baselines.

    ``auto_compact=True`` attaches background compaction: in-process, **one**
    shared :class:`~repro.store.maintenance.CompactionScheduler` across all
    members (a single maintenance budget for the whole fleet); per-worker
    schedulers in process mode (each child owns its maintenance).  Tear the
    fleet down with :meth:`StoreRouter.close`.

    ``replicas=R`` (R > 1) turns on R-way replica sets in the router:
    every interaction's records persist on R members before a write acks
    (see :class:`StoreRouter`), and federated reads fail over within the
    set.  ``fault_rules`` (process transport only) maps worker names to
    scripted :class:`~repro.fleet.faults.FaultRule` tuples for
    deterministic crash drills.

    ``fanout_workers`` sizes the router's scatter-gather pool (capped at
    the member count; default ``min(members, 8)``): replica commits,
    broadcasts and federated merges run concurrently across members.
    ``1`` is the serial baseline — the same code, one member at a time.
    Hedged reads are a read-side setting:
    ``FederatedQueryClient(router, hedge_after_s=...)``.

    ``placement`` selects the placement rule: ``"modulo"`` (default) is
    the legacy hash-mod-N successor rule, kept for byte-identical
    reproduction of the paper figures; ``"ring"`` is consistent-hash
    placement, under which :meth:`StoreRouter.add_worker` /
    :meth:`StoreRouter.decommission` move only ~1/N of the keys.  The
    rule is persisted to ``root/placement.json`` and verified on every
    reopen — a root whose recorded placement disagrees with the requested
    membership, replication factor or mode fails loudly with
    :class:`~repro.store.placement.PlacementMismatchError` instead of
    silently misrouting.
    """
    from repro.store.backends import KVLogBackend
    from repro.store.maintenance import CompactionScheduler

    if members < 1:
        raise ValueError("fleet needs at least one member store")
    if transport not in ("inprocess", "process"):
        raise ValueError(
            f"unknown transport {transport!r}; use 'inprocess' or 'process'"
        )
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    existing = sorted(
        p.name for p in root.glob("store-*") if p.name[6:].isdigit()
    )
    if existing and len(existing) != members:
        raise ValueError(
            f"{root} holds {len(existing)} member stores but "
            f"members={members}; reopen with members={len(existing)} "
            f"(rerouting keys across a different member count would "
            f"strand existing records)"
        )
    # Reopen under the *recorded* member names (a decommissioned fleet
    # has gaps in its store-NN numbering); fresh roots get 00..N-1.
    names = existing or [f"store-{i:02d}" for i in range(members)]
    pmap = check_or_init_placement(
        root,
        PlacementSpec(
            members=tuple(names), replicas=replicas, mode=placement
        ),
    )
    if transport == "process":
        from repro.fleet.manager import ProcessFleet

        fleet = ProcessFleet(
            root,
            members=members,
            sync=sync,
            auto_compact=auto_compact,
            commit_barrier_s=commit_barrier_s,
            fault_rules=fault_rules,
        )
        router = StoreRouter(
            fleet.stores(),
            on_close=lambda: fleet.close(raise_errors=False),
            placement=pmap,
            fanout_workers=fanout_workers,
        )
        router.fleet = fleet  # type: ignore[attr-defined]

        def _process_factory(name: Optional[str] = None):
            worker = fleet.add_worker(name)
            return worker, fleet.store(worker)

        def _process_retire(name: str, store: object) -> None:
            fleet.decommission(name)
            _retire_store_dir(root, name)

        def _process_abort(name: str, store: object) -> None:
            try:
                fleet.decommission(name)
            except BaseException:
                pass
            _retire_store_dir(root, name)

        router._member_factory = _process_factory  # type: ignore[attr-defined]
        router._member_retire = _process_retire  # type: ignore[attr-defined]
        router._member_abort = _process_abort  # type: ignore[attr-defined]
        return router
    scheduler = CompactionScheduler() if auto_compact else None

    def _build_member(name: str) -> ProvenanceStoreInterface:
        store = KVLogBackend(root / name, sync=sync)
        if commit_barrier_s > 0:
            from repro.fleet.worker import attach_commit_barrier

            attach_commit_barrier(store, commit_barrier_s)
        if scheduler is not None:
            scheduler.register(store, name)
            store.maintenance = scheduler
        return store

    stores: Dict[str, ProvenanceStoreInterface] = {
        name: _build_member(name) for name in names
    }
    if scheduler is not None:
        scheduler.start()
    router = StoreRouter(stores, placement=pmap, fanout_workers=fanout_workers)

    def _inprocess_factory(name: Optional[str] = None):
        if name is None:
            index = 0
            while (
                f"store-{index:02d}" in router._stores
                or (root / f"store-{index:02d}").exists()
            ):
                index += 1
            name = f"store-{index:02d}"
        elif name in router._stores:
            raise ValueError(f"store {name!r} is already a member")
        return name, _build_member(name)

    def _inprocess_retire(name: str, store: object) -> None:
        try:
            store.close()  # type: ignore[attr-defined]
        finally:
            _retire_store_dir(root, name)

    def _inprocess_abort(name: str, store: object) -> None:
        try:
            store.close()  # type: ignore[attr-defined]
        except BaseException:
            pass
        _retire_store_dir(root, name)

    router._member_factory = _inprocess_factory  # type: ignore[attr-defined]
    router._member_retire = _inprocess_retire  # type: ignore[attr-defined]
    router._member_abort = _inprocess_abort  # type: ignore[attr-defined]
    return router


def consolidate(
    router: StoreRouter, target: ProvenanceStoreInterface
) -> Tuple[int, int]:
    """§7's consolidation facility: merge all member stores into ``target``.

    A thin wrapper over the migration engine's everything-to-one-dest
    stream (:func:`repro.store.migration.consolidate_into` — the bespoke
    merge walk this module used to carry is gone).  Returns
    ``(p_assertions_moved, group_assertions_moved)``; broadcast group
    assertions are deduplicated.  Under pristine R=1 placement a
    duplicate p-assertion (impossible under routing) is reported as an
    error; with replication or after any rebalance, duplicates are
    expected copies and are deduplicated, each p-assertion counted once.
    Because the stream pages over the resync surface when available,
    consolidation now also works against socket-served process fleets.
    """
    return consolidate_into(router, target)
