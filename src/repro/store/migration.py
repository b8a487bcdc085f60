"""Online shard migration: stream, tail-drain, atomic cutover.

The §7 ``consolidate()`` was stop-the-world: quiesce the fleet, walk every
member, merge into one target.  This module is its live replacement — the
engine behind ``StoreRouter.add_member`` / ``decommission`` and the
rebalance drills:

1. **begin** — the router's :class:`~repro.store.placement.PlacementMap`
   gains a *pending* spec.  From this instant every write persists on the
   **union** of its current and pending replica sets before it acks
   (dual-commit), so whatever happens next — cutover or rollback — no
   acked write can be lost.
2. **stream** — each moving key's records are streamed from its current
   owner to the members that gain it, in pages, over the
   ``scan_suffix``/``replicate push`` surface (so it works identically
   against in-process backends and socket-served workers).  The
   supervisor's rejoin resync is this same stream: it runs
   :func:`migrate_keys` from each live peer.  Pushes skip duplicates
   (:func:`put_skipping_duplicates`), which is what makes a crashed or
   repeated migration *resumable*: re-running it re-streams cheaply and
   converges.
3. **tail-drain** — the stream's suffix is re-pulled until a quiet round
   (bounded by :data:`MAX_TAIL_ROUNDS`; correctness never depends on the
   drain, because every post-begin write was dual-committed — the drain
   only shrinks the duplicate-skip work a retry would do).
4. **cutover** — ``commit_transition()`` atomically flips the route and
   bumps the placement epoch (persisted write-new → fsync → rename).  The
   epoch rides every federated freshness vector, so all cached merges
   built under the old placement invalidate at the flip.

Any failure before cutover aborts the transition: the placement rolls
back to the current rule (which every acked write still satisfies — that
is the dual-commit invariant) and the partial stream on the new members
is harmless debris the next attempt re-deduplicates.

``on_phase`` is the crash-simulation hook: the fault-injection tests
raise from exact phase boundaries ("begin", "stream", "tail", "cutover")
to pin down every window of the protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.core.passertion import (
    GroupAssertion,
    InteractionKey,
    PAssertion,
    parse_assertion,
)
from repro.soa.envelope import Fault
from repro.soa.xmldoc import XmlElement, parse_xml
from repro.store.interface import (
    DuplicateAssertionError,
    interaction_scope,
)
from repro.store.placement import PlacementSpec

Assertion = Union[PAssertion, GroupAssertion]

#: cap on tail-drain rounds under continuous ingest.  The drain is an
#: optimization (dual-commit already covers concurrent writes), so under
#: a write stream that never goes quiet the migration stops chasing the
#: head after this many rounds and cuts over anyway.
MAX_TAIL_ROUNDS = 8


class MigrationError(RuntimeError):
    """A migration failed and was rolled back (placement unchanged).

    ``phase`` names the protocol window the failure hit ("begin",
    "stream", "tail", "cutover"); ``committed`` reports whether the
    cutover had already happened (a failure *after* the flip leaves the
    new placement in force — re-running the migration is then a no-op).
    """

    def __init__(self, message: str, phase: str, committed: bool = False):
        super().__init__(message)
        self.phase = phase
        self.committed = committed


@dataclass
class MigrationReport:
    """What one rebalance did: stream volume, key movement, cutover epoch."""

    epoch: int
    streamed: int = 0
    skipped: int = 0
    tail_rounds: int = 0
    #: distinct interaction scopes whose replica set changed.
    moved_keys: int = 0
    #: distinct interaction scopes the stream inspected (owner-side).
    total_keys: int = 0
    per_source: Dict[str, int] = field(default_factory=dict)

    @property
    def moved_fraction(self) -> float:
        return self.moved_keys / self.total_keys if self.total_keys else 0.0


def _is_duplicate(exc: BaseException) -> bool:
    """Duplicate rejection, local or over the wire."""
    if isinstance(exc, DuplicateAssertionError):
        return True
    return isinstance(exc, Fault) and exc.code == "duplicate-assertion"


def put_skipping_duplicates(
    dest: object, assertions: Iterable[Assertion]
) -> Tuple[int, int]:
    """Put ``assertions`` on ``dest`` one at a time, skipping the ones it
    already holds; returns ``(applied, skipped)``.

    The idempotent apply behind every record copy between stores — a
    migration or resync push, and a retried replica share — so a
    repeated or crashed copy converges instead of failing.
    """
    applied = skipped = 0
    for assertion in assertions:
        try:
            dest.put(assertion)  # type: ignore[attr-defined]
        except BaseException as exc:
            if not _is_duplicate(exc):
                raise
            skipped += 1
        else:
            applied += 1
    return applied, skipped


def _scan_page(source: object, after: int, limit: int) -> List[Tuple[int, str]]:
    """One ``(sequence, assertion_xml)`` page from any store.

    Log-backed stores and :class:`~repro.fleet.remote.RemoteStore` expose
    ``scan_suffix`` (the :class:`~repro.store.interface.ResyncCapable`
    surface); a store without one (the memory backend) is paged over a
    synthetic enumeration of ``all_assertions()`` — appends only extend
    that enumeration, so pre-begin records keep stable positions.
    """
    scan = getattr(source, "scan_suffix", None)
    if scan is not None:
        return scan(after=after, limit=limit)
    assertions = list(source.all_assertions())  # type: ignore[attr-defined]
    start = max(after - 1, 0)  # sequence i+1 lives at list index i
    return [
        (start + offset + 1, assertion.to_xml().serialize())
        for offset, assertion in enumerate(assertions[start : start + limit])
    ]


def _watermark(source: object) -> int:
    """The source's current max sequence (page-bounding a stream pass).

    A pass streams only up to the watermark observed when it started —
    without the bound, a pass racing a continuous writer chases the log
    head forever and the tail-drain round cap never engages.
    """
    watermark = getattr(source, "sequence_watermark", None)
    if watermark is not None:
        return watermark()
    return len(list(source.all_assertions()))  # type: ignore[attr-defined]


def _push(dest: object, batch: List[Tuple[Assertion, str]]) -> Tuple[int, int]:
    """Apply a batch on ``dest``, skipping duplicates; ``(applied, skipped)``."""
    push = getattr(dest, "replicate_push", None)
    if push is not None:
        return push([parse_xml(text) for _assertion, text in batch])
    return put_skipping_duplicates(dest, [assertion for assertion, _ in batch])


def iter_assertions(
    store: object, page: int = 256
) -> Iterable[Tuple[Assertion, str]]:
    """Every assertion a store holds, as ``(assertion, xml_text)`` pairs.

    The consolidation walk, generalized: pages over ``scan_suffix`` when
    the store has one (which lets consolidation run against socket-served
    workers, whose ``all_assertions`` does not cross the wire) and falls
    back to ``all_assertions()`` otherwise.
    """
    if getattr(store, "scan_suffix", None) is None:
        for assertion in store.all_assertions():  # type: ignore[attr-defined]
            yield assertion, assertion.to_xml().serialize()
        return
    cursor = 0
    while True:
        entries = _scan_page(store, cursor, page)
        if not entries:
            return
        for seq, text in entries:
            cursor = max(cursor, seq + 1)
            yield parse_assertion(parse_xml(text)), text


def migrate_keys(
    source: object,
    dest: object,
    keys: Optional[Iterable[InteractionKey]] = None,
    *,
    predicate: Optional[Callable[[InteractionKey], bool]] = None,
    include_groups: bool = False,
    page: int = 256,
    after: int = 0,
) -> Tuple[int, int, int]:
    """Stream ``source``'s slice of records into ``dest``.

    ``keys`` restricts the stream to those interactions (``None`` streams
    every p-assertion, further filtered by ``predicate`` when given);
    ``include_groups`` additionally streams broadcast group assertions.
    Duplicates are skipped on the destination, so re-running a crashed
    call is free.  One call streams up to the source's watermark when it
    starts, so a writer racing the stream cannot keep it going.  Returns
    ``(applied, skipped, cursor)`` — pass the cursor back as ``after``
    to drain only the suffix written since.
    """
    scopes = (
        {interaction_scope(key) for key in keys} if keys is not None else None
    )
    applied = skipped = 0
    cursor = after
    limit_seq = _watermark(source)
    while cursor <= limit_seq:
        entries = _scan_page(source, cursor, page)
        if not entries:
            break
        batch: List[Tuple[Assertion, str]] = []
        for seq, text in entries:
            cursor = max(cursor, seq + 1)
            assertion = parse_assertion(parse_xml(text))
            if isinstance(assertion, GroupAssertion):
                if include_groups:
                    batch.append((assertion, text))
                continue
            key = assertion.interaction_key
            if scopes is not None and interaction_scope(key) not in scopes:
                continue
            if predicate is not None and not predicate(key):
                continue
            batch.append((assertion, text))
        if batch:
            done, skip = _push(dest, batch)
            applied += done
            skipped += skip
    return applied, skipped, cursor


def _stream_from_source(
    router: object,
    source_name: str,
    old: PlacementSpec,
    new: PlacementSpec,
    new_members: List[str],
    *,
    after: int,
    page: int,
    moved: Set[str],
    total: Set[str],
    include_groups: bool,
) -> Tuple[int, int, int]:
    """Stream one source's owner-slice to every member that gains it.

    Only the *current owner* of a key streams it (the other replicas
    hold the same bytes; streaming from one source avoids R-fold
    re-pushes).  Broadcast group assertions go to brand-new members only,
    and only from the one source with ``include_groups`` (every existing
    member already holds every broadcast).
    """
    source = router.store(source_name)  # type: ignore[attr-defined]
    cursor = after
    applied = skipped = 0
    limit_seq = _watermark(source)
    while cursor <= limit_seq:
        entries = _scan_page(source, cursor, page)
        if not entries:
            break
        batches: Dict[str, List[Tuple[Assertion, str]]] = {}
        for seq, text in entries:
            cursor = max(cursor, seq + 1)
            assertion = parse_assertion(parse_xml(text))
            if isinstance(assertion, GroupAssertion):
                if include_groups:
                    for dest in new_members:
                        batches.setdefault(dest, []).append((assertion, text))
                continue
            scope = interaction_scope(assertion.interaction_key)
            old_set = old.replica_set_for_scope(scope)
            if old_set[0] != source_name:
                continue
            total.add(scope)
            new_set = new.replica_set_for_scope(scope)
            if set(new_set) != set(old_set):
                moved.add(scope)
            for dest in new_set:
                if dest not in old_set:
                    batches.setdefault(dest, []).append((assertion, text))
        for dest_name, batch in batches.items():
            done, skip = _push(router.store(dest_name), batch)  # type: ignore[attr-defined]
            applied += done
            skipped += skip
    return applied, skipped, cursor


def rebalance(
    router: object,
    spec: PlacementSpec,
    *,
    page: int = 256,
    on_phase: Optional[Callable[[str], None]] = None,
    max_tail_rounds: int = MAX_TAIL_ROUNDS,
) -> MigrationReport:
    """Migrate a router live from its current placement to ``spec``.

    Every member of ``spec`` must already be registered with the router
    (``StoreRouter.add_member`` handles registration + rebalance in one
    call).  On any failure before the cutover the transition is aborted —
    placement, routing and caches roll back, and the error is re-raised
    as :class:`MigrationError`; re-running the rebalance resumes via
    duplicate-skip.  A failure *at or after* the cutover (``on_phase``
    raising from ``"cutover"``) leaves the new placement committed and
    reports ``committed=True``.
    """
    placement = router.placement  # type: ignore[attr-defined]
    old = placement.current
    known = set(router.store_names)  # type: ignore[attr-defined]
    missing = [m for m in spec.members if m not in known]
    if missing:
        raise ValueError(
            f"pending members {missing} are not registered with the router; "
            f"add their stores before rebalancing onto them"
        )
    notify = on_phase or (lambda phase: None)
    placement.begin_transition(spec)
    report = MigrationReport(epoch=placement.epoch)
    committed = False
    moved: Set[str] = set()
    total: Set[str] = set()
    new_members = [m for m in spec.members if m not in old.members]
    try:
        notify("begin")
        cursors: Dict[str, int] = {}
        for index, source_name in enumerate(old.members):
            applied, skipped, cursor = _stream_from_source(
                router,
                source_name,
                old,
                spec,
                new_members,
                after=0,
                page=page,
                moved=moved,
                total=total,
                include_groups=(index == 0 and bool(new_members)),
            )
            cursors[source_name] = cursor
            report.streamed += applied
            report.skipped += skipped
            report.per_source[source_name] = applied
        notify("stream")
        # Tail drain: chase each source's suffix until a quiet round.
        while report.tail_rounds < max_tail_rounds:
            extra = 0
            for index, source_name in enumerate(old.members):
                applied, skipped, cursor = _stream_from_source(
                    router,
                    source_name,
                    old,
                    spec,
                    new_members,
                    after=cursors[source_name],
                    page=page,
                    moved=moved,
                    total=total,
                    include_groups=(index == 0 and bool(new_members)),
                )
                cursors[source_name] = cursor
                extra += applied + skipped
                report.streamed += applied
                report.skipped += skipped
                report.per_source[source_name] = (
                    report.per_source.get(source_name, 0) + applied
                )
            if extra == 0:
                break
            report.tail_rounds += 1
        notify("tail")
        placement.commit_transition()
        committed = True
        report.epoch = placement.epoch
        notify("cutover")
    except BaseException as exc:
        if not committed:
            placement.abort_transition()
        if isinstance(exc, MigrationError):
            raise
        phase = "cutover" if committed else "stream"
        raise MigrationError(
            f"migration to {list(spec.members)} "
            f"{'failed after cutover' if committed else 'aborted (rolled back)'}"
            f": {type(exc).__name__}: {exc}",
            phase=phase,
            committed=committed,
        ) from exc
    report.moved_keys = len(moved)
    report.total_keys = len(total)
    notify("done")
    return report


def consolidate_into(router: object, target: object) -> Tuple[int, int]:
    """Everything-to-one-destination merge over the migration stream.

    The §7 consolidation facility, rebuilt on :func:`iter_assertions`:
    broadcast group assertions are deduplicated across members, and
    p-assertion handling depends on what the placement history allows —
    under pristine R=1 placement (never rebalanced) a duplicate
    p-assertion is a routing-invariant violation and raises; once the
    fleet is replicated or has ever rebalanced, duplicates are expected
    (replica copies; append-only sources keep moved keys' old bytes) and
    are silently deduplicated.  Returns ``(p_moved, group_moved)``.
    """
    moved_p = moved_g = 0
    seen_groups: Set[tuple] = set()
    seen_p: Set[tuple] = set()
    placement = getattr(router, "placement", None)
    strict = (
        router.replicas == 1  # type: ignore[attr-defined]
        and (placement is None or placement.epoch == 0)
    )
    for name in router.store_names:  # type: ignore[attr-defined]
        for assertion, _text in iter_assertions(router.store(name)):  # type: ignore[attr-defined]
            if isinstance(assertion, GroupAssertion):
                dedupe_key = (
                    assertion.group_id,
                    assertion.member,
                    assertion.asserter,
                    assertion.sequence,
                )
                if dedupe_key in seen_groups:
                    continue
                seen_groups.add(dedupe_key)
                target.put(assertion)  # type: ignore[attr-defined]
                moved_g += 1
                continue
            dedupe_key = (assertion.interaction_key, assertion.store_key)
            if dedupe_key in seen_p:
                if strict:
                    raise RuntimeError(
                        f"consolidation found a duplicated p-assertion "
                        f"(routing invariant violated): {dedupe_key}"
                    )
                continue
            seen_p.add(dedupe_key)
            try:
                target.put(assertion)  # type: ignore[attr-defined]
            except BaseException as exc:
                if _is_duplicate(exc):
                    if strict:
                        raise RuntimeError(
                            f"consolidation found a duplicated p-assertion "
                            f"(routing invariant violated): {exc}"
                        ) from exc
                    continue
                raise
            moved_p += 1
    return moved_p, moved_g


__all__ = [
    "MAX_TAIL_ROUNDS",
    "MigrationError",
    "MigrationReport",
    "consolidate_into",
    "iter_assertions",
    "migrate_keys",
    "put_skipping_duplicates",
    "rebalance",
]
