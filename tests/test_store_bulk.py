"""Tests for the bulk-ingest path: put_many, group commit, batch recovery.

The acceptance bar: ``put_many`` must be semantically identical to a
sequence of ``put`` calls — duplicate detection, group idempotence, and
replay-after-reopen all produce identical indexes — while the durability
layer turns each batch into a single group commit.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.passertion import (
    ActorStatePAssertion,
    GroupAssertion,
    GroupKind,
    InteractionKey,
    InteractionPAssertion,
    ViewKind,
)
from repro.core.prep import PrepAck, PrepRecord
from repro.soa.bus import MessageBus
from repro.soa.xmldoc import XmlElement
from repro.store.backends import FileSystemBackend, KVLogBackend, MemoryBackend
from repro.store.distributed import StoreRouter
from repro.store.interface import DuplicateAssertionError
from repro.store.kvlog import CorruptRecordError, KVLog
from repro.store.service import PReServActor

# -- helpers ----------------------------------------------------------------

BACKENDS = ["memory", "filesystem", "kvlog"]


def make_backend(name: str, tmp_path, sub: str = ""):
    if name == "memory":
        return MemoryBackend()
    if name == "filesystem":
        return FileSystemBackend(tmp_path / f"fs{sub}")
    return KVLogBackend(tmp_path / f"kv{sub}.db")


def key(i: int) -> InteractionKey:
    return InteractionKey(interaction_id=f"m-{i:04d}", sender="c", receiver="s")


def ipa(i: int, view=ViewKind.SENDER) -> InteractionPAssertion:
    content = XmlElement("doc")
    content.add(f"payload {i} with <markup> & 'quotes'")
    return InteractionPAssertion(
        interaction_key=key(i),
        view=view,
        asserter="c",
        local_id=f"i-{i}-{view.value}",
        operation="op",
        content=content,
    )


def spa(i: int) -> ActorStatePAssertion:
    content = XmlElement("script")
    content.add(f"#!/bin/sh\n# job {i}\n")
    return ActorStatePAssertion(
        interaction_key=key(i),
        view=ViewKind.RECEIVER,
        asserter="s",
        local_id=f"s-{i}",
        state_type="script",
        content=content,
    )


def ga(i: int, group="session-A") -> GroupAssertion:
    return GroupAssertion(
        group_id=group, kind=GroupKind.SESSION, member=key(i), asserter="c"
    )


def mixed_batch(n: int):
    out = []
    for i in range(n):
        out.append(ipa(i, ViewKind.SENDER))
        out.append(ipa(i, ViewKind.RECEIVER))
        out.append(spa(i))
        out.append(ga(i))
    return out


def index_state(store):
    """Everything the in-memory index knows, for equivalence comparisons."""
    return (
        store.counts(),
        store.interaction_keys(),
        list(store.all_assertions()),
        store.group_ids(),
    )


# -- put_many equivalence ----------------------------------------------------


@pytest.mark.parametrize("backend_name", BACKENDS)
class TestPutManyEquivalence:
    def test_identical_to_put_sequence(self, backend_name, tmp_path):
        one = make_backend(backend_name, tmp_path, "one")
        many = make_backend(backend_name, tmp_path, "many")
        batch = mixed_batch(7)
        for a in batch:
            one.put(a)
        assert many.put_many(batch) == len(batch)
        assert index_state(one) == index_state(many)
        one.close()
        many.close()
        if backend_name == "memory":
            return
        # Replay after reopen: both persisted forms rebuild the same index.
        one = make_backend(backend_name, tmp_path, "one")
        many = make_backend(backend_name, tmp_path, "many")
        assert index_state(one) == index_state(many)
        one.close()
        many.close()

    def test_batches_of_one_leave_put_loop_bytes(self, backend_name, tmp_path):
        """A ``put`` loop and a ``put_many([x])`` loop write identical files."""
        layouts = {
            "memory": [],  # nothing on disk
            "filesystem": [lambda root: FileSystemBackend(root / "fs")],
            "kvlog": [lambda root: KVLogBackend(root / "kv.db")],
        }[backend_name]
        for layout, open_store in enumerate(layouts):
            trees = []
            for mode in ("put", "put_many"):
                root = tmp_path / f"{mode}-{layout}"
                store = open_store(root)
                for a in mixed_batch(6):
                    if mode == "put":
                        store.put(a)
                    else:
                        store.put_many([a])
                store.close()
                trees.append(
                    {
                        path.relative_to(root): path.read_bytes()
                        for path in sorted(root.rglob("*"))
                        if path.is_file()
                    }
                )
            assert trees[0] and trees[0] == trees[1]

    def test_duplicate_mid_batch_matches_put_loop(self, backend_name, tmp_path):
        one = make_backend(backend_name, tmp_path, "one")
        many = make_backend(backend_name, tmp_path, "many")
        batch = [ipa(1), ipa(2), ipa(1), ipa(3)]  # duplicate at position 2
        with pytest.raises(DuplicateAssertionError):
            for a in batch:
                one.put(a)
        with pytest.raises(DuplicateAssertionError):
            many.put_many(batch)
        assert index_state(one) == index_state(many)
        one.close()
        many.close()
        if backend_name == "memory":
            return
        # The prefix accepted before the duplicate must be durable, exactly
        # as a put loop would have left it.
        one = make_backend(backend_name, tmp_path, "one")
        many = make_backend(backend_name, tmp_path, "many")
        assert index_state(one) == index_state(many)
        assert len(one.interaction_passertions(key(1))) == 1
        assert len(one.interaction_passertions(key(2))) == 1
        one.close()
        many.close()

    def test_group_idempotence_in_batch(self, backend_name, tmp_path):
        store = make_backend(backend_name, tmp_path)
        stored = store.put_many([ga(1), ga(1), ga(2)])
        assert stored == 3  # accepted, like three put calls
        assert store.counts().group_assertions == 2  # but membership dedupes
        assert store.group_members("session-A") == [key(1), key(2)]
        store.close()

    def test_empty_batch_is_noop(self, backend_name, tmp_path):
        store = make_backend(backend_name, tmp_path)
        assert store.put_many([]) == 0
        assert store.counts().total == 0
        store.close()

    def test_writes_after_batch(self, backend_name, tmp_path):
        store = make_backend(backend_name, tmp_path)
        store.put_many([ipa(1), ipa(2)])
        store.put(ipa(3))
        store.put_many([ipa(4)])
        assert store.counts().interaction_passertions == 4
        store.close()
        if backend_name == "memory":
            return
        reopened = make_backend(backend_name, tmp_path)
        assert reopened.counts().interaction_passertions == 4
        assert reopened.interaction_keys() == [key(i) for i in (1, 2, 3, 4)]
        reopened.close()


class TestFileSystemSegments:
    def test_batch_writes_segment_files(self, tmp_path):
        store = FileSystemBackend(tmp_path / "fs", segment_size=10)
        store.put_many(mixed_batch(10))  # 40 assertions -> 4 segment files
        files = list((tmp_path / "fs").glob("*.xml"))
        assert len(files) == 4
        store.close()
        reopened = FileSystemBackend(tmp_path / "fs", segment_size=10)
        assert reopened.counts().total == 40
        reopened.close()

    def test_mixed_singles_and_segments_replay_in_order(self, tmp_path):
        store = FileSystemBackend(tmp_path / "fs", segment_size=4)
        store.put(ipa(0))
        store.put_many([ipa(1), ipa(2), ipa(3), ipa(4), ipa(5)])
        store.put(ipa(6))
        order = [a.local_id for a in store.all_assertions()]
        store.close()
        reopened = FileSystemBackend(tmp_path / "fs", segment_size=4)
        assert [a.local_id for a in reopened.all_assertions()] == order
        reopened.close()


# -- KVLog group commit and crash recovery ----------------------------------


class TestKVLogBatch:
    def test_put_many_matches_put_loop(self, tmp_path):
        a = KVLog(tmp_path / "a.db")
        b = KVLog(tmp_path / "b.db")
        pairs = [(f"k{i}".encode(), f"v{i}".encode()) for i in range(20)]
        for k, v in pairs:
            a.put(k, v)
        assert b.put_many(pairs) == 20
        assert list(a.items()) == list(b.items())
        assert list(a.scan()) == list(b.scan())
        a.close()
        b.close()

    def test_scan_yields_live_records_in_log_order(self, tmp_path):
        with KVLog(tmp_path / "db") as log:
            log.put(b"a", b"1")
            log.put(b"b", b"2")
            log.put(b"a", b"3")  # supersedes the first record
            log.delete(b"b")
            log.put(b"c", b"4")
            assert list(log.scan()) == [(b"a", b"3"), (b"c", b"4")]

    def test_duplicate_key_within_batch_last_wins(self, tmp_path):
        with KVLog(tmp_path / "db") as log:
            log.put_many([(b"k", b"v1"), (b"k", b"v2")])
            assert log.get(b"k") == b"v2"
            assert len(log) == 1
            assert log.dead_bytes > 0

    def test_torn_batch_tail_truncates_cleanly(self, tmp_path):
        """Crash mid-batch: the whole records written before the tear
        survive, the torn tail is dropped, and the index rebuilds."""
        path = tmp_path / "db"
        with KVLog(path) as log:
            log.put_many([(b"k1", b"value-one"), (b"k2", b"value-two")])
            size_full = log.file_size()
        # Tear the file inside the second record of the batch.
        data = path.read_bytes()
        assert len(data) == size_full
        path.write_bytes(data[: size_full - 5])
        with KVLog(path) as log:
            assert log.get(b"k1") == b"value-one"
            assert log.get(b"k2") is None
            assert len(log) == 1
            # Appends after recovery stay well-formed.
            log.put_many([(b"k3", b"value-three")])
        with KVLog(path) as log:
            assert dict(log.items()) == {b"k1": b"value-one", b"k3": b"value-three"}

    def test_scan_raises_on_mid_log_corruption(self, tmp_path):
        """Corruption *behind* live records must not silently drop them."""
        path = tmp_path / "db"
        log = KVLog(path)
        log.put(b"a", b"1")
        first_size = log.file_size()
        log.put(b"b", b"2")
        log.put(b"c", b"3")
        # Flip a byte inside record b's value while the log is open.
        with open(path, "r+b") as f:
            f.seek(first_size + 14)
            byte = f.read(1)
            f.seek(first_size + 14)
            f.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(CorruptRecordError):
            list(log.scan())
        size_before = log.file_size()
        with pytest.raises(CorruptRecordError):
            log.compact()
        # Compaction aborted with the original log untouched; indexed reads
        # past the corruption still work.
        assert log.file_size() == size_before
        assert log.get(b"c") == b"3"
        log.close()

    def test_backend_batch_crash_recovery(self, tmp_path):
        """Torn KVLogBackend batch: clean tail truncation + index rebuild."""
        path = tmp_path / "kv.db"
        store = KVLogBackend(path)
        store.put_many([ipa(1), ipa(2), ipa(3)])
        store.close()
        data = path.read_bytes()
        path.write_bytes(data[:-10])  # tear inside the last record
        reopened = KVLogBackend(path)
        assert reopened.counts().interaction_passertions == 2
        assert reopened.interaction_keys() == [key(1), key(2)]
        # The store accepts new writes, including a re-record of the lost one.
        reopened.put(ipa(3))
        reopened.close()
        final = KVLogBackend(path)
        assert final.counts().interaction_passertions == 3
        final.close()


class TestRouterBatch:
    def test_put_many_routes_like_put(self):
        router_one = StoreRouter({"a": MemoryBackend(), "b": MemoryBackend()})
        router_many = StoreRouter({"a": MemoryBackend(), "b": MemoryBackend()})
        batch = mixed_batch(6)
        placements_one = [router_one.put(a) for a in batch]
        placements_many = router_many.put_many(batch)
        assert placements_one == placements_many
        assert router_one.records_routed == router_many.records_routed
        for name in ("a", "b"):
            assert index_state(router_one.store(name)) == index_state(
                router_many.store(name)
            )
            assert router_one.cross_links(name) == router_many.cross_links(name)

    def test_batch_failure_keeps_routing_metadata_consistent(self):
        router = StoreRouter({"a": MemoryBackend(), "b": MemoryBackend()})
        router.put(ipa(1))  # pre-existing: the batch's duplicate
        routed_before = router.records_routed
        counts_before = {
            n: router.store(n).counts().total for n in router.store_names
        }
        owner = router.owner_of(key(1))
        same = next(
            i for i in range(2, 50) if router.owner_of(key(i)) == owner
        )
        other = next(
            i for i in range(2, 50) if router.owner_of(key(i)) != owner
        )
        # The failing store persists `same` (its batch prefix) before the
        # duplicate raises; `other` may or may not land depending on order.
        with pytest.raises(DuplicateAssertionError):
            router.put_many([ipa(same), ipa(1), ipa(other)])
        # records_routed covers everything durably stored: the new
        # persistences of this call plus the pre-existing duplicate (which a
        # put loop would also have counted before raising).
        persisted_new = sum(
            router.store(n).counts().total - counts_before[n]
            for n in router.store_names
        )
        assert router.records_routed - routed_before == persisted_new + 1
        # The durably-stored prefix is navigable: resolving its key from the
        # non-owner store follows a cross-link to the owner.
        non_owner = next(n for n in router.store_names if n != owner)
        assert router.resolve(non_owner, key(same)) == owner
        # And every cross-link points at a store that really holds the data.
        for name in router.store_names:
            for link in router.cross_links(name):
                home = router.store(link.store)
                assert home.interaction_passertions(
                    link.interaction_key
                ) or home.actor_state_passertions(link.interaction_key)


# -- property-based: batch round-trip through the service --------------------

_token = st.from_regex(r"[A-Za-z][A-Za-z0-9._-]{0,10}", fullmatch=True)
_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=0x17F),
    min_size=1,
    max_size=40,
).filter(lambda s: s.strip())

_keys = st.builds(InteractionKey, interaction_id=_token, sender=_token, receiver=_token)


def _content(text: str) -> XmlElement:
    el = XmlElement("doc")
    el.add(text)
    return el


_interaction_pas = st.builds(
    lambda key, view, asserter, local_id, op, text: InteractionPAssertion(
        interaction_key=key,
        view=view,
        asserter=asserter,
        local_id=local_id,
        operation=op,
        content=_content(text),
    ),
    _keys,
    st.sampled_from(list(ViewKind)),
    _token,
    _token,
    _token,
    _text,
)

_state_pas = st.builds(
    lambda key, view, asserter, local_id, stype, text: ActorStatePAssertion(
        interaction_key=key,
        view=view,
        asserter=asserter,
        local_id=local_id,
        state_type=stype,
        content=_content(text),
    ),
    _keys,
    st.sampled_from(list(ViewKind)),
    _token,
    _token,
    _token,
    _text,
)

_session_groups = st.builds(
    GroupAssertion,
    group_id=_token,
    kind=st.just(GroupKind.SESSION),
    member=_keys,
    asserter=_token,
    sequence=st.none(),
)


class TestBatchServiceRoundtrip:
    @given(
        st.lists(
            st.one_of(_interaction_pas, _state_pas),
            min_size=1,
            max_size=12,
            unique_by=lambda a: a.store_key,
        ),
        st.lists(_session_groups, max_size=4),
        st.sampled_from(["filesystem", "kvlog"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_prep_record_batch_survives_reopen(
        self, tmp_path_factory, passertions, groups, backend_name
    ):
        """prep-record-batch -> service -> backend -> reopen/replay."""
        tmp_path = tmp_path_factory.mktemp("bulk")
        assertions = list(passertions) + list(groups)
        backend = make_backend(backend_name, tmp_path)
        bus = MessageBus()
        bus.register(PReServActor(backend))

        body = XmlElement("prep-record-batch")
        for a in assertions:
            body.add(PrepRecord(assertion=a).to_xml())
        ack = PrepAck.from_xml(bus.call("client", "preserv", "record", body))
        assert ack.ok and ack.count == len(assertions)
        live_state = index_state(backend)
        backend.close()

        reopened = make_backend(backend_name, tmp_path)
        counts, keys, replayed, group_ids = index_state(reopened)
        assert counts == live_state[0]
        assert keys == live_state[1]
        assert group_ids == live_state[3]
        # Replay preserves both order and identity of every assertion.
        assert len(replayed) == len(live_state[2])
        for restored, original in zip(replayed, live_state[2]):
            if isinstance(original, GroupAssertion):
                assert restored == original
            else:
                assert restored.store_key == original.store_key
                assert restored.content.text == original.content.text
        reopened.close()
