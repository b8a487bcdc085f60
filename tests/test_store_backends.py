"""Tests for the three PReServ backends behind the Provenance Store Interface."""

from __future__ import annotations

import pytest

from repro.core.passertion import (
    ActorStatePAssertion,
    GroupAssertion,
    GroupKind,
    InteractionKey,
    InteractionPAssertion,
    ViewKind,
)
from repro.soa.xmldoc import XmlElement
from repro.store.backends import FileSystemBackend, KVLogBackend, MemoryBackend
from repro.store.interface import DuplicateAssertionError


def key(i: int) -> InteractionKey:
    return InteractionKey(interaction_id=f"m-{i:03d}", sender="c", receiver=f"svc-{i % 3}")


def ipa(i: int, view=ViewKind.SENDER) -> InteractionPAssertion:
    content = XmlElement("doc")
    content.add(f"message {i}")
    return InteractionPAssertion(
        interaction_key=key(i),
        view=view,
        asserter="c" if view is ViewKind.SENDER else f"svc-{i % 3}",
        local_id=f"i-{i}-{view.value}",
        operation=f"op-{i % 2}",
        content=content,
    )


def spa(i: int, state_type="script") -> ActorStatePAssertion:
    content = XmlElement("script")
    content.add(f"#!/bin/sh\n# service {i % 3}\n")
    return ActorStatePAssertion(
        interaction_key=key(i),
        view=ViewKind.RECEIVER,
        asserter=f"svc-{i % 3}",
        local_id=f"s-{i}-{state_type}",
        state_type=state_type,
        content=content,
    )


def ga(i: int, group="session-A", kind=GroupKind.SESSION, seq=None) -> GroupAssertion:
    return GroupAssertion(
        group_id=group, kind=kind, member=key(i), asserter="c", sequence=seq
    )


def make_backend(name: str, tmp_path):
    if name == "memory":
        return MemoryBackend()
    if name == "filesystem":
        return FileSystemBackend(tmp_path / "fs")
    return KVLogBackend(tmp_path / "kv.db")


BACKENDS = ["memory", "filesystem", "kvlog"]


@pytest.mark.parametrize("backend_name", BACKENDS)
class TestInterfaceContract:
    """All backends must satisfy the same Provenance Store Interface."""

    def test_put_and_fetch_interaction(self, backend_name, tmp_path):
        store = make_backend(backend_name, tmp_path)
        store.put(ipa(1, ViewKind.SENDER))
        store.put(ipa(1, ViewKind.RECEIVER))
        found = store.interaction_passertions(key(1))
        assert len(found) == 2
        only_sender = store.interaction_passertions(key(1), ViewKind.SENDER)
        assert [p.view for p in only_sender] == [ViewKind.SENDER]
        store.close()

    def test_actor_state_filters(self, backend_name, tmp_path):
        store = make_backend(backend_name, tmp_path)
        store.put(spa(1, "script"))
        store.put(spa(1, "resource-usage"))
        assert len(store.actor_state_passertions(key(1))) == 2
        scripts = store.actor_state_passertions(key(1), state_type="script")
        assert [p.state_type for p in scripts] == ["script"]
        store.close()

    def test_duplicate_assertion_rejected(self, backend_name, tmp_path):
        store = make_backend(backend_name, tmp_path)
        store.put(ipa(1))
        with pytest.raises(DuplicateAssertionError):
            store.put(ipa(1))
        store.close()

    def test_group_membership_and_kinds(self, backend_name, tmp_path):
        store = make_backend(backend_name, tmp_path)
        store.put(ga(1))
        store.put(ga(2))
        store.put(ga(3, group="thread-1", kind=GroupKind.THREAD, seq=0))
        assert store.group_members("session-A") == [key(1), key(2)]
        assert store.group_ids(kind="session") == ["session-A"]
        assert store.group_ids(kind="thread") == ["thread-1"]
        assert store.group_kind("thread-1") == "thread"
        assert store.groups_of(key(1)) == ["session-A"]
        store.close()

    def test_thread_sequence_orders_members(self, backend_name, tmp_path):
        store = make_backend(backend_name, tmp_path)
        store.put(ga(5, group="t", kind=GroupKind.THREAD, seq=2))
        store.put(ga(6, group="t", kind=GroupKind.THREAD, seq=0))
        store.put(ga(7, group="t", kind=GroupKind.THREAD, seq=1))
        assert store.group_members("t") == [key(6), key(7), key(5)]
        store.close()

    def test_group_membership_idempotent(self, backend_name, tmp_path):
        store = make_backend(backend_name, tmp_path)
        store.put(ga(1))
        store.put(ga(1))  # same member asserted twice
        assert store.group_members("session-A") == [key(1)]
        store.close()

    def test_conflicting_group_kind_rejected(self, backend_name, tmp_path):
        store = make_backend(backend_name, tmp_path)
        store.put(ga(1, group="g", kind=GroupKind.SESSION))
        with pytest.raises(ValueError, match="kinds"):
            store.put(ga(2, group="g", kind=GroupKind.THREAD))
        store.close()

    def test_counts(self, backend_name, tmp_path):
        store = make_backend(backend_name, tmp_path)
        store.put(ipa(1, ViewKind.SENDER))
        store.put(ipa(1, ViewKind.RECEIVER))
        store.put(spa(1))
        store.put(ga(1))
        counts = store.counts()
        assert counts.interaction_passertions == 2
        assert counts.actor_state_passertions == 1
        assert counts.group_assertions == 1
        assert counts.interaction_records == 1
        assert counts.total == 4
        store.close()

    def test_interaction_keys_sorted_union(self, backend_name, tmp_path):
        store = make_backend(backend_name, tmp_path)
        store.put(ipa(2))
        store.put(spa(1))  # actor state only: still an interaction record
        assert store.interaction_keys() == [key(1), key(2)]
        store.close()


@pytest.mark.parametrize("backend_name", ["filesystem", "kvlog"])
class TestPersistence:
    def reopen(self, backend_name, tmp_path):
        if backend_name == "filesystem":
            return FileSystemBackend(tmp_path / "fs")
        return KVLogBackend(tmp_path / "kv.db")

    def test_reopen_recovers_everything(self, backend_name, tmp_path):
        store = make_backend(backend_name, tmp_path)
        for i in range(5):
            store.put(ipa(i, ViewKind.SENDER))
            store.put(ipa(i, ViewKind.RECEIVER))
            store.put(spa(i))
            store.put(ga(i))
        counts_before = store.counts()
        store.close()
        reopened = self.reopen(backend_name, tmp_path)
        assert reopened.counts() == counts_before
        assert reopened.group_members("session-A") == [key(i) for i in range(5)]
        script = reopened.actor_state_passertions(key(3), state_type="script")[0]
        assert "service 0" in script.content.text
        reopened.close()

    def test_writes_after_reopen(self, backend_name, tmp_path):
        store = make_backend(backend_name, tmp_path)
        store.put(ipa(1))
        store.close()
        reopened = self.reopen(backend_name, tmp_path)
        reopened.put(ipa(2))
        assert len(reopened.interaction_keys()) == 2
        reopened.close()
        final = self.reopen(backend_name, tmp_path)
        assert len(final.interaction_keys()) == 2
        final.close()

    def test_duplicate_detected_across_reopen(self, backend_name, tmp_path):
        store = make_backend(backend_name, tmp_path)
        store.put(ipa(1))
        store.close()
        reopened = self.reopen(backend_name, tmp_path)
        with pytest.raises(DuplicateAssertionError):
            reopened.put(ipa(1))
        reopened.close()


class TestKVLogBackendSpecific:
    def test_compact_keeps_data(self, tmp_path):
        store = KVLogBackend(tmp_path / "kv.db")
        for i in range(10):
            store.put(ipa(i))
        store.compact()
        assert len(store.interaction_keys()) == 10
        store.close()

    def test_directory_path_rejected_before_open(self, tmp_path):
        # A kvlog store is one file; a directory is a configuration error
        # reported as such, with nothing created on the way.
        directory = tmp_path / "store"
        directory.mkdir()
        with pytest.raises(ValueError, match="is a directory"):
            KVLogBackend(directory)
        assert list(directory.iterdir()) == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["store"]


class TestMakeBackend:
    def test_make_backend_factory(self, tmp_path):
        from repro.store import make_backend

        assert isinstance(make_backend("memory"), MemoryBackend)
        fs = make_backend("filesystem", tmp_path / "fs", sync=False)
        assert isinstance(fs, FileSystemBackend)
        fs.close()
        kv = make_backend("kvlog", tmp_path / "kv")
        assert isinstance(kv, KVLogBackend)
        kv.put(ipa(1))
        kv.close()
        with pytest.raises(ValueError, match="requires a path"):
            make_backend("kvlog")
        with pytest.raises(ValueError, match="unknown store backend"):
            make_backend("cloud")
        # A layout knob must never be silently ignored.
        with pytest.raises(ValueError, match="only supported by the 'filesystem'"):
            make_backend("kvlog", tmp_path / "kv3", segment_size=64)
