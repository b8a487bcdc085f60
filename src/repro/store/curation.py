"""Provenance curation and long-term archival (§7).

"The role of the provenance store is to record p-assertions data, to
support provenance queries, but also to act as a long term storage for
provenance: support for curation of provenance data is therefore also
required."

Provided here:

* :func:`export_archive` / :func:`import_archive` — a portable, single-file
  XML archive of a store's contents (or a subset of sessions), with a
  manifest carrying counts and a content checksum so archives are
  self-validating;
* :class:`RetentionPolicy` + :func:`apply_retention` — move whole sessions
  whose id matches a predicate out of a live store into an archive store,
  preserving every p-assertion (curation without data loss);
* :func:`verify_archive` — integrity check without a full import.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, List, Optional, Set, Tuple, Union

from repro.core.passertion import GroupAssertion, InteractionKey, parse_assertion
from repro.soa.xmldoc import XmlElement, parse_xml
from repro.store.interface import Assertion, ProvenanceStoreInterface

ARCHIVE_VERSION = "1"


def _content_checksum(items: Iterable[str]) -> str:
    digest = hashlib.sha256()
    for text in items:
        digest.update(text.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def _sessions_of(store: ProvenanceStoreInterface) -> List[str]:
    return store.group_ids(kind="session")


def _keys_in_sessions(
    store: ProvenanceStoreInterface, sessions: Iterable[str]
) -> Set[InteractionKey]:
    keys: Set[InteractionKey] = set()
    for session in sessions:
        keys.update(store.group_members(session))
    return keys


def select_assertions(
    store: ProvenanceStoreInterface, sessions: Optional[Iterable[str]] = None
) -> List[Assertion]:
    """All assertions of the selected sessions (default: everything)."""
    if sessions is None:
        return list(store.all_assertions())
    sessions = list(sessions)
    keys = _keys_in_sessions(store, sessions)
    session_set = set(sessions)
    out: List[Assertion] = []
    for assertion in store.all_assertions():
        if isinstance(assertion, GroupAssertion):
            if assertion.group_id in session_set or assertion.member in keys:
                out.append(assertion)
        elif assertion.interaction_key in keys:
            out.append(assertion)
    return out


def export_archive(
    store: ProvenanceStoreInterface,
    path: Union[str, Path],
    sessions: Optional[Iterable[str]] = None,
    archivist: str = "curator",
) -> int:
    """Write a self-validating archive file; returns the assertion count."""
    assertions = select_assertions(store, sessions)
    serialized = [a.to_xml().serialize() for a in assertions]
    root = XmlElement(
        "provenance-archive",
        attrs={
            "version": ARCHIVE_VERSION,
            "archivist": archivist,
            "count": str(len(serialized)),
            "checksum": _content_checksum(serialized),
        },
    )
    body = root.element("assertions")
    for assertion in assertions:
        body.add(assertion.to_xml())
    Path(path).write_text(root.serialize(), encoding="utf-8")
    return len(serialized)


class ArchiveError(Exception):
    """The archive is malformed or fails its integrity check."""


def _load_archive(path: Union[str, Path]) -> Tuple[XmlElement, List[XmlElement]]:
    try:
        root = parse_xml(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ArchiveError(f"unparsable archive: {exc}") from exc
    if root.name != "provenance-archive":
        raise ArchiveError(f"not a provenance archive: <{root.name}>")
    if root.attrs.get("version") != ARCHIVE_VERSION:
        raise ArchiveError(
            f"unsupported archive version {root.attrs.get('version')!r}"
        )
    items = list(root.require("assertions").iter_elements())
    declared = int(root.attrs["count"])
    if len(items) != declared:
        raise ArchiveError(
            f"archive declares {declared} assertions but contains {len(items)}"
        )
    checksum = _content_checksum(el.serialize() for el in items)
    if checksum != root.attrs.get("checksum"):
        raise ArchiveError("archive checksum mismatch (corrupted content)")
    return root, items


def verify_archive(path: Union[str, Path]) -> int:
    """Integrity-check an archive; returns its assertion count."""
    _, items = _load_archive(path)
    return len(items)


def import_archive(
    path: Union[str, Path], target: ProvenanceStoreInterface
) -> int:
    """Load an archive into ``target``; returns the assertion count."""
    _, items = _load_archive(path)
    for el in items:
        target.put(parse_assertion(el))
    return len(items)


@dataclass(frozen=True)
class RetentionPolicy:
    """Which sessions should leave the live store.

    ``should_archive`` judges a session id (ids embed creation order in
    this system; real deployments would judge timestamps).
    """

    should_archive: Callable[[str], bool]
    archivist: str = "curator"


def apply_retention(
    live: ProvenanceStoreInterface,
    policy: RetentionPolicy,
    archive_path: Union[str, Path],
) -> Tuple[List[str], int]:
    """Archive every session the policy selects.

    Returns ``(archived session ids, assertions written)``.  The live store
    is append-only by design (PReP has no delete), so retention *copies*
    into the archive; a fresh live store can then be rebuilt from the
    remaining sessions via :func:`export_archive` + :func:`import_archive`.
    """
    selected = [s for s in _sessions_of(live) if policy.should_archive(s)]
    count = export_archive(
        live, archive_path, sessions=selected, archivist=policy.archivist
    )
    return selected, count
