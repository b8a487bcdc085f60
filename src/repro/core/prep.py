"""PReP: the Provenance Recording Protocol.

PReP "specifies the messages that actors can asynchronously exchange with
the provenance store in order to record their interaction and actor state
p-assertions" (Section 5).  This module defines those messages and their
XML forms:

* :class:`PrepRecord` — submit one p-assertion or group assertion,
* :class:`PrepAck` — the store's acknowledgement,
* :class:`PrepQuery` / :class:`PrepResult` — retrieval.

It also provides :class:`ProtocolTracker`, which follows the documentation
state of each interaction (which views have recorded, how many actor-state
assertions) — the store uses it for statistics and tests use it to check
protocol completeness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Union

from repro.core.passertion import (
    GroupAssertion,
    InteractionKey,
    InteractionPAssertion,
    PAssertion,
    ViewKind,
    parse_assertion,
)
from repro.soa.xmldoc import XmlElement

Assertion = Union[PAssertion, GroupAssertion]


@dataclass(frozen=True)
class PrepRecord:
    """A record submission: one assertion bound for the store."""

    assertion: Assertion

    ELEMENT = "prep-record"

    def to_xml(self) -> XmlElement:
        root = XmlElement(self.ELEMENT)
        root.add(self.assertion.to_xml())
        return root

    @classmethod
    def from_xml(cls, el: XmlElement) -> "PrepRecord":
        if el.name != cls.ELEMENT:
            raise ValueError(f"expected <{cls.ELEMENT}>, got <{el.name}>")
        inner = next(el.iter_elements(), None)
        if inner is None:
            raise ValueError("<prep-record> is empty")
        return cls(assertion=parse_assertion(inner))


@dataclass(frozen=True)
class PrepAck:
    """Store acknowledgement of one or more record submissions."""

    status: str
    count: int
    detail: str = ""

    ELEMENT = "prep-ack"

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_xml(self) -> XmlElement:
        root = XmlElement(
            self.ELEMENT, attrs={"status": self.status, "count": str(self.count)}
        )
        if self.detail:
            root.element("detail", self.detail)
        return root

    @classmethod
    def from_xml(cls, el: XmlElement) -> "PrepAck":
        if el.name != cls.ELEMENT:
            raise ValueError(f"expected <{cls.ELEMENT}>, got <{el.name}>")
        detail_el = el.find("detail")
        return cls(
            status=el.attrs["status"],
            count=int(el.attrs["count"]),
            detail=detail_el.text if detail_el is not None else "",
        )


@dataclass(frozen=True)
class PrepQuery:
    """A retrieval request.

    ``query_type`` selects the lookup; ``params`` supplies its arguments:

    =====================  ==================================================
    query_type             params
    =====================  ==================================================
    ``interaction``        ``id``, ``sender``, ``receiver`` (full key)
    ``interactions``       (none) — list all interaction records
    ``record``             full key — every p-assertion about one key
    ``by-group``           ``group`` — interaction keys in a group
    ``actor-state``        full key plus optional ``state-type``
    ``groups``             optional ``kind`` — list group ids
    ``groups-of``          full key — group ids a key belongs to
    ``count``              (none) — store statistics
    =====================  ==================================================
    """

    query_type: str
    params: Dict[str, str] = field(default_factory=dict)

    ELEMENT = "prep-query"

    def to_xml(self) -> XmlElement:
        root = XmlElement(self.ELEMENT, attrs={"type": self.query_type})
        for key in sorted(self.params):
            root.element("param", self.params[key], name=key)
        return root

    @classmethod
    def from_xml(cls, el: XmlElement) -> "PrepQuery":
        if el.name != cls.ELEMENT:
            raise ValueError(f"expected <{cls.ELEMENT}>, got <{el.name}>")
        params = {p.attrs["name"]: p.text for p in el.find_all("param")}
        return cls(query_type=el.attrs["type"], params=params)


@dataclass(frozen=True)
class PrepResult:
    """The store's reply to a query: a list of result documents."""

    items: List[XmlElement] = field(default_factory=list)

    ELEMENT = "prep-result"

    def to_xml(self) -> XmlElement:
        root = XmlElement(self.ELEMENT, attrs={"count": str(len(self.items))})
        for item in self.items:
            root.add(item)
        return root

    @classmethod
    def from_xml(cls, el: XmlElement) -> "PrepResult":
        if el.name != cls.ELEMENT:
            raise ValueError(f"expected <{cls.ELEMENT}>, got <{el.name}>")
        return cls(items=list(el.iter_elements()))


PrepMessage = Union[PrepRecord, PrepAck, PrepQuery, PrepResult]

_PARSERS = {
    PrepRecord.ELEMENT: PrepRecord.from_xml,
    PrepAck.ELEMENT: PrepAck.from_xml,
    PrepQuery.ELEMENT: PrepQuery.from_xml,
    PrepResult.ELEMENT: PrepResult.from_xml,
}


def parse_prep_message(el: XmlElement) -> PrepMessage:
    """Dispatch an XML document to the right PReP message parser."""
    try:
        parser = _PARSERS[el.name]
    except KeyError:
        raise ValueError(f"not a PReP message: <{el.name}>") from None
    return parser(el)


@dataclass
class _InteractionState:
    views_recorded: Set[ViewKind] = field(default_factory=set)
    actor_state_count: int = 0

    @property
    def documented(self) -> bool:
        """Both the sender and receiver view are recorded."""
        return ViewKind.SENDER in self.views_recorded and (
            ViewKind.RECEIVER in self.views_recorded
        )


class ProtocolTracker:
    """Tracks per-interaction documentation progress under PReP."""

    def __init__(self) -> None:
        self._states: Dict[InteractionKey, _InteractionState] = {}
        self.group_assertions = 0

    def observe(self, assertion: Assertion) -> None:
        if isinstance(assertion, GroupAssertion):
            self.group_assertions += 1
            return
        state = self._states.setdefault(assertion.interaction_key, _InteractionState())
        if isinstance(assertion, InteractionPAssertion):
            state.views_recorded.add(assertion.view)
        else:
            state.actor_state_count += 1

    def interactions(self) -> List[InteractionKey]:
        return sorted(self._states)

    def is_documented(self, key: InteractionKey) -> bool:
        state = self._states.get(key)
        return state.documented if state else False

    def undocumented(self) -> List[InteractionKey]:
        return sorted(k for k, s in self._states.items() if not s.documented)

    def actor_state_count(self, key: InteractionKey) -> int:
        state = self._states.get(key)
        return state.actor_state_count if state else 0

    def views_recorded(self, key: InteractionKey) -> Optional[Set[ViewKind]]:
        state = self._states.get(key)
        return set(state.views_recorded) if state else None
